"""The sweep scripts in scripts/ run end to end and write their CSV tables."""

import hashlib
import importlib.util
import pathlib

import pytest

SCRIPTS = pathlib.Path(__file__).parent.parent / "scripts"


def load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("script, tables", [
    ("nucleus_drift_sweep", {"drift.csv": ("eps,max_step_dE", 4)}),
    ("embedding_order_sweep", {"vs_m.csv": ("m,eps_hat,max_error,bound", 6),
                               "vs_eps.csv": ("eps,eps_hat,m_opt,max_error", 4)}),
])
def test_sweep_script_writes_tables(script, tables, tmp_path, monkeypatch):
    module = load(script)
    monkeypatch.setattr(module, "OUT", tmp_path)
    module.main()
    for name, (header, rows) in tables.items():
        lines = (tmp_path / name).read_text().splitlines()
        assert lines[0] == header
        assert len(lines) == rows + 1


def test_run_all_commands_prints_a_hash_per_csv(tmp_path, monkeypatch, capsys):
    module = load("run_all_commands")
    jobs = [("interp", "interp_standard.json"), ("energy", "energy_standard.json"),
            ("resonance", "resonance_standard.json"), ("gen-recover", "genrecover_standard.json")]
    monkeypatch.setattr(module, "JOBS", jobs)
    monkeypatch.setattr(module, "RUNS", tmp_path / "runs")
    assert module.main() == 0
    lines = capsys.readouterr().out.splitlines()
    for command, cfg in jobs:
        out = tmp_path / "runs" / cfg.removesuffix(".json")
        csvs = sorted(out.glob("*.csv"))
        assert csvs
        exit_line, *hash_lines = lines[:1 + len(csvs)]
        assert exit_line.split() == [command, "exit=0", "->", str(out.relative_to(tmp_path))]
        assert [line.split() for line in hash_lines] == [
            [hashlib.sha256(p.read_bytes()).hexdigest(), str(p.relative_to(tmp_path))]
            for p in csvs]
        lines = lines[1 + len(csvs):]
    assert lines == []


def test_step_bench_prints_its_five_tables(capsys):
    assert load("step_bench").main(["--repeats", "1"]) == 0
    out = capsys.readouterr().out
    tables = out.split("\n\n")
    assert len(tables) == 5
    assert "ns per seed-step, 1 repeats" in tables[0]
    assert "us per call, 1 repeats" in tables[1]
    assert "us per row, 1 repeats" in tables[2]
    assert "s per scan of 20000 steps, 1 repeats; traced peak" in tables[3]
    assert "time and count per unit, 1 repeats" in tables[4]
    # one row per case: 2 maps x 2 directions x 3 batch sizes, 4 callables x
    # 2 batch sizes, 2 orbit calls and 2 fields at each of 2 orders, one
    # writer, one scan, and 2 flows at each of 2 sizes, one path integral
    # and 2 Dirichlet searches at each of 4 N
    assert [len(t.strip().splitlines()) - 1 for t in tables] == [12, 14, 1, 1, 13]
    # the scan's window buffers: about 1.9 MB at maps.WINDOW = 25,600 states
    # (256 steps of 100 seeds) with one window alive at a time, 2.7 MB with
    # the previous one kept, 15 MB at 2048 steps
    peak_mb = float(tables[3].strip().splitlines()[1].split()[-1])
    assert 0.0 < peak_mb < 2.3
    # every layer did work: field rows, integrand rows or candidates (after
    # the 19-character name: size, median, q1, q3, count)
    assert all(float(row[19:].split()[4]) > 0 for row in tables[4].strip().splitlines()[1:])


def test_ab_bench_interval_is_the_sign_test_one():
    order_interval = load("ab_bench").order_interval
    # 12 pairs: (v_(3), v_(10)), coverage 1 - 2 * 79 / 4096 = 0.961
    lo, hi, cov = order_interval(list(range(12, 0, -1)))
    assert (lo, hi) == (3, 10) and cov == pytest.approx(1 - 2 * 79 / 4096)
    # 16 pairs: (v_(4), v_(13)), coverage 1 - 2 * 697 / 65536 = 0.979
    assert order_interval(list(range(16)))[:2] == (3, 12)
    # too few pairs for 95 %: the whole range, with the coverage it has
    assert order_interval([2.0, 1.0, 3.0]) == (1.0, 3.0, 0.75)


def test_ab_bench_rounds_alternate_and_pair():
    ab_bench = load("ab_bench")
    calls = []

    def run(side):
        calls.append(side)
        wall = {"a": 20.0, "b": 10.0, "aa": 20.0}[side] + len(calls)
        return {"wall_s": wall, "cpu_s": wall, "peak_rss_mb": 1.0, "setup_s": wall / 100}

    res = ab_bench.rounds("test", run, 2)
    # a workload's run carries its setup row, paired like the others
    assert list(res) == ["wall_s", "cpu_s", "peak_rss_mb", "setup_s"]
    assert res["setup_s"]["b"] == [0.12, 0.15] and res["setup_s"]["b_wins"] == 2
    # a Tier-1 run has no setup row
    assert "setup_s" not in ab_bench.rounds("tier1", lambda side: {"wall_s": 1.0, "cpu_s": 1.0,
                                                                     "peak_rss_mb": 1.0}, 1)
    # ABBA: each round one A/B pair and one A/A' pair, the order flipped every round
    assert calls == ["a", "b", "a", "aa", "b", "a", "aa", "a"]
    # B pairs with the first A run of its round, A' with the second
    assert res["wall_s"]["a"] == [21, 26] and res["wall_s"]["b"] == [12, 15]
    assert res["wall_s"]["a_control"] == [23, 28] and res["wall_s"]["aa"] == [24, 27]
    assert res["wall_s"]["b_wins"] == 2
    # quartiles interpolate linearly between the order statistics
    assert res["wall_s"]["a_q1_med_q3"] == [22.25, 23.5, 24.75]


@pytest.mark.parametrize("workload", ["scan", "nucleus", "embed"])
def test_ab_bench_setup_row_validates_the_workload_configs(workload, tmp_path):
    ab_bench = load("ab_bench")
    commands = ab_bench.workloads.write_configs(workload, 1, str(tmp_path))
    src = str(SCRIPTS.parent / "src")
    assert 0.0 < ab_bench.setup_once(src, commands) < 60.0
    # a config the CLI refuses fails the row
    bad = tmp_path / "bad.json"
    bad.write_text('{"map": {"name": "standard", "eps": 1e-4}, "nucleus": {}}')
    with pytest.raises(SystemExit, match="exited 1"):
        ab_bench.setup_once(src, [("nucleus", str(bad))])
