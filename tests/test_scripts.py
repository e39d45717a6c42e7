"""The sweep scripts in scripts/ run end to end and write their CSV tables."""

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


def test_step_bench_prints_its_four_tables(capsys):
    assert load("step_bench").main(["--repeats", "1"]) == 0
    out = capsys.readouterr().out
    tables = out.split("\n\n")
    assert len(tables) == 4
    assert "ns per seed-step, 1 repeats" in tables[0]
    assert "us per call, 1 repeats" in tables[1]
    assert "us per row, 1 repeats" in tables[2]
    assert "s per scan of 20000 steps, 1 repeats; traced peak" in tables[3]
    # one row per case: 2 maps x 2 directions x 3 batch sizes, 4 callables x
    # 2 batch sizes, 2 orbit calls and 2 fields at each of 2 orders, one
    # writer, one scan
    assert [len(t.strip().splitlines()) - 1 for t in tables] == [12, 14, 1, 1]
    # the scan's window buffers: about 1.9 MB at maps.WINDOW = 256 with one
    # window alive at a time, 2.7 MB with the previous one kept, 15 MB at 2048
    peak_mb = float(tables[3].strip().splitlines()[1].split()[-1])
    assert 0.0 < peak_mb < 2.3
