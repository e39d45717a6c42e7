"""CLI: strict config validation, exit codes, CSV determinism."""

import json

import numpy as np
import pytest

from mapflow.cli import run


def write_cfg(tmp_path, name, cfg):
    p = tmp_path / name
    p.write_text(json.dumps(cfg))
    return str(p)


def base_cfg(**extra):
    cfg = {"map": {"name": "standard", "eps": 1e-4}, "seed": 7}
    cfg.update(extra)
    return cfg


SITE = {"n": 1, "omega_star": [0.0], "gamma": 2.0, "scaling": "nucleus"}
EMBED = {"m_list": [1], "grid_n": 3, "site": SITE}
NUCLEUS = {"J0": [0.1], "phi0": [0.2], "budget": 20, "site": SITE}
ENERGY = {"m_list": [1], "blocks": 3, "x0": [0.1, 0.1], "site": SITE}
STABILITY = {"seeds": 2, "horizon": 10}

# (id, command, subcommand config, whether --out lies under a regular file)
BAD_INPUTS = [
    ("m_list_not_int", "embed-error", {**EMBED, "m_list": [1, "x"]}, False),
    ("m_list_zero", "embed-error", {**EMBED, "m_list": [0]}, False),
    ("grid_n_not_int", "embed-error", {**EMBED, "grid_n": "abc"}, False),
    ("budget_negative", "nucleus", {**NUCLEUS, "budget": -5}, False),
    ("record_every_zero", "nucleus", {**NUCLEUS, "record_every": 0}, False),
    ("J0_wrong_length", "nucleus", {**NUCLEUS, "J0": [0.1, 0.2]}, False),
    ("out_not_creatable", "nucleus", NUCLEUS, True),
    ("blocks_zero", "energy", {**ENERGY, "blocks": 0}, False),
    ("x0_wrong_length", "energy", {**ENERGY, "x0": [0.1, 0.1, 0.1]}, False),
    ("site_n_zero", "energy", {**ENERGY, "site": {**SITE, "n": 0}}, False),
    ("interp_m_list_not_int", "interp", {"points": [[0.1, 0.2]], "m_list": ["x"]}, False),
    ("count_negative", "resonance", {"count": -1}, False),
    ("base_wrong_length", "gen-recover", {"base": [0.0, 0.0, 0.0]}, False),
    ("horizon_negative", "stability", {**STABILITY, "horizon": -1}, False),
    ("seeds_zero", "stability", {**STABILITY, "seeds": 0}, False),
]


class TestValidation:
    def test_missing_eps_exits_2(self, tmp_path):
        cfg = {"map": {"name": "standard"}, "seed": 1,
               "stability": {"seeds": 2, "horizon": 10}}
        path = write_cfg(tmp_path, "c.json", cfg)
        assert run("stability", path, out=str(tmp_path / "o")) == 2
        assert not (tmp_path / "o").exists()

    def test_unknown_key_exits_2(self, tmp_path):
        cfg = base_cfg(stability={"seeds": 2, "horizon": 10}, bogus=1)
        path = write_cfg(tmp_path, "c.json", cfg)
        assert run("stability", path, out=str(tmp_path / "o")) == 2

    def test_unknown_subkey_exits_2(self, tmp_path):
        cfg = base_cfg(stability={"seeds": 2, "horizon": 10, "oops": True})
        path = write_cfg(tmp_path, "c.json", cfg)
        assert run("stability", path, out=str(tmp_path / "o")) == 2

    def test_missing_seed_exits_2(self, tmp_path):
        cfg = {"map": {"name": "standard", "eps": 1e-4},
               "stability": {"seeds": 2, "horizon": 10}}
        path = write_cfg(tmp_path, "c.json", cfg)
        assert run("stability", path, out=str(tmp_path / "o")) == 2

    def test_bad_json_exits_2(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text("{not json")
        assert run("stability", str(p), out=str(tmp_path / "o")) == 2

    def test_nonpositive_tolerance_exits_2(self, tmp_path):
        cfg = base_cfg(**{"embed-error": {"m_list": [1], "site": SITE, "tol": -1.0}})
        path = write_cfg(tmp_path, "c.json", cfg)
        assert run("embed-error", path, out=str(tmp_path / "o")) == 2

    @pytest.mark.parametrize("command, sub, out_under_file",
                             [case[1:] for case in BAD_INPUTS],
                             ids=[case[0] for case in BAD_INPUTS])
    def test_bad_input_exits_2(self, tmp_path, capsys, command, sub, out_under_file):
        path = write_cfg(tmp_path, "c.json", base_cfg(**{command: sub}))
        out = tmp_path / "o"
        if out_under_file:
            (tmp_path / "f").write_text("")
            out = tmp_path / "f" / "o"
        assert run(command, path, out=str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1
        assert not list(tmp_path.rglob("*.csv"))

    def test_numerical_failure_exits_3(self, tmp_path):
        # a non-resonant site certificate fails inside the run: exit 3 and
        # the manifest records the failure
        bad_site = {"n": 2, "omega_star": [0.26], "gamma": 2.0, "scaling": "nucleus"}
        cfg = base_cfg(energy={"m_list": [1], "blocks": 3, "x0": [0.1, 0.1],
                               "site": bad_site})
        path = write_cfg(tmp_path, "c.json", cfg)
        out = tmp_path / "o"
        assert run("energy", path, out=str(out)) == 3
        assert "failed" in (out / "energy_manifest.txt").read_text()


class TestCommands:
    def test_resonance_golden_row(self, tmp_path):
        cfg = base_cfg(resonance={"count": 3, "N": 5.0})
        path = write_cfg(tmp_path, "c.json", cfg)
        out = tmp_path / "o"
        assert run("resonance", path, out=str(out)) == 0
        lines = (out / "resonance.csv").read_text().strip().splitlines()
        assert lines[0] == "n,omega_star0,I_star0,rho_n,dirichlet_error"
        assert len(lines) == 4
        assert (out / "resonance_manifest.txt").exists()

    def test_resonance_golden_mean_row(self, tmp_path):
        # explicit action 0.618034 (omega = I for the catalog): n=3, w*=2/3
        cfg = {"map": {"name": "standard", "eps": 1e-4},
               "resonance": {"I0_list": [[0.618034]], "N": 5.0}}
        path = write_cfg(tmp_path, "c.json", cfg)
        out = tmp_path / "o"
        assert run("resonance", path, out=str(out)) == 0
        row = (out / "resonance.csv").read_text().strip().splitlines()[1].split(",")
        assert int(float(row[0])) == 3
        assert abs(float(row[1]) - 2.0 / 3.0) < 1e-12

    def test_resonance_matches_library_example(self, tmp_path):
        # pin one seed so omega ~ 0.618...: check the CSV row semantics
        cfg = base_cfg(resonance={"count": 50, "N": 5.0})
        path = write_cfg(tmp_path, "c.json", cfg)
        out = tmp_path / "o"
        assert run("resonance", path, out=str(out)) == 0
        rows = (out / "resonance.csv").read_text().strip().splitlines()[1:]
        for row in rows:
            n, ws, istar, rho, err = (float(v) for v in row.split(","))
            assert 1 <= n < 5
            assert err < 1.0 / (n * 5.0) + 1e-12

    def test_interp_runs(self, tmp_path):
        cfg = base_cfg(interp={"points": [[0.3, 0.2]], "m_list": [1, 2],
                               "site": SITE})
        path = write_cfg(tmp_path, "c.json", cfg)
        out = tmp_path / "o"
        assert run("interp", path, out=str(out)) == 0
        lines = (out / "interp.csv").read_text().strip().splitlines()
        assert lines[0] == "x0,x1,m,X0,X1,status"
        assert len(lines) == 3

    def test_gen_recover_matches_catalog(self, tmp_path):
        cfg = {"map": {"name": "standard", "eps": 0.2},
               "gen-recover": {"base": [0.0, 0.0], "grid_n": 3, "J_radius": 0.4}}
        path = write_cfg(tmp_path, "c.json", cfg)
        out = tmp_path / "o"
        assert run("gen-recover", path, out=str(out)) == 0
        rows = (out / "gen-recover.csv").read_text().strip().splitlines()[1:]
        for row in rows:
            parts = row.split(",")
            assert parts[-1] == "ok"
            assert abs(float(parts[2]) - float(parts[3])) <= 1e-8

    def test_embed_error_runs(self, tmp_path):
        cfg = base_cfg(**{"embed-error": {"m_list": [1, 2], "grid_n": 3,
                                          "tol": 1e-12, "site": SITE}})
        path = write_cfg(tmp_path, "c.json", cfg)
        out = tmp_path / "o"
        assert run("embed-error", path, out=str(out)) == 0
        lines = (out / "embed-error.csv").read_text().strip().splitlines()
        assert len(lines) == 3
        m1 = float(lines[1].split(",")[2])
        m2 = float(lines[2].split(",")[2])
        assert m2 < m1
        assert "flow_failures: m1=0 m2=0\n" in (out / "embed-error_manifest.txt").read_text()

    def test_nucleus_runs(self, tmp_path):
        cfg = base_cfg(nucleus={"J0": [0.1], "phi0": [0.2], "budget": 200,
                                "site": SITE, "fourier_modes": [[1], [2]],
                                "quad_n": 32})
        path = write_cfg(tmp_path, "c.json", cfg)
        out = tmp_path / "o"
        assert run("nucleus", path, out=str(out)) == 0
        lines = (out / "nucleus.csv").read_text().strip().splitlines()
        assert lines[0] == "k,J0,E,exited"
        assert len(lines) == 202
        assert all(line.endswith(",0") for line in lines[1:])
        assert (out / "nucleus_fourier.csv").exists()

    def test_stability_runs_with_pilot(self, tmp_path):
        cfg = base_cfg(stability={"seeds": 5, "horizon": 500,
                                  "pilot_horizon": 500})
        cfg["map"]["eps"] = 1e-3
        path = write_cfg(tmp_path, "c.json", cfg)
        out = tmp_path / "o"
        assert run("stability", path, out=str(out)) == 0
        lines = (out / "stability.csv").read_text().strip().splitlines()
        assert len(lines) == 6
        cal = (out / "stability_calibration.txt").read_text()
        assert "pilot_c1" in cal


class TestDeterminism:
    def test_rerun_byte_identical(self, tmp_path):
        cfg = base_cfg(stability={"seeds": 4, "horizon": 300, "pilot_horizon": 200})
        cfg["map"]["eps"] = 1e-3
        path = write_cfg(tmp_path, "c.json", cfg)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run("stability", path, out=str(out1)) == 0
        assert run("stability", path, out=str(out2)) == 0
        assert (out1 / "stability.csv").read_bytes() == (out2 / "stability.csv").read_bytes()

    def test_workers_byte_identical(self, tmp_path):
        cfg = base_cfg(stability={"seeds": 6, "horizon": 300, "pilot_horizon": 200})
        cfg["map"]["eps"] = 1e-3
        path = write_cfg(tmp_path, "c.json", cfg)
        out1, out2 = tmp_path / "w1", tmp_path / "w8"
        assert run("stability", path, out=str(out1), workers=1) == 0
        assert run("stability", path, out=str(out2), workers=8) == 0
        assert (out1 / "stability.csv").read_bytes() == (out2 / "stability.csv").read_bytes()

    def test_seed_override_changes_output(self, tmp_path):
        cfg = base_cfg(resonance={"count": 5, "N": 10.0})
        path = write_cfg(tmp_path, "c.json", cfg)
        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        assert run("resonance", path, out=str(out1)) == 0
        assert run("resonance", path, out=str(out2), seed=123) == 0
        b1 = (out1 / "resonance.csv").read_bytes()
        b2 = (out2 / "resonance.csv").read_bytes()
        assert b1 != b2

    def test_float_format_17_digits(self, tmp_path):
        from mapflow.cli import fmt

        assert fmt(1 / 3) == f"{1/3:.17g}"
        assert fmt(True) == "1"
        assert fmt(7) == "7"


class TestIntegrableExample:
    def test_twist_stability_all_zero(self, tmp_path):
        cfg = {"map": {"name": "twist", "eps": 0.0}, "seed": 3,
               "stability": {"seeds": 4, "horizon": 100, "pilot_horizon": 50}}
        path = write_cfg(tmp_path, "c.json", cfg)
        out = tmp_path / "o"
        assert run("stability", path, out=str(out)) == 0
        rows = (out / "stability.csv").read_text().strip().splitlines()[1:]
        assert all(float(r.split(",")[3]) == 0.0 for r in rows)
