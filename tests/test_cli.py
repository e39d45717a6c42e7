"""CLI: strict config validation, exit codes, CSV determinism."""

import copy
import csv
import json
import os
import pathlib
import re
import subprocess
import sys
import tempfile
import types

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mapflow import interpolating_vf, recover_generating, scaled_block, unit_box
from mapflow.cli import (COMMANDS, CSV_BLOCK, REQUIRED, SCHEMA, build_model, build_site, run,
                         validate, write_csv)
from mapflow.errors import MapflowError
from oracles import write_csv_rows

ROOT = pathlib.Path(__file__).resolve().parents[1]


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

RESONANCE = {"count": 3, "N": 5.0}
INTERP = {"points": [[0.3, 0.2]], "m_list": [1, 2], "site": SITE}
GEN_RECOVER = {"base": [0.0, 0.0], "grid_n": 3, "J_radius": 0.4}
TWIST0 = {"name": "twist", "eps": 0.0}

# (id, command, command block, top-level keys replaced, whether --out lies
# under a regular file)
BAD_INPUTS = [
    ("m_list_not_int", "embed-error", {**EMBED, "m_list": [1, "x"]}, {}, False),
    ("m_list_zero", "embed-error", {**EMBED, "m_list": [0]}, {}, False),
    ("grid_n_not_int", "embed-error", {**EMBED, "grid_n": "abc"}, {}, False),
    ("budget_negative", "nucleus", {**NUCLEUS, "budget": -5}, {}, False),
    ("record_every_zero", "nucleus", {**NUCLEUS, "record_every": 0}, {}, False),
    ("J0_wrong_length", "nucleus", {**NUCLEUS, "J0": [0.1, 0.2]}, {}, False),
    ("out_not_creatable", "nucleus", NUCLEUS, {}, True),
    ("blocks_zero", "energy", {**ENERGY, "blocks": 0}, {}, False),
    ("x0_wrong_length", "energy", {**ENERGY, "x0": [0.1, 0.1, 0.1]}, {}, False),
    ("site_n_zero", "energy", {**ENERGY, "site": {**SITE, "n": 0}}, {}, False),
    ("interp_m_list_not_int", "interp", {"points": [[0.1, 0.2]], "m_list": ["x"]}, {}, False),
    ("count_negative", "resonance", {"count": -1}, {}, False),
    ("base_wrong_length", "gen-recover", {"base": [0.0, 0.0, 0.0]}, {}, False),
    ("horizon_negative", "stability", {**STABILITY, "horizon": -1}, {}, False),
    ("seeds_zero", "stability", {**STABILITY, "seeds": 0}, {}, False),
    ("resonance_gamma_negative", "resonance", {**RESONANCE, "gamma": -1.0}, {}, False),
    ("resonance_N_below_1", "resonance", {**RESONANCE, "N": 0.5}, {}, False),
    ("I0_list_not_number", "resonance", {"I0_list": [[0.1, "x"]]}, {}, False),
    ("resonance_block_not_object", "resonance", 5, {}, False),
    ("resonance_twist_eps_0", "resonance", RESONANCE, {"map": TWIST0}, False),
    ("I_box_not_number", "stability", {**STABILITY, "I_box": "a"}, {}, False),
    ("site_gamma_not_number", "energy", {**ENERGY, "site": {**SITE, "gamma": "x"}}, {},
     False),
    ("site_I_guess_unknown", "energy", {**ENERGY, "site": {**SITE, "I_guess": [0.0]}}, {},
     False),
    ("scheme_unknown", "interp", {**INTERP, "scheme": "bogus"}, {}, False),
    ("gauss_odd_m", "interp", {**INTERP, "scheme": "gauss", "m_list": [1]}, {}, False),
    ("fourier_mode_wrong_length", "nucleus", {**NUCLEUS, "fourier_modes": [[1, 2]]}, {},
     False),
    ("fourier_mode_zero", "nucleus", {**NUCLEUS, "fourier_modes": [[0]]}, {}, False),
    ("nucleus_twist", "nucleus", NUCLEUS, {"map": {"name": "twist", "eps": 1e-4}}, False),
    ("seed_not_int", "stability", STABILITY, {"seed": "abc"}, False),
    ("workers_not_int", "stability", STABILITY, {"workers": "two"}, False),
    ("I0_list_wrong_length", "resonance", {"I0_list": [[0.1, 0.2, 0.3]]}, {}, False),
    ("count_with_I0_list", "resonance", {**RESONANCE, "I0_list": [[0.1]]}, {}, False),
    ("pilot_horizon_negative", "stability", {**STABILITY, "pilot_horizon": -1}, {}, False),
    ("confinement_radius_negative", "stability",
     {**STABILITY, "confinement_radius": -1.0}, {}, False),
    ("quad_n_zero", "nucleus", {**NUCLEUS, "fourier_modes": [[1]], "quad_n": 0}, {}, False),
    ("tol_bool", "embed-error", {**EMBED, "tol": True}, {}, False),
    ("workers_negative", "stability", STABILITY, {"workers": -3}, False),
    ("workers_fraction", "stability", STABILITY, {"workers": 1.5}, False),
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

    def test_absurd_eps_saturates_the_bound(self, tmp_path):
        # the embedding bound 3 C_m^m eps_hat^(m+1) overflows a double here
        cfg = {"map": {"name": "standard", "eps": 1e300}, "seed": 7, "embed-error": EMBED}
        path = write_cfg(tmp_path, "c.json", cfg)
        # no RuntimeWarning either: the suite turns every one into an error
        assert run("embed-error", path, out=str(tmp_path / "o"), workers=1) == 0
        # max_error comes from the few points whose flow survived, and says so
        with open(tmp_path / "o" / "embed-error.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["bound"] for r in rows] == ["inf"]
        assert 1 <= int(rows[0]["points_measured"]) < EMBED["grid_n"] ** 2

    @pytest.mark.parametrize("command, sub, top, out_under_file",
                             [case[1:] for case in BAD_INPUTS],
                             ids=[case[0] for case in BAD_INPUTS])
    def test_bad_input_exits_2(self, tmp_path, capsys, command, sub, top, out_under_file):
        path = write_cfg(tmp_path, "c.json", base_cfg(**{command: sub, **top}))
        out = tmp_path / "o"
        if out_under_file:
            (tmp_path / "f").write_text("")
            out = tmp_path / "f" / "o"
        assert run(command, path, out=str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1
        assert not list(tmp_path.rglob("*.csv"))
        assert not out.exists()

    def test_error_names_key_rule_and_value(self, tmp_path, capsys):
        path = write_cfg(tmp_path, "c.json", base_cfg(resonance={**RESONANCE, "gamma": -1.0}))
        assert run("resonance", path, out=str(tmp_path / "o")) == 2
        assert capsys.readouterr().err == (
            "config error: resonance.gamma must be a number > 0, got -1.0\n")

    @pytest.mark.parametrize("flags", [{"workers": 0}, {"workers": -3}, {"seed": -1}])
    def test_bad_flag_exits_2(self, tmp_path, flags):
        path = write_cfg(tmp_path, "c.json", base_cfg(stability=STABILITY))
        assert run("stability", path, out=str(tmp_path / "o"), **flags) == 2
        assert not (tmp_path / "o").exists()

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

    def test_interp_fails_the_escaping_point_alone(self, tmp_path):
        # one batched call per order; the CSV is that of one call per point
        pts, ms = [[0.3, 0.2], [200.0, 0.1], [-0.4, 0.7]], [1, 2, 3]
        cfg = base_cfg(interp={"points": pts, "m_list": ms, "site": SITE})
        out = tmp_path / "o"
        assert run("interp", write_cfg(tmp_path, "c.json", cfg), out=str(out)) == 0
        model = build_model(cfg)
        blk = scaled_block(model, *build_site(model, SITE))
        rows = []
        for x in pts:
            for m in ms:
                try:
                    rows.append([*x, m, *interpolating_vf(blk, np.array(x), m), "ok"])
                except MapflowError as exc:
                    rows.append([*x, m, np.nan, np.nan, type(exc).__name__])
        ref = write_csv_rows(tmp_path / "ref.csv", ["x0", "x1", "m", "X0", "X1", "status"], rows)
        assert (out / "interp.csv").read_bytes() == ref.read_bytes()
        lines = (out / "interp.csv").read_text().splitlines()[1:]
        assert [line.split(",", 3)[3] for line in lines[3:6]] == ["nan,nan,DomainEscape"] * 3
        assert all(line.endswith(",ok") for line in lines[:3] + lines[6:])

    def test_gen_recover_fails_its_points_alone(self, tmp_path):
        # at eps = 1e200 the paths with q != 0 do not converge; q = 0 stays exact
        cfg = {"map": {"name": "standard", "eps": 1e200},
               "gen-recover": {"base": [0.0, 0.0], "grid_n": 3}}
        out = tmp_path / "o"
        assert run("gen-recover", write_cfg(tmp_path, "c.json", cfg), out=str(out)) == 0
        model, base = build_model(cfg), np.zeros(2)
        rows = []
        for p in unit_box(1, 0.4).grid(3):
            try:
                val, status = recover_generating(model, base, p, 1e-11), "ok"
            except MapflowError as exc:
                val, status = np.nan, type(exc).__name__
            ref = ((model.h0(p[:1]) - model.h0(base[:1]))
                   + model.eps * (model.s(p[:1], p[1:]) - model.s(base[:1], base[1:])))
            rows.append([*p, val, float(ref), status])
        ref = write_csv_rows(tmp_path / "ref.csv",
                             ["pbar0", "q0", "s_recovered", "s_catalog", "status"], rows)
        assert (out / "gen-recover.csv").read_bytes() == ref.read_bytes()
        lines = (out / "gen-recover.csv").read_text().splitlines()[1:]
        status = {(line.split(",")[1], line.split(",")[-1]) for line in lines}
        assert status == {("0", "ok"), ("0.33333333333333331", "QuadratureFailure"),
                          ("0.66666666666666663", "QuadratureFailure")}
        # eps s(p) - eps s(base) cancels at q = 0 and leaves the action part whole
        for pbar in ("-0.40000000000000002", "0.40000000000000002"):
            assert (f"{pbar},0,0.080000000000000016,0.080000000000000016,ok" in lines)

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
        assert lines[0].endswith(",points_measured") and lines[1].endswith(",9")

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

    def test_sampled_nucleus_records_the_exit_row(self, tmp_path):
        # the orbit leaves the trapping ball at block 54, between two samples
        nucleus = {"J0": [0.45], "phi0": [0.5], "budget": 500, "site": SITE}
        full, sampled = tmp_path / "full", tmp_path / "sampled"
        assert run("nucleus", write_cfg(tmp_path, "a.json", base_cfg(nucleus=nucleus)),
                   out=str(full)) == 0
        cfg = base_cfg(nucleus={**nucleus, "record_every": 7})
        assert run("nucleus", write_cfg(tmp_path, "b.json", cfg), out=str(sampled)) == 0
        every = (full / "nucleus.csv").read_text().splitlines()
        lines = (sampled / "nucleus.csv").read_text().splitlines()
        assert len(every) == 56 and every[-1].startswith("54,") and every[-1].endswith(",1")
        assert lines == every[:1] + every[1:51:7] + every[-1:]
        assert [line[-2:] for line in lines[1:]] == [",0"] * 8 + [",1"]

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

    def test_configured_radius_workers_byte_identical(self, tmp_path):
        # 110 seeds: two chunks at --workers 2, each a `stability_scan` at the
        # configured radius, which some seeds cross
        cfg = base_cfg(stability={"seeds": 110, "horizon": 400, "confinement_radius": 1e-3})
        cfg["map"] = {"name": "froeschle2", "eps": 1e-3, "params": {"eta": 0.3}}
        path = write_cfg(tmp_path, "c.json", cfg)
        out1, out2 = tmp_path / "w1", tmp_path / "w2"
        assert run("stability", path, out=str(out1), workers=1) == 0
        assert run("stability", path, out=str(out2), workers=2) == 0
        assert (out1 / "stability.csv").read_bytes() == (out2 / "stability.csv").read_bytes()
        with open(out1 / "stability.csv") as fh:
            exits = [int(row["exit_index"]) for row in csv.DictReader(fh)]
        assert len(exits) == 110 and max(exits) >= 0

    @pytest.mark.parametrize("workers, pilot_horizon, factor",
                             [(1, 200, None), (2, 200, None), (2, 700, None), (1, 200, 0.05)],
                             ids=["w1", "w2", "w2_pilot_longer", "w1_rescan"])
    def test_pilot_rides_in_the_batch(self, tmp_path, monkeypatch, workers, pilot_horizon,
                                      factor):
        """stability.csv and stability_calibration.txt are those of a pilot run
        first (`pilot_confinement`) and then `stability_scan` at RADIUS_FACTOR
        times its radius; at a fortieth of the radius seeds cross it before the
        pilot's last step and take their exits from the re-scan."""
        from mapflow import experiments

        if factor is not None:
            monkeypatch.setattr(experiments, "RADIUS_FACTOR", factor)
        cfg = base_cfg(stability={"seeds": 110, "horizon": 400, "pilot_horizon": pilot_horizon})
        cfg["map"] = {"name": "froeschle2", "eps": 1e-3, "params": {"eta": 0.3}}
        path = write_cfg(tmp_path, "c.json", cfg)
        assert run("stability", path, out=str(tmp_path / "riding"), workers=workers) == 0

        def pilot_then_scan(model, x0, horizon, pilot_horizon):
            cal = experiments.pilot_confinement(model, pilot_horizon)
            radius = experiments.RADIUS_FACTOR * cal.radius(model.eps) if cal.c1 > 0 else None
            return experiments.stability_scan(model, x0, horizon, radius), cal, radius

        monkeypatch.setattr(experiments, "calibrated_scan", pilot_then_scan)
        assert run("stability", path, out=str(tmp_path / "serial"), workers=1) == 0
        for name in ("stability.csv", "stability_calibration.txt"):
            assert ((tmp_path / "riding" / name).read_bytes()
                    == (tmp_path / "serial" / name).read_bytes())
        with open(tmp_path / "riding" / "stability.csv") as fh:
            exits = [int(row["exit_index"]) for row in csv.DictReader(fh)]
        early = sum(0 < e <= pilot_horizon for e in exits)
        assert early > 10 if factor else early == 0

    def test_embed_error_starts_no_process(self, tmp_path, monkeypatch):
        # only stability splits its work over --workers; embed-error runs its
        # orders in turn, in this process, whatever the worker count
        import concurrent.futures

        def refuse(*args, **kwargs):
            raise AssertionError("embed-error started a worker pool")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refuse)
        cfg = base_cfg(**{"embed-error": {**EMBED, "m_list": [2, 1]}})
        path = write_cfg(tmp_path, "c.json", cfg)
        assert run("embed-error", path, out=str(tmp_path / "o"), workers=8) == 0
        lines = (tmp_path / "o" / "embed-error.csv").read_text().splitlines()
        assert [line.split(",")[0] for line in lines[1:]] == ["1", "2"]

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


#: powers of ten and their neighbours an ulp away
_POWERS = 10.0 ** np.arange(-30, 31)
#: the edges of the writer's exact range, 1e-11 < |x| < 1e16, and values whose
#: 17 digits sit at a decade's edge: rounding up to the next decade,
#: staying below it, or ending in a zero of the integer part
_EDGES = np.array([1e-11, 1e16, 9.9999999999999995e-08, 999999999999999.94,
                   4460756219856090.0, 9999999999999998.0, 0.0001, 9.9999999999999991e-05])


def _float_column(rng, n):
    """Random bit patterns (nan payloads, subnormals, extremes), ordinary
    magnitudes, exact binary ties (j + 1/2) 2^-s and the special values, mixed."""
    special = np.concatenate([
        [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, -5e-324, 2.2250738585072009e-308,
         1e308, -1e308, 1.7976931348623157e308, 1 / 3, 1e16, 1e17, -123456789.125],
        *(np.nextafter(v, target) for v in (_POWERS, _EDGES) for target in (-np.inf, np.inf)),
        _POWERS, _EDGES])
    bits = rng.integers(0, 2**64, n, dtype=np.uint64).view(np.float64)
    plain = rng.normal(size=n) * 10.0 ** rng.integers(-30, 30, n)
    ties = (rng.integers(0, 2**40, n) + 0.5) * 2.0 ** -rng.integers(1, 60, n)
    pick = rng.integers(0, 4, n)
    sign = np.where(rng.random(n) < 0.5, -1.0, 1.0)
    return np.choose(pick, [bits, plain, sign * ties, sign * rng.choice(special, n)])


#: ints at +-10^k and 10^k - 1, and the int64 extremes
_INT_EDGES = np.array([s * v for k in range(19) for v in (10**k, 10**k - 1) for s in (1, -1)]
                      + [np.iinfo(np.int64).min, np.iinfo(np.int64).max], dtype=np.int64)


def _random_column(rng, kind, n):
    if kind == "float":
        return _float_column(rng, n)
    if kind == "float32":
        bits = rng.integers(0, 2**32, n, dtype=np.uint64).astype(np.uint32).view(np.float32)
        plain = (rng.normal(size=n) * 10.0 ** rng.integers(-30, 30, n)).astype(np.float32)
        return np.where(rng.random(n) < 0.5, bits, plain)
    if kind == "int":
        info = np.iinfo(np.int64)
        wide = rng.integers(info.min, info.max, n, endpoint=True, dtype=np.int64)
        return np.choose(rng.integers(0, 3, n),
                         [wide, rng.integers(-1000, 1000, n), rng.choice(_INT_EDGES, n)])
    if kind == "uint":  # above 2^63 too, which int64 does not hold
        high = rng.integers(2**63, 2**64, n, endpoint=False, dtype=np.uint64)
        return np.where(rng.random(n) < 0.5, high, rng.integers(0, 1000, n, dtype=np.uint64))
    if kind == "bool":
        return rng.random(n) < 0.5
    # a list column, as gen-recover's s_catalog or embed-error's bound_satisfied,
    # with Python and numpy scalars
    floats = _float_column(rng, n)
    pool = ("", "ok", "DomainEscape", "domain_escape@12")
    return [[pool[i % 4], float(floats[i]), floats[i], i - 7, bool(i % 2), np.int64(7 - i),
             np.bool_(i % 3)][c] for i, c in enumerate(rng.integers(0, 7, n))]


class TestCsvWriter:
    """The column writer against the frozen row writer, byte for byte."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(kinds=st.lists(st.sampled_from(["float", "float32", "int", "uint", "bool",
                                           "mixed"]), min_size=1, max_size=5),
           n=st.sampled_from([0, 1, CSV_BLOCK - 1, CSV_BLOCK, CSV_BLOCK + 1])
           | st.integers(0, 30),
           seed=st.integers(0, 2**32 - 1))
    def test_columns_give_the_row_writer_bytes(self, kinds, n, seed):
        rng = np.random.default_rng(seed)
        columns = [_random_column(rng, kind, n) for kind in kinds]
        header = [f"c{j}" for j in range(len(kinds))]
        with tempfile.TemporaryDirectory() as tmp:
            got = pathlib.Path(write_csv(os.path.join(tmp, "cols.csv"), header, columns))
            want = pathlib.Path(write_csv_rows(os.path.join(tmp, "rows.csv"), header,
                                               [list(row) for row in zip(*columns)]))
            assert got.read_bytes() == want.read_bytes()

    def test_every_line_is_the_percent_format(self, tmp_path):
        # 10^5 values of each kind, every block mixing values the writer
        # formats itself with those it leaves to `fmt` (nan, inf, zero,
        # subnormal, tiny and huge floats)
        rng = np.random.default_rng(33)
        n = 100_000
        kinds = ("float", "float32", "int", "uint", "bool")
        columns = [_random_column(rng, kind, n) for kind in kinds]
        path = write_csv(str(tmp_path / "c.csv"), list(kinds), columns)
        lines = pathlib.Path(path).read_bytes().decode().split("\n")
        assert lines[0] == ",".join(kinds) and lines[-1] == ""
        line = "%.17g,%.17g,%d,%d,%d"
        for got, row in zip(lines[1:-1], zip(*(col.tolist() for col in columns)), strict=True):
            assert got == line % row

    def test_columns_of_unequal_length_raise(self, tmp_path):
        with pytest.raises(ValueError):
            write_csv(str(tmp_path / "c.csv"), ["a", "b"], [np.arange(3), [1.0, 2.0]])


class TestIntegrableExample:
    def test_twist_stability_all_zero(self, tmp_path):
        cfg = {"map": {"name": "twist", "eps": 0.0}, "seed": 3,
               "stability": {"seeds": 4, "horizon": 100, "pilot_horizon": 50}}
        path = write_cfg(tmp_path, "c.json", cfg)
        out = tmp_path / "o"
        assert run("stability", path, out=str(out)) == 0
        rows = (out / "stability.csv").read_text().strip().splitlines()[1:]
        assert all(float(r.split(",")[3]) == 0.0 for r in rows)


def _workloads():
    """perfbench/workloads.py, executed from its source without writing a bytecode cache."""
    path = ROOT / "perfbench" / "workloads.py"
    module = types.ModuleType("perfbench_workloads")
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return module


def _shipped_configs():
    found = []
    for path in sorted((ROOT / "scripts" / "configs").glob("*.json")):
        cfg = json.loads(path.read_text())
        found += [(path.name, command, cfg) for command in COMMANDS if command in cfg]
    workloads = _workloads()
    for name in workloads.WORKLOADS:
        for seed in (1, 2, 3):
            found += [(f"{name}:{seed}", command, cfg)
                      for command, cfg in workloads.configs(name, seed)]
    return found


#: the README table's value cell of each SCHEMA kind with a fixed wording,
#: given the rule's bound
README_VALUES = {"string": "non-empty string", "orders": "non-empty list of orders",
                 "vector": "{}-vector", "vectors": "non-empty list of {}-vectors",
                 "modes": "non-empty list of nonzero integer {}-vectors"}


class TestSchema:
    def test_accepts_every_shipped_config(self):
        shipped = _shipped_configs()
        assert sum(1 for name, _, _ in shipped if name.endswith(".json")) == 8
        for name, command, cfg in shipped:
            checked = validate(command, cfg, build_model(cfg))
            assert set(checked[command]) == set(SCHEMA[command]), name

    def test_readme_table_lists_the_schema_keys(self):
        text = (ROOT / "README.md").read_text()
        section = text[text.index("### Config schema"):]
        section = section[:section.index("\n## ")]
        listed = {}
        for line in section.splitlines():
            cells = [c.strip() for c in line.split("|")[1:-1]]
            if len(cells) == 4 and cells[1].startswith("`"):
                block = "config" if cells[0] == "top level" else cells[0].strip("`")
                listed.setdefault(block, {})[cells[1].strip("`")] = cells[2:]
        assert ({block: set(keys) for block, keys in listed.items()}
                == {block: set(table) for block, table in SCHEMA.items()})
        for block, table in SCHEMA.items():
            for key, rule in table.items():
                value, default = listed[block][key]
                path = key if block == "config" else f"{block}.{key}"
                if rule.kind == "enum":
                    choices = [f'`"{c}"`' for c in rule.bound]
                    assert value == f"{', '.join(choices[:-1])} or {choices[-1]}", path
                elif rule.kind == "block":  # a nested table, or a block used in several
                    assert value == ("object" if rule.bound == path
                                     else f"`{rule.bound}` object"), path
                elif rule.kind in ("int", "number"):
                    kind = "integer" if rule.kind == "int" else "number"
                    assert value.startswith(f"{kind} {rule.bound or ''}".rstrip()), path
                else:
                    assert value == README_VALUES[rule.kind].format(rule.bound), path
                if rule.default is REQUIRED:
                    assert default == "required", path
                elif rule.default is None:  # the runner derives it: the table says how
                    assert not default.startswith("required"), path
                elif rule.kind in ("int", "number"):
                    assert float(default.split()[0]) == rule.default, path
                else:
                    assert default == f"`{json.dumps(rule.default)}`", path


def test_readme_quick_start_runs(capsys):
    text = (ROOT / "README.md").read_text()
    start = text.index("```python\n") + len("```python\n")
    code = text[start:text.index("```", start)]
    exec(compile(code, "README.md quick start", "exec"), {})
    max_error, bound = map(float, capsys.readouterr().out.split())
    assert max_error <= bound


def test_import_leaves_scipy_out():
    code = ("import sys, mapflow.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"


def test_import_leaves_pool_and_random_out():
    # a one-worker run needs neither; the runners import them when they do
    code = ("import sys, mapflow.cli; print(sorted({'concurrent.futures.process', "
            "'multiprocessing', 'numpy.random'} & set(sys.modules)))")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"


def _child(code: str, **env) -> str:
    """stdout of a fresh interpreter running code on this checkout's src/."""
    base = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    return subprocess.run([sys.executable, "-c", code],
                          env={**base, "PYTHONPATH": str(ROOT / "src"), **env},
                          capture_output=True, text=True, check=True, timeout=60).stdout


def test_import_cli_loads_only_the_config_layers():
    # each runner imports the layers it runs: validating a config needs none of
    # hamiltonian, experiments and nucleus
    code = "import sys, mapflow.cli; print(sorted(m for m in sys.modules if 'mapflow' in m))"
    assert eval(_child(code)) == ["mapflow", "mapflow.cli", "mapflow.errors", "mapflow.interp",
                                  "mapflow.maps", "mapflow.resonance"]


def test_import_experiments_leaves_hamiltonian_out():
    # a stability scan needs none of hamiltonian: its functions import it
    code = "import sys, mapflow.experiments; print('mapflow.hamiltonian' in sys.modules)"
    assert _child(code).strip() == "False"


def test_import_mapflow_loads_no_numpy():
    # the package resolves its names lazily, so importing it sets no BLAS threading
    code = ("import sys, mapflow; "
            "print(sorted(m for m in sys.modules if m.startswith(('numpy', 'mapflow.'))))")
    assert _child(code).strip() == "[]"


#: the public names of `mapflow`, as they were when its imports became lazy
PUBLIC = [
    "AprioriMargins", "BlockMap", "Box", "CoveringParams", "DomainSpec", "DriftReport",
    "EmbeddingReport", "FitReport", "HamiltonianField", "Loop", "MapModel", "NucleusModel",
    "ResonanceSite", "StabilityRecord", "apriori_check", "build_nucleus", "c4_estimate",
    "catalog", "circle_loop", "covering_params", "default_delta", "dirichlet",
    "distance_to_identity", "embedding_error", "energy_drift", "error_law_fit", "errors",
    "experiments", "finite_differences", "fit_log_law", "flow_map", "h2_closed_form",
    "hamiltonian", "interp", "interpolating_field", "interpolating_vf", "is_resonant_mode",
    "jacobian", "locate_site", "loop_action", "maps", "near_identity_family", "newton_weights",
    "nonexact_shear", "nucleus", "nucleus_energy", "nucleus_radii", "optimal_order",
    "orbit_window", "order_scaling_check", "pilot_confinement", "reconstruct_hamiltonian",
    "recover_generating", "resonance", "resonant_action", "resonant_average",
    "resonant_fourier_check", "scaled_block", "sn_decomposition", "stability_scan",
    "symmetry_defect", "symplectic_matrix", "trapped_orbit", "unit_box"]


def test_public_names_resolve():
    code = ("import types, mapflow\n"
            "print(mapflow.__all__)\n"
            "vals = {n: getattr(mapflow, n) for n in mapflow.__all__}\n"
            "print(sorted(n for n, v in vals.items() if isinstance(v, types.ModuleType)))\n"
            "print(set(mapflow.__all__) <= set(dir(mapflow)))")
    names, modules, listed = _child(code).splitlines()
    assert eval(names) == PUBLIC and len(PUBLIC) == 64
    assert eval(modules) == ["errors", "experiments", "hamiltonian", "interp", "maps",
                             "nucleus", "resonance"]
    assert listed == "True"


@pytest.mark.parametrize("given, want", [(None, "1"), ("3", "3")])
def test_cli_pins_blas_threads_unless_set(given, want):
    code = "import os, mapflow.cli; print(os.environ['OPENBLAS_NUM_THREADS'])"
    env = {} if given is None else {"OPENBLAS_NUM_THREADS": given}
    assert _child(code, **env).strip() == want


# small configs for the fuzz test; each run takes well under a second
FUZZ_BASES = {"embed-error": EMBED, "nucleus": NUCLEUS, "energy": ENERGY,
              "stability": STABILITY, "resonance": RESONANCE, "interp": INTERP,
              "gen-recover": GEN_RECOVER}
FUZZ_POOL = ["x", "", True, False, None, 0, -1, 0.5, [], [[]], {}, [0.1, 0.2, 0.3],
             [[0.1, 0.2, 0.3]], TWIST0]


def _key_paths(node, prefix=()):
    for key, val in node.items():
        yield prefix + (key,)
        if isinstance(val, dict):
            yield from _key_paths(val, prefix + (key,))


@st.composite
def _mutated_config(draw):
    command = draw(st.sampled_from(sorted(FUZZ_BASES)))
    cfg = base_cfg(**{command: copy.deepcopy(FUZZ_BASES[command])})
    *parents, key = draw(st.sampled_from(sorted(_key_paths(cfg))))
    node = cfg
    for parent in parents:
        node = node[parent]
    node[key] = copy.deepcopy(draw(st.sampled_from(FUZZ_POOL)))
    return command, cfg


class TestNoTraceback:
    @settings(max_examples=300, derandomize=True, deadline=None, database=None)
    @given(_mutated_config())
    def test_one_bad_key_never_raises(self, case):
        command, cfg = case
        with tempfile.TemporaryDirectory() as tmp:
            tmp = pathlib.Path(tmp)
            code = run(command, write_cfg(tmp, "c.json", cfg), out=str(tmp / "o"), workers=1)
            assert code in (0, 2, 3)
            if code == 2:
                assert not (tmp / "o").exists()
