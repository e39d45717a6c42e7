"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  All tolerances are pinned here; nothing is deferred to calibration.
"""

import json
import math
import os
import pathlib
import subprocess
import sys
import time

import numpy as np
import pytest

import mapflow
from mapflow import (
    Box,
    ResonanceSite,
    apriori_check,
    build_nucleus,
    catalog,
    circle_loop,
    covering_params,
    dirichlet,
    distance_to_identity,
    embedding_error,
    energy_drift,
    error_law_fit,
    interpolating_field,
    interpolating_vf,
    is_resonant_mode,
    locate_site,
    loop_action,
    near_identity_family,
    newton_weights,
    nonexact_shear,
    optimal_order,
    order_scaling_check,
    reconstruct_hamiltonian,
    recover_generating,
    resonant_average,
    resonant_fourier_check,
    scaled_block,
    symmetry_defect,
    trapped_orbit,
    unit_box,
)
from mapflow.cli import run as cli_run
from mapflow.interp import field_from_window
from mapflow.hamiltonian import _staircase_integral

from oracles import binomial_weights

TWO_PI = 2 * math.pi
DELTA = 0.5
CONFIGS = pathlib.Path(__file__).parent.parent / "scripts" / "configs"


def _report(num, ok, limit_s, elapsed, detail):
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {num:02d} {status} [{elapsed:.1f}s/{limit_s:.0f}s] {detail}")
    assert ok, f"criterion {num} failed: {detail}"
    assert elapsed < limit_s, f"criterion {num} exceeded runtime limit"


def std_site(eps, gamma=2.0):
    return ResonanceSite(n=1, omega_star=[0.0], I_star=[0.0],
                         rho_n=gamma * eps**0.25)


def nucleus_block(eps):
    return scaled_block(catalog("standard", eps), std_site(eps), scaling="nucleus")


# ---------------------------------------------------------------------------
# shared expensive artifacts
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def embed_reports():
    """Criterion 4 data: block at eps=1e-4 (eps_hat ~ 1e-2), m = 1..5."""
    t0 = time.perf_counter()
    blk = nucleus_block(1e-4)
    box = unit_box(1)
    reports = [embedding_error(blk, m, box, 5, tol=1e-12, delta=DELTA)
               for m in range(1, 6)]
    return {"blk": blk, "box": box, "reports": reports,
            "elapsed": time.perf_counter() - t0}


@pytest.fixture(scope="module")
def cli_runs(tmp_path_factory):
    """CLI outputs for criteria 13-15: each config at workers 1 and 8, run
    together: the workers-8 run in a child process (this checkout's mapflow
    first on its PYTHONPATH), the workers-1 run in this process meanwhile.
    A run's elapsed time ends when this process has seen it end, so the
    child's time is at least its own."""
    root = tmp_path_factory.mktemp("acceptance_cli")
    jobs = {
        "embed": ("embed-error", CONFIGS / "embed_standard.json"),
        "nucleus": ("nucleus", CONFIGS / "nucleus_standard.json"),
        "stab_std": ("stability", CONFIGS / "stability_standard.json"),
        "stab_fro": ("stability", CONFIGS / "stability_froeschle.json"),
    }
    src = str(pathlib.Path(mapflow.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    out = {"elapsed": {}}
    for key, (command, cfg) in jobs.items():
        w1, w8 = root / f"{key}_w1", root / f"{key}_w8"
        with open(root / f"{key}_w8.log", "w") as log:
            t0 = time.perf_counter()
            child = subprocess.Popen([sys.executable, "-m", "mapflow.cli", command, "--config",
                                      str(cfg), "--out", str(w8), "--workers", "8"],
                                     env=env, stdout=log, stderr=subprocess.STDOUT)
            try:
                code = cli_run(command, str(cfg), out=str(w1), workers=1)
                out["elapsed"][f"{key}_w1"] = time.perf_counter() - t0
            finally:
                child_code = child.wait()
            out["elapsed"][f"{key}_w8"] = time.perf_counter() - t0
        assert code == 0, f"CLI {command} ({key}, workers=1) exited {code}"
        assert child_code == 0, (f"CLI {command} ({key}, workers=8) exited {child_code}: "
                                 + (root / f"{key}_w8.log").read_text()[-2000:])
        out[f"{key}_w1"], out[f"{key}_w8"] = w1, w8
    return out


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

def test_criterion_01_weight_oracle():
    t0 = time.perf_counter()
    worst = 0.0
    for m in range(1, 13):
        w = newton_weights(m)
        worst = max(worst, float(np.max(np.abs(w - binomial_weights(m)))))
        worst = max(worst, abs(float(w.sum())))
        worst = max(worst, abs(float(np.dot(np.arange(m + 1), w)) - 1.0))
    ok = worst <= 1e-12
    _report(1, ok, 1.0, time.perf_counter() - t0,
            f"weights m=1..12 vs binomial oracle, worst dev {worst:.2e} <= 1e-12")


def test_criterion_02_polynomial_exactness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(100):
        m = int(rng.integers(1, 11))
        deg = int(rng.integers(0, m + 1))
        coeffs = rng.uniform(-1, 1, (deg + 1, 2))
        pts = np.array([sum(c * k**j for j, c in enumerate(coeffs))
                        for k in range(m + 1)])
        got = field_from_window(pts)
        want = coeffs[1] if deg >= 1 else np.zeros(2)
        scale = max(1.0, float(np.max(np.abs(pts))))  # relative to orbit size
        worst = max(worst, float(np.max(np.abs(got - want))) / scale)
    gauss_dev = 0.0
    for _ in range(20):
        pts = rng.uniform(-1, 1, (3, 4))
        got = field_from_window(pts, "gauss")
        gauss_dev = max(gauss_dev, float(np.max(np.abs(got - 0.5 * (pts[2] - pts[0])))))
    ok = worst <= 1e-9 and gauss_dev <= 1e-14
    _report(2, ok, 1.0, time.perf_counter() - t0,
            f"poly orbits rel dev {worst:.2e} <= 1e-9, gauss m=2 dev {gauss_dev:.2e} <= 1e-14")


def test_criterion_03_order_scaling():
    t0 = time.perf_counter()
    fam = near_identity_family(catalog("standard", 0.5))
    grid = [1e-2, 5e-3, 2.5e-3, 1.25e-3]
    x0 = np.array([0.3, 0.11])
    slopes = {}
    ok = True
    for m in (1, 2, 3):
        fit = order_scaling_check(fam, x0, m, grid)
        slopes[m] = fit.slope
        ok = ok and abs(fit.slope - (m + 1)) <= 0.2
    _report(3, ok, 10.0, time.perf_counter() - t0,
            "slopes " + ", ".join(f"m={m}: {s:.3f} (want {m+1}+-0.2)"
                                  for m, s in slopes.items()))


def test_criterion_04_embedding_inequalities(embed_reports):
    t0 = time.perf_counter()
    blk, box, reports = embed_reports["blk"], embed_reports["box"], embed_reports["reports"]
    eh = reports[0].eps_hat
    ok = True
    notes = []
    for rep, m in zip(reports, range(1, 6)):
        xnorm = max(float(np.max(np.abs(interpolating_vf(blk, x, m))))
                    for x in box.grid(5))
        ok = ok and xnorm <= 2.0 * eh
        if rep.precondition_ok:
            ok = ok and bool(rep.bound_satisfied)
    errs = np.array([r.max_error for r in reports])
    ratios = errs[1:] / errs[:-1]
    ok = ok and bool(np.all(np.diff(errs) < 0)) and bool(np.all(ratios <= 0.2))
    notes.append(f"eps_hat={eh:.3g}")
    notes.append("errs " + "/".join(f"{e:.1e}" for e in errs))
    notes.append("ratios<=0.2: " + ",".join(f"{r:.3f}" for r in ratios))
    elapsed = embed_reports["elapsed"] + (time.perf_counter() - t0)
    _report(4, ok, 120.0, elapsed, "; ".join(notes))


def test_criterion_05_exponential_law():
    t0 = time.perf_counter()
    blocks = [nucleus_block(eps) for eps in (4e-4, 1e-4, 2.5e-5, 6.25e-6)]
    box = unit_box(1)
    tol = 1e-13
    rep = error_law_fit(blocks, box, "vs_eps", grid_n=5, tol=tol,
                        delta=DELTA, floor=10 * tol)
    targets = np.array([0.02, 0.01, 0.005, 0.0025])
    eps_hats = np.array([r.eps_hat for r in rep.reports])
    ok = (not rep.degenerate and rep.slope < 0 and rep.r_squared >= 0.98
          and bool(np.all(np.abs(eps_hats / targets - 1.0) < 0.1)))
    _report(5, ok, 300.0, time.perf_counter() - t0,
            f"log(err) vs 1/eps_hat: slope={rep.slope:.4f}<0, R^2={rep.r_squared:.4f}"
            f">=0.98, floored pts excluded={rep.n_excluded}")


def test_criterion_06_hamiltonian_ness(embed_reports):
    t0 = time.perf_counter()
    blk, reports = embed_reports["blk"], embed_reports["reports"]
    eh = reports[0].eps_hat
    m_opt = optimal_order(DELTA, eh, 1).m
    x = np.array([0.37, 0.21])
    defects = [symmetry_defect(interpolating_field(blk, m), x) for m in range(1, 6)]
    err_opt = reports[m_opt - 1].max_error
    ok = defects[m_opt - 1] <= 100.0 * err_opt
    ok = ok and all(defects[i + 1] < defects[i] for i in range(len(defects) - 1))
    # path independence at an order where the defect reaches the floor
    quad_tol = 1e-11
    X6 = interpolating_field(blk, 6)
    base = np.zeros(2)
    q = np.array([0.31, 0.62])
    a = _staircase_integral(X6, base, q, 1, quad_tol)
    mid = np.array([0.0, q[1]])
    b = (_staircase_integral(X6, base, mid, 1, quad_tol)
         + _staircase_integral(X6, mid, q, 1, quad_tol))
    path_dev = abs(a - b)
    ok = ok and path_dev <= 10 * quad_tol
    _report(6, ok, 120.0, time.perf_counter() - t0,
            f"defect(m_opt={m_opt})={defects[m_opt-1]:.2e} <= 100*err={100*err_opt:.2e}; "
            f"monotone {['%.1e' % d for d in defects]}; path dev {path_dev:.1e} <= 1e-10")


def test_criterion_07_h2_closed_form():
    t0 = time.perf_counter()
    eps0 = 0.5
    fam = near_identity_family(catalog("standard", eps0))
    base = np.array([0.05, 0.0])
    queries = [np.array([0.3, 0.2]), np.array([-0.2, 0.7]), np.array([0.15, 0.45])]
    mus = np.array([0.02, 0.01, 0.005, 0.0025])
    sups = []
    from mapflow import h2_closed_form

    for mu in mus:
        fmu = fam(float(mu))
        X2 = interpolating_field(fmu, 2)
        H = reconstruct_hamiltonian(X2, base, quad_tol=1e-12)

        def S(x, mu=mu):
            return mu * (x[0] ** 2 / 2 - eps0 * np.cos(TWO_PI * x[1]) / TWO_PI**2)

        def grad(x, mu=mu):
            return np.array([mu * x[0], mu * eps0 * np.sin(TWO_PI * x[1]) / TWO_PI])

        ref0 = h2_closed_form(S, grad, base)
        sups.append(max(abs(H.evaluate(q) - (h2_closed_form(S, grad, q) - ref0))
                        for q in queries))
    slope = float(np.polyfit(np.log(mus), np.log(sups), 1)[0])
    ok = slope >= 2.8
    _report(7, ok, 60.0, time.perf_counter() - t0,
            f"|H_rec(X_2) - H_2| sweep slope {slope:.3f} >= 2.8")


def test_criterion_08_energy_drift():
    t0 = time.perf_counter()
    eps = 8e-5
    model = catalog("standard", eps)
    site = std_site(eps)
    blk = scaled_block(model, site, "nucleus")
    eh = distance_to_identity(blk, unit_box(1), 5)
    m_opt = optimal_order(DELTA, eh, 1).m
    x0 = np.array([0.2, 0.13])
    r1 = energy_drift(model, site, 1, 30, x0, "nucleus", quad_tol=1e-12)
    ro = energy_drift(model, site, m_opt, 30, x0, "nucleus", quad_tol=1e-12)
    ratio = ro.max_increment / r1.max_increment
    ok = (ratio <= 1e-2 and r1.identity_residual <= 1e-12
          and ro.identity_residual <= 1e-12)
    _report(8, ok, 120.0, time.perf_counter() - t0,
            f"eps_hat={eh:.3g}, m_opt={m_opt}: Mhat({m_opt})/Mhat(1)={ratio:.4f} <= 0.01, "
            f"telescoping residual {max(r1.identity_residual, ro.identity_residual):.1e} <= 1e-12")


def test_criterion_09_dirichlet():
    t0 = time.perf_counter()
    rng = np.random.default_rng(99)
    ok = True
    for d in (1, 2, 3):
        for _ in range(100):
            omega = rng.uniform(-2, 2, d)
            N = float(rng.uniform(2.0, 50.0))
            n, ws = dirichlet(omega, N)
            # independent recomputation of the certificate
            ok = ok and n < N
            ok = ok and np.max(np.abs(n * ws - np.round(n * ws))) <= 1e-9
            ok = ok and np.max(np.abs(omega - ws)) < 1.0 / (n * N ** (1.0 / d)) + 1e-12
    n, ws = dirichlet(np.array([(math.sqrt(5) - 1) / 2]), 5)
    ok = ok and n == 3 and abs(ws[0] - 2.0 / 3.0) < 1e-15
    _report(9, ok, 1.0, time.perf_counter() - t0,
            f"300 random certificates verified; golden mean -> n={n}, w*={ws[0]:.6f}")


def test_criterion_10_covering():
    t0 = time.perf_counter()
    eps = 1e-4
    m = catalog("standard", eps)
    cp = covering_params(m, eps, 2.0)
    rng = np.random.default_rng(1234)
    worst_margin = np.inf
    ok = True
    for _ in range(100):
        I0 = rng.uniform(-0.9, 0.9, 1)
        site = locate_site(m, I0, gamma=2.0)
        bound = math.sqrt(m.d) / (m.domain.nu * site.n * cp.N_eps ** (1.0 / m.d))
        dev = float(np.max(np.abs(I0 - site.I_star)))
        ok = ok and dev < bound
        worst_margin = min(worst_margin, bound - dev)
    _report(10, ok, 5.0, time.perf_counter() - t0,
            f"100 sites inside sqrt(d)/(nu n N^(1/d)); min margin {worst_margin:.2e}")


def test_criterion_11_apriori_bounds():
    t0 = time.perf_counter()
    rng = np.random.default_rng(4321)
    ok = True
    for trial in range(1000):
        if trial % 2 == 0:
            model = catalog("standard", float(rng.uniform(1e-5, 0.05)))
        else:
            model = catalog("froeschle2", float(rng.uniform(1e-5, 0.05)), eta=0.3)
        x0 = np.concatenate([rng.uniform(-0.3, 0.3, model.d), rng.uniform(0, 1, model.d)])
        n = int(rng.integers(1, 101))
        rep = apriori_check(model, x0, n)
        ok = ok and rep.ok
    _report(11, ok, 30.0, time.perf_counter() - t0,
            "1000 random orbits satisfy both displayed bounds with catalog C1, C2")


def test_criterion_12_exactness():
    t0 = time.perf_counter()
    quad_tol = 1e-11
    ok = True
    notes = []
    A0, A1 = loop_action(catalog("standard", 0.2), circle_loop(np.array([0.3])), quad_tol)
    ok = ok and abs(A1 - A0) <= 10 * quad_tol
    notes.append(f"std loop defect {abs(A1 - A0):.1e}")
    fro = catalog("froeschle2", 0.1, eta=0.3)
    for w in ([1.0, 0.0], [0.0, 1.0]):
        A0, A1 = loop_action(fro, circle_loop(np.array([0.2, -0.1]), winding=np.array(w)),
                             quad_tol)
        ok = ok and abs(A1 - A0) <= 10 * quad_tol
    eps = 0.05
    A0, A1 = loop_action(nonexact_shear(eps), circle_loop(np.array([0.3])), quad_tol)
    ok = ok and abs((A1 - A0) - eps) <= 10 * quad_tol
    notes.append(f"nonexact defect-eps {abs((A1 - A0) - eps):.1e}")
    m = catalog("standard", 0.2)
    base = np.zeros(2)
    worst = 0.0
    for pbar in (-0.3, 0.2, 0.5):
        for q in (0.05, 0.3, 0.8):
            got = recover_generating(m, base, np.array([pbar, q]), quad_tol=1e-12)
            want = (pbar**2 / 2 - 0.2 * np.cos(TWO_PI * q) / TWO_PI**2) - (-0.2 / TWO_PI**2)
            worst = max(worst, abs(got - want))
    ok = ok and worst <= 1e-8
    notes.append(f"recovered s dev {worst:.1e} <= 1e-8")
    _report(12, ok, 30.0, time.perf_counter() - t0, "; ".join(notes))


def test_criterion_13_nucleus(cli_runs):
    t0 = time.perf_counter()
    ok = True
    notes = []
    # translation invariance on 1000 random angles
    fro = catalog("froeschle2", 1e-3, eta=0.3)
    fro_site = ResonanceSite(n=2, omega_star=[0.5, 0.0], I_star=[0.5, 0.0], rho_n=0.1)
    rng = np.random.default_rng(7)
    phi = rng.uniform(0, 1, (1000, 2))
    inv_dev = float(np.max(np.abs(resonant_average(fro, fro_site, phi)
                                  - resonant_average(fro, fro_site, phi + fro_site.omega_star))))
    ok = ok and inv_dev <= 1e-10
    notes.append(f"V* shift dev {inv_dev:.1e}")
    # non-resonant Fourier coefficients vanish
    nm = build_nucleus(fro, fro_site)
    worst_coeff = 0.0
    for j in ([1, 0], [1, 1], [3, 0]):
        assert not is_resonant_mode(np.array(j), fro_site.omega_star)
        worst_coeff = max(worst_coeff, resonant_fourier_check(nm, np.array(j), 32))
    ok = ok and worst_coeff <= 1e-10 * fro.domain.norm_s
    notes.append(f"nonres fourier {worst_coeff:.1e}")
    # per-step slow-energy drift exponent over the eps sweep
    grid = [1e-3, 4e-4, 1.6e-4, 6.4e-5]
    drifts = []
    for eps in grid:
        model = catalog("standard", eps)
        rec = trapped_orbit(model, std_site(eps), np.array([0.1, 0.2]), 20000)
        ok = ok and not rec.escaped
        drifts.append(rec.max_step_dE)
    slope = float(np.polyfit(np.log(grid), np.log(drifts), 1)[0])
    ok = ok and slope >= 1.4
    notes.append(f"dE exponent {slope:.3f} >= 1.4")
    # long trapped run via the CLI config (budget 1e5 at eps = 1e-4)
    csv = (cli_runs["nucleus_w1"] / "nucleus.csv").read_text().strip().splitlines()
    ok = ok and len(csv) == 100002
    ok = ok and all(line.endswith(",0") for line in csv[1:])
    notes.append("no exit in 1e5 blocks")
    elapsed = (time.perf_counter() - t0) + cli_runs["elapsed"]["nucleus_w1"]
    _report(13, ok, 600.0, elapsed, "; ".join(notes))


def _read_stability(outdir):
    lines = (outdir / "stability.csv").read_text().strip().splitlines()
    rows = [line.split(",") for line in lines[1:]]
    cal = (outdir / "stability_calibration.txt").read_text().splitlines()
    c1 = float(cal[0].split("=")[1])
    return rows, c1


def test_criterion_14_confinement_scan(cli_runs):
    t0 = time.perf_counter()
    ok = True
    notes = []
    for key, eps, expo, label in (("stab_std", 1e-3, 0.25, "standard"),
                                  ("stab_fro", 1e-3, 1.0 / 6.0, "froeschle2")):
        rows, c1 = _read_stability(cli_runs[f"{key}_w1"])
        # columns: ..., excursion, exit_index, max_step_drift, status
        exc = np.array([float(r[-4]) for r in rows])
        exits = [r[-3] for r in rows]
        statuses = [r[-1] for r in rows]
        threshold = c1 * eps**expo
        ok = ok and len(rows) == 100
        ok = ok and bool(np.max(exc) <= threshold)
        ok = ok and all(e == "-1" for e in exits)
        ok = ok and all(s == "ok" for s in statuses)
        notes.append(f"{label}: max exc {np.max(exc):.4g} <= c1*eps^{expo:.3g}"
                     f"={threshold:.4g}, zero escapes")
    elapsed = (time.perf_counter() - t0 + cli_runs["elapsed"]["stab_std_w1"]
               + cli_runs["elapsed"]["stab_fro_w1"])
    _report(14, ok, 900.0, elapsed, "; ".join(notes))


def test_criterion_15_determinism(cli_runs):
    t0 = time.perf_counter()
    ok = True
    notes = []
    for key, csvname in (("embed", "embed-error.csv"), ("nucleus", "nucleus.csv"),
                         ("stab_std", "stability.csv"), ("stab_fro", "stability.csv")):
        b1 = (cli_runs[f"{key}_w1"] / csvname).read_bytes()
        b8 = (cli_runs[f"{key}_w8"] / csvname).read_bytes()
        same = b1 == b8
        ok = ok and same
        notes.append(f"{key}: {'identical' if same else 'DIFFER'}")
    elapsed = (time.perf_counter() - t0
               + sum(v for k, v in cli_runs["elapsed"].items() if k.endswith("_w8")))
    _report(15, ok, 900.0, elapsed, "; ".join(notes))
