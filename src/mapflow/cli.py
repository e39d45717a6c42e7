"""Configuration-driven experiment runner.

Every subcommand reads a strict JSON config, runs one experiment and writes
a CSV (17-significant-digit floats, LF endings, stable column order) plus a
run manifest.  Identical config and seed give byte-identical CSV bodies
regardless of the worker count.

Exit codes: 0 success, 2 config/validation error (one-line message, no
CSV), 3 numerical failure (only the manifest is written, recording it).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from typing import Optional

import numpy as np

from . import __version__
from .errors import ConfigError, MapflowError
from .experiments import (
    energy_drift,
    pilot_confinement,
    stability_scan,
)
from .hamiltonian import default_delta, embedding_error, recover_generating, unit_box
from .interp import M_MAX, interpolating_vf
from .maps import MapModel, catalog
from .nucleus import build_nucleus, resonant_fourier_check, trapped_orbit
from .resonance import ResonanceSite, covering_params, dirichlet, resonant_action, scaled_block

COMMANDS = ("interp", "embed-error", "energy", "resonance", "nucleus",
            "stability", "gen-recover")


def fmt(x) -> str:
    """Canonical float formatting: 17 significant digits."""
    if isinstance(x, (bool, np.bool_)):
        return "1" if x else "0"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return f"{float(x):.17g}"


def write_csv(path: str, header: list[str], rows: list[list]) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(fmt(v) if not isinstance(v, str) else v for v in row) + "\n")


# ---------------------------------------------------------------------------
# strict config handling
# ---------------------------------------------------------------------------

def _require(cfg: dict, key: str, kind, where: str):
    if key not in cfg:
        raise ConfigError(f"missing key {key!r} in {where}")
    val = cfg[key]
    if kind is float and isinstance(val, (int, float)) and not isinstance(val, bool):
        return float(val)
    if kind is int and isinstance(val, int) and not isinstance(val, bool):
        return val
    if not isinstance(val, kind):
        raise ConfigError(f"key {key!r} in {where} must be {kind}, got {type(val).__name__}")
    return val


def _check_known(cfg: dict, allowed: set, where: str):
    unknown = set(cfg) - allowed
    if unknown:
        raise ConfigError(f"unknown keys {sorted(unknown)} in {where}")


def build_model(cfg: dict) -> MapModel:
    mp = _require(cfg, "map", dict, "config")
    _check_known(mp, {"name", "eps", "params"}, "map")
    name = _require(mp, "name", str, "map")
    eps = _require(mp, "eps", float, "map")
    params = mp.get("params", {})
    if not isinstance(params, dict):
        raise ConfigError("map.params must be an object")
    try:
        return catalog(name, eps, **params)
    except (ValueError, TypeError) as exc:
        raise ConfigError(str(exc)) from exc


def build_site(model: MapModel, cfg: dict) -> tuple[ResonanceSite, str]:
    _check_known(cfg, {"n", "omega_star", "gamma", "scaling", "I_guess"}, "site")
    n = _int_at_least(cfg, "n", 1, "site")
    omega_star = _vector(cfg, "omega_star", model.d, "site")
    gamma = float(cfg.get("gamma", 2.0))
    scaling = cfg.get("scaling", "nucleus")
    if scaling not in ("nucleus", "lochak"):
        raise ConfigError(f"site.scaling must be 'nucleus' or 'lochak', got {scaling!r}")
    I_guess = _vector(cfg, "I_guess", model.d, "site") if "I_guess" in cfg else omega_star
    I_star = resonant_action(model, omega_star, I_guess)
    cp = covering_params(model, model.eps, gamma) if model.eps > 0 else None
    rho_n = cp.rho_n(n) if cp else 1.0
    return ResonanceSite(n=n, omega_star=omega_star, I_star=I_star, rho_n=rho_n), scaling


def _int_at_least(cfg: dict, key: str, lo: int, where: str, default: Optional[int] = None):
    if default is not None and key not in cfg:
        return default
    val = _require(cfg, key, int, where)
    if val < lo:
        raise ConfigError(f"{where}.{key} must be an integer >= {lo}, got {val}")
    return val


def _orders(cfg: dict, where: str) -> list:
    m_list = _require(cfg, "m_list", list, where)
    for m in m_list:
        if isinstance(m, bool) or not isinstance(m, int) or not 1 <= m <= M_MAX:
            raise ConfigError(f"{where}.m_list entries must be integers in 1..{M_MAX}, "
                              f"got {m!r}")
    return m_list


def _vector(cfg: dict, key: str, n: int, where: str) -> np.ndarray:
    val = _require(cfg, key, list, where)
    if len(val) != n or not all(isinstance(v, (int, float)) and not isinstance(v, bool)
                                for v in val):
        raise ConfigError(f"{where}.{key} must be a list of {n} numbers")
    return np.asarray(val, dtype=float)


def _tolerances_positive(cfg: dict, keys: tuple, where: str):
    for k in keys:
        if k in cfg and (not isinstance(cfg[k], (int, float)) or cfg[k] <= 0):
            raise ConfigError(f"{where}.{k} must be a positive number")


# ---------------------------------------------------------------------------
# command implementations (top level for picklability)
# ---------------------------------------------------------------------------

def _embed_one(args):
    cfg, m = args
    model = build_model(cfg)
    block_cfg = cfg["embed-error"]
    site, scaling = build_site(model, block_cfg["site"])
    blk = scaled_block(model, site, scaling)
    box = unit_box(model.d, float(block_cfg.get("J_radius", 1.0)))
    delta = float(block_cfg.get("delta", default_delta(model.domain.r)))
    rep = embedding_error(blk, m, box, int(block_cfg.get("grid_n", 4)),
                          float(block_cfg.get("tol", 1e-12)), delta)
    row = [m, rep.eps_hat, rep.max_error, rep.bound, int(rep.precondition_ok),
           "" if rep.bound_satisfied is None else int(rep.bound_satisfied)]
    return row, len(rep.failures)


def run_embed_error(cfg: dict, out: str, workers: int) -> tuple[list[str], list[str]]:
    """Write embed-error.csv; returns its path and the manifest's flow_failures line."""
    sub = _require(cfg, "embed-error", dict, "config")
    _check_known(sub, {"m_list", "grid_n", "tol", "delta", "J_radius", "site"}, "embed-error")
    _tolerances_positive(sub, ("tol", "delta", "J_radius"), "embed-error")
    m_list = _orders(sub, "embed-error")
    _int_at_least(sub, "grid_n", 2, "embed-error", default=4)
    _require(sub, "site", dict, "embed-error")
    tasks = [(cfg, m) for m in m_list]
    if workers > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=workers) as ex:
            results = list(ex.map(_embed_one, tasks))
    else:
        results = [_embed_one(t) for t in tasks]
    results.sort(key=lambda r: r[0][0])
    path = os.path.join(out, "embed-error.csv")
    write_csv(path, ["m", "eps_hat", "max_error", "bound", "precondition_ok",
                     "bound_satisfied"], [row for row, _ in results])
    failures = " ".join(f"m{row[0]}={n}" for row, n in results)
    return [path], [f"flow_failures: {failures}"]


def run_interp(cfg: dict, out: str, workers: int) -> list[str]:
    sub = _require(cfg, "interp", dict, "config")
    _check_known(sub, {"points", "m_list", "scheme", "site"}, "interp")
    pts = _require(sub, "points", list, "interp")
    m_list = _orders(sub, "interp")
    scheme = sub.get("scheme", "newton")
    model = build_model(cfg)
    target = model
    if "site" in sub:
        site, scaling = build_site(model, sub["site"])
        target = scaled_block(model, site, scaling)
    rows = []
    d = model.d
    for i, p in enumerate(pts):
        x = np.asarray(p, dtype=float)
        if x.shape != (2 * d,):
            raise ConfigError(f"interp point {i} must have length {2 * d}")
        for m in m_list:
            try:
                X = interpolating_vf(target, x, m, scheme)
                rows.append(list(x) + [m, *X, "ok"])
            except MapflowError as exc:
                rows.append(list(x) + [m] + [float("nan")] * (2 * d)
                            + [type(exc).__name__])
    header = ([f"x{j}" for j in range(2 * d)] + ["m"]
              + [f"X{j}" for j in range(2 * d)] + ["status"])
    path = os.path.join(out, "interp.csv")
    write_csv(path, header, rows)
    return [path]


def run_energy(cfg: dict, out: str, workers: int) -> list[str]:
    sub = _require(cfg, "energy", dict, "config")
    _check_known(sub, {"m_list", "blocks", "x0", "quad_tol", "site"}, "energy")
    _tolerances_positive(sub, ("quad_tol",), "energy")
    model = build_model(cfg)
    m_list = _orders(sub, "energy")
    blocks = _int_at_least(sub, "blocks", 1, "energy")
    x0 = _vector(sub, "x0", 2 * model.d, "energy")
    site, scaling = build_site(model, _require(sub, "site", dict, "energy"))
    quad_tol = float(sub.get("quad_tol", 1e-12))
    rows = []
    for m in m_list:
        rep = energy_drift(model, site, m, blocks, x0, scaling, quad_tol)
        rows.append([m, blocks, rep.max_increment, rep.total, rep.identity_residual])
    path = os.path.join(out, "energy.csv")
    write_csv(path, ["m", "blocks", "max_increment", "total", "identity_residual"], rows)
    return [path]


def run_resonance(cfg: dict, out: str, workers: int,
                  rng: Optional[np.random.Generator]) -> list[str]:
    sub = _require(cfg, "resonance", dict, "config")
    _check_known(sub, {"count", "N", "gamma", "I_box", "I0_list"}, "resonance")
    model = build_model(cfg)
    gamma = float(sub.get("gamma", 2.0))
    I_box = float(sub.get("I_box", 0.9))
    cp = covering_params(model, model.eps, gamma)
    N = float(sub["N"]) if sub.get("N") is not None else cp.N_eps
    d = model.d
    if "I0_list" in sub:
        seeds = np.asarray(sub["I0_list"], dtype=float).reshape(-1, d)
    else:
        count = _int_at_least(sub, "count", 1, "resonance")
        if rng is None:
            raise ConfigError("resonance with random seeds requires an RNG seed")
        seeds = rng.uniform(-I_box / np.sqrt(d), I_box / np.sqrt(d), size=(count, d))
    rows = []
    for I0 in seeds:
        omega0 = model.omega(I0)
        n, omega_star = dirichlet(omega0, N)
        I_star = resonant_action(model, omega_star, I0)
        err = float(np.max(np.abs(omega0 - omega_star)))
        rows.append([n, *omega_star, *I_star, cp.rho_n(n), err])
    header = (["n"] + [f"omega_star{j}" for j in range(d)]
              + [f"I_star{j}" for j in range(d)] + ["rho_n", "dirichlet_error"])
    path = os.path.join(out, "resonance.csv")
    write_csv(path, header, rows)
    return [path]


def run_nucleus(cfg: dict, out: str, workers: int) -> list[str]:
    sub = _require(cfg, "nucleus", dict, "config")
    _check_known(sub, {"J0", "phi0", "budget", "site", "fourier_modes", "quad_n",
                       "record_every"}, "nucleus")
    model = build_model(cfg)
    site, _ = build_site(model, _require(sub, "site", dict, "nucleus"))
    J0 = _vector(sub, "J0", model.d, "nucleus")
    phi0 = _vector(sub, "phi0", model.d, "nucleus")
    budget = _int_at_least(sub, "budget", 0, "nucleus")
    every = _int_at_least(sub, "record_every", 1, "nucleus", default=1)
    nm = build_nucleus(model, site)
    rec = trapped_orbit(model, site, J0, phi0, budget, nmodel=nm)
    rows = []
    d = model.d
    for k in range(0, rec.J.shape[0], every):
        exited = int(rec.exit_index is not None and k >= rec.exit_index)
        rows.append([k, *rec.J[k], rec.energy[k], exited])
    header = ["k"] + [f"J{j}" for j in range(d)] + ["E", "exited"]
    paths = [os.path.join(out, "nucleus.csv")]
    write_csv(paths[0], header, rows)
    modes = sub.get("fourier_modes")
    if modes:
        quad_n = int(sub.get("quad_n", 64))
        frows = []
        for mode in modes:
            j = np.asarray(mode, dtype=int)
            mag = resonant_fourier_check(nm, j, quad_n)
            res = float(np.dot(j, site.omega_star))
            frows.append([*j, mag, int(abs(res - round(res)) <= 1e-9)])
        fheader = [f"j{i}" for i in range(d)] + ["magnitude", "resonant"]
        fpath = os.path.join(out, "nucleus_fourier.csv")
        write_csv(fpath, fheader, frows)
        paths.append(fpath)
    return paths


def _stability_chunk(args):
    cfg, I0_list, phi0_list, radius, lo = args
    model = build_model(cfg)
    sub = cfg["stability"]
    recs = stability_scan(model, np.asarray(I0_list), np.asarray(phi0_list),
                          int(sub["horizon"]), radius)
    return [(lo + r.seed_index, r) for r in recs]


def run_stability(cfg: dict, out: str, workers: int, rng: np.random.Generator) -> list[str]:
    sub = _require(cfg, "stability", dict, "config")
    _check_known(sub, {"seeds", "horizon", "I_box", "confinement_radius",
                       "pilot_horizon"}, "stability")
    model = build_model(cfg)
    nseeds = _int_at_least(sub, "seeds", 1, "stability")
    horizon = _int_at_least(sub, "horizon", 1, "stability")
    I_box = float(sub.get("I_box", 0.9))
    d = model.d
    I0 = rng.uniform(-I_box / np.sqrt(d), I_box / np.sqrt(d), size=(nseeds, d))
    phi0 = rng.uniform(0.0, 1.0, size=(nseeds, d))
    radius = sub.get("confinement_radius")
    pilot_c1 = float("nan")
    if radius is None:
        cal = pilot_confinement(model, horizon=int(sub.get("pilot_horizon", 20000)))
        pilot_c1 = cal.c1
        radius = 2.0 * cal.radius(model.eps) if cal.c1 > 0 else None
    # chunk granularity: at least 50 seeds per worker chunk so that chunked
    # runs do not multiply the per-step vector-dispatch overhead; per-seed
    # trajectories are element-wise, so results are chunking-independent
    k = max(1, min(workers, nseeds // 50 or 1))
    chunks = []
    bounds = np.linspace(0, nseeds, k + 1, dtype=int)
    for i in range(k):
        lo, hi = bounds[i], bounds[i + 1]
        if hi > lo:
            chunks.append((cfg, I0[lo:hi].tolist(), phi0[lo:hi].tolist(), radius, int(lo)))
    if workers > 1 and len(chunks) > 1:
        with ProcessPoolExecutor(max_workers=workers) as ex:
            results = [r for part in ex.map(_stability_chunk, chunks) for r in part]
    else:
        results = [r for ch in chunks for r in _stability_chunk(ch)]
    results.sort(key=lambda t: t[0])
    rows = []
    for idx, r in results:
        rows.append([idx, *r.I0, *r.phi0, r.excursion,
                     -1 if r.exit_index is None else r.exit_index,
                     r.max_step_drift, r.status])
    header = (["seed"] + [f"I0_{j}" for j in range(d)] + [f"phi0_{j}" for j in range(d)]
              + ["excursion", "exit_index", "max_step_drift", "status"])
    path = os.path.join(out, "stability.csv")
    write_csv(path, header, rows)
    meta = os.path.join(out, "stability_calibration.txt")
    with open(meta, "w") as fh:
        fh.write(f"pilot_c1 = {fmt(pilot_c1)}\n")
        fh.write(f"confinement_radius = {fmt(radius) if radius is not None else 'none'}\n")
    return [path, meta]


def run_gen_recover(cfg: dict, out: str, workers: int) -> list[str]:
    sub = _require(cfg, "gen-recover", dict, "config")
    _check_known(sub, {"base", "grid_n", "J_radius", "quad_tol"}, "gen-recover")
    _tolerances_positive(sub, ("quad_tol", "J_radius"), "gen-recover")
    model = build_model(cfg)
    base = _vector(sub, "base", 2 * model.d, "gen-recover")
    grid_n = _int_at_least(sub, "grid_n", 2, "gen-recover", default=5)
    J_radius = float(sub.get("J_radius", 0.4))
    quad_tol = float(sub.get("quad_tol", 1e-11))
    box = unit_box(model.d, J_radius)
    pts = box.grid(grid_n)
    d = model.d
    rows = []
    for p in pts:
        try:
            val = recover_generating(model, base, p, quad_tol)
            status = "ok"
        except MapflowError as exc:
            val, status = float("nan"), type(exc).__name__
        ref = ""
        if model.s is not None:
            sref = (model.h0(p[:d]) + model.eps * model.s(p[:d], p[d:])
                    - model.h0(base[:d]) - model.eps * model.s(base[:d], base[d:]))
            ref = float(sref)
        rows.append([*p, val, ref, status])
    header = ([f"pbar{j}" for j in range(d)] + [f"q{j}" for j in range(d)]
              + ["s_recovered", "s_catalog", "status"])
    path = os.path.join(out, "gen-recover.csv")
    write_csv(path, header, rows)
    return [path]


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------

TOP_KEYS = {"map", "seed", "out", "workers"} | set(COMMANDS)


def run(command: str, config_path: str, out: Optional[str] = None,
        workers: Optional[int] = None, seed: Optional[int] = None) -> int:
    """Execute one subcommand; returns the process exit code."""
    t0 = time.time()
    try:
        if command not in COMMANDS:
            raise ConfigError(f"unknown command {command!r}")
        try:
            with open(config_path) as fh:
                cfg = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
        if not isinstance(cfg, dict):
            raise ConfigError("top-level config must be an object")
        _check_known(cfg, TOP_KEYS, "config")
        model = build_model(cfg)  # validates the map block early
        out_dir = out or cfg.get("out")
        if not out_dir:
            raise ConfigError("no output directory (config 'out' or --out)")
        if workers is not None:
            nworkers = workers
        else:
            nworkers = int(cfg.get("workers", 0)) or (os.cpu_count() or 1)
        seed_val = seed if seed is not None else cfg.get("seed")
        needs_rng = (command == "stability"
                     or (command == "resonance" and "I0_list" not in cfg.get("resonance", {})))
        if needs_rng and seed_val is None:
            raise ConfigError(f"command {command!r} requires an RNG seed")
        rng = np.random.default_rng(seed_val) if seed_val is not None else None
        try:
            os.makedirs(out_dir, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot create output directory: {exc}") from exc
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    notes = []
    try:
        if command == "interp":
            paths = run_interp(cfg, out_dir, nworkers)
        elif command == "embed-error":
            paths, notes = run_embed_error(cfg, out_dir, nworkers)
        elif command == "energy":
            paths = run_energy(cfg, out_dir, nworkers)
        elif command == "resonance":
            paths = run_resonance(cfg, out_dir, nworkers, rng)
        elif command == "nucleus":
            paths = run_nucleus(cfg, out_dir, nworkers)
        elif command == "stability":
            paths = run_stability(cfg, out_dir, nworkers, rng)
        else:
            paths = run_gen_recover(cfg, out_dir, nworkers)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except MapflowError as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        _write_manifest(out_dir, command, cfg, model, seed_val, time.time() - t0,
                        status=f"failed: {type(exc).__name__}")
        return 3
    _write_manifest(out_dir, command, cfg, model, seed_val, time.time() - t0,
                    status="ok", paths=paths, notes=notes)
    return 0


def _write_manifest(out_dir, command, cfg, model, seed_val, wall, status, paths=(),
                    notes=()):
    dom = model.domain
    lines = [
        f"command: {command}",
        f"mapflow_version: {__version__}",
        f"status: {status}",
        f"seed: {seed_val}",
        f"wall_seconds: {wall:.3f}",
        f"map: {model.name} d={model.d} form={model.form} eps={fmt(model.eps)}",
        ("catalog_norms: "
         f"a={fmt(dom.norm_a)} b={fmt(dom.norm_b)} omega_prime={fmt(dom.norm_omega_prime)} "
         f"s={fmt(dom.norm_s)} h0pp={fmt(dom.norm_h0pp)} nu={fmt(dom.nu)} nu2={fmt(dom.nu2)}"),
        "outputs: " + " ".join(os.path.basename(p) for p in paths),
        *notes,
        "config: " + json.dumps(cfg, sort_keys=True),
    ]
    with open(os.path.join(out_dir, f"{command}_manifest.txt"), "w") as fh:
        fh.write("\n".join(lines) + "\n")


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="mapflow",
        description="experiment runner for the discrete-averaging map laboratory")
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", required=True, help="path to the JSON config")
    parser.add_argument("--out", default=None, help="output directory (overrides config)")
    parser.add_argument("--workers", type=int, default=None,
                        help="worker processes (default: config value, else os.cpu_count())")
    parser.add_argument("--seed", type=int, default=None,
                        help="RNG seed (overrides config)")
    args = parser.parse_args(argv)
    return run(args.command, args.config, args.out, args.workers, args.seed)


if __name__ == "__main__":
    sys.exit(main())
