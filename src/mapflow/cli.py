"""Configuration-driven experiment runner.

Every subcommand reads a strict JSON config, runs one experiment and writes
a CSV (17-significant-digit floats, LF endings, stable column order) plus a
run manifest.  Identical config and seed give byte-identical CSV bodies
regardless of the worker count.

The config is checked against SCHEMA, with the --out, --workers and --seed
flags in place of their keys, before the output directory is created.

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
from typing import NamedTuple, Optional

import numpy as np

from . import __version__
from .errors import ConfigError, MapflowError
from .experiments import energy_drift, pilot_confinement, stability_scan
from .hamiltonian import default_delta, embedding_error, recover_generating, unit_box
from .interp import M_MAX, interpolating_vf
from .maps import CATALOG, MapModel, catalog
from .nucleus import build_nucleus, is_resonant_mode, resonant_fourier_check, trapped_orbit
from .resonance import (DIRICHLET_BUDGET, ResonanceSite, covering_params, dirichlet,
                        resonant_action, scaled_block)

COMMANDS = ("interp", "embed-error", "energy", "resonance", "nucleus",
            "stability", "gen-recover")


def fmt(x) -> str:
    """Canonical formatting: ints and bools as integers, floats to 17 significant digits."""
    return f"{x:d}" if isinstance(x, (int, np.integer, np.bool_)) else f"{float(x):.17g}"


CSV_BLOCK = 4096  # rows formatted at once: bounds the cell strings held


def _cells(col) -> tuple[str, list]:
    """A column's %-format and values: float, int and bool ndarrays give Python
    numbers, any other column (strings and numbers mixed) the strings of `fmt`."""
    if isinstance(col, np.ndarray):
        return {"f": "%.17g", "i": "%d", "u": "%d", "b": "%d"}[col.dtype.kind], col.tolist()
    return "%s", [v if isinstance(v, str) else fmt(v) for v in col]


def write_csv(path: str, header: list[str], columns: list) -> str:
    """Write a CSV from columns of equal length, CSV_BLOCK rows at a time."""
    n = max(map(len, columns), default=0)
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for lo in range(0, n, CSV_BLOCK):
            specs, values = zip(*(_cells(col[lo:lo + CSV_BLOCK]) for col in columns))
            fh.write("".join(map((",".join(specs) + "\n").__mod__, zip(*values, strict=True))))
    return path


# ---------------------------------------------------------------------------
# config schema
# ---------------------------------------------------------------------------

REQUIRED = object()


class Rule(NamedTuple):
    """One config key: its kind ("block" or a key of KINDS), the bound on its
    value and its default.  ``bound`` is ">= k" or "> x" for numbers, the
    choices of an enum, "d" or "2d" for the length of vectors, and the SCHEMA
    table of a block.  An absent or null key takes ``default``; a default of
    None means the runner derives the value from the model or leaves that
    output out."""

    kind: str
    bound: object = None
    default: object = REQUIRED


SCHEMA = {
    "config": {"map": Rule("block", "map"), "seed": Rule("int", ">= 0", None),
               "out": Rule("string", None, None), "workers": Rule("int", ">= 1", None)},
    "map": {"name": Rule("enum", CATALOG), "eps": Rule("number", ">= 0"),
            "params": Rule("block", "map.params", {})},
    "map.params": {"d": Rule("int", ">= 1", None), "eta": Rule("number", None, None)},
    "site": {"n": Rule("int", ">= 1"), "omega_star": Rule("vector", "d"),
             "gamma": Rule("number", "> 0", 2.0),
             "scaling": Rule("enum", ("nucleus", "lochak"), "nucleus"),
             "I_guess": Rule("vector", "d", None)},
    "interp": {"points": Rule("vectors", "2d"), "m_list": Rule("orders"),
               "scheme": Rule("enum", ("newton", "gauss"), "newton"),
               "site": Rule("block", "site", None)},
    "embed-error": {"m_list": Rule("orders"), "grid_n": Rule("int", ">= 2", 4),
                    "tol": Rule("number", "> 0", 1e-12), "delta": Rule("number", "> 0", None),
                    "J_radius": Rule("number", "> 0", 1.0), "site": Rule("block", "site")},
    "energy": {"m_list": Rule("orders"), "blocks": Rule("int", ">= 1"),
               "x0": Rule("vector", "2d"), "quad_tol": Rule("number", "> 0", 1e-12),
               "site": Rule("block", "site")},
    "resonance": {"count": Rule("int", ">= 1", None), "I0_list": Rule("vectors", "d", None),
                  "N": Rule("number", "> 1", None), "gamma": Rule("number", "> 0", 2.0),
                  "I_box": Rule("number", "> 0", 0.9)},
    "nucleus": {"J0": Rule("vector", "d"), "phi0": Rule("vector", "d"),
                "budget": Rule("int", ">= 0"), "site": Rule("block", "site"),
                "fourier_modes": Rule("modes", "d", None), "quad_n": Rule("int", ">= 1", 64),
                "record_every": Rule("int", ">= 1", 1)},
    "stability": {"seeds": Rule("int", ">= 1"), "horizon": Rule("int", ">= 1"),
                  "I_box": Rule("number", "> 0", 0.9),
                  "confinement_radius": Rule("number", "> 0", None),
                  "pilot_horizon": Rule("int", ">= 1", 20000)},
    "gen-recover": {"base": Rule("vector", "2d"), "grid_n": Rule("int", ">= 2", 5),
                    "J_radius": Rule("number", "> 0", 0.4),
                    "quad_tol": Rule("number", "> 0", 1e-11)},
}


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_number(v) -> bool:
    return (_is_int(v) or isinstance(v, float)) and abs(v) <= sys.float_info.max


def _within(v, bound: Optional[str]) -> bool:
    op, lim = (bound or ">= -inf").split()
    return v > float(lim) if op == ">" else v >= float(lim)


def _list_of(v, n: Optional[int], ok) -> bool:
    """v is a list of n entries (any number > 0 if n is None), each passing ok."""
    return isinstance(v, list) and (len(v) == n if n else len(v) > 0) and all(map(ok, v))


# kind -> (what a value must be, test of value v against bound b and vector length n)
KINDS = {
    "int": ("an integer {b}", lambda v, b, n: _is_int(v) and _within(v, b)),
    "number": ("a number {b}", lambda v, b, n: _is_number(v) and _within(v, b)),
    "enum": ("one of {b}", lambda v, b, n: isinstance(v, str) and v in b),
    "string": ("a non-empty string", lambda v, b, n: isinstance(v, str) and v != ""),
    "orders": (f"a non-empty list of integers in 1..{M_MAX}",
               lambda v, b, n: _list_of(v, None, lambda m: _is_int(m) and 1 <= m <= M_MAX)),
    "vector": ("a list of {n} numbers", lambda v, b, n: _list_of(v, n, _is_number)),
    "vectors": ("a non-empty list of lists of {n} numbers",
                lambda v, b, n: _list_of(v, None, lambda r: _list_of(r, n, _is_number))),
    "modes": ("a non-empty list of nonzero lists of {n} integers",
              lambda v, b, n: _list_of(v, None, lambda r: _list_of(r, n, _is_int) and any(r))),
}


def _show(val) -> str:
    text = repr(val)
    return text if len(text) <= 60 else text[:57] + "..."


def _value(rule: Rule, where: str, val, d):
    """The checked value of one key: numbers as float, vectors as arrays."""
    kind, bound = rule.kind, rule.bound
    if kind == "block":
        return _block(SCHEMA[bound], where, val, d)
    if isinstance(val, np.ndarray):  # checked before: build_site walks a checked site again
        val = val.tolist()
    n = 2 * d if bound == "2d" else d
    phrase, ok = KINDS[kind]
    if not ok(val, bound, n):
        b = ", ".join(map(repr, bound)) if kind == "enum" else bound or ""
        must = phrase.format(b=b, n=f"{bound} = {n}").rstrip()
        raise ConfigError(f"{where} must be {must}, got {_show(val)}")
    if kind in ("vector", "vectors", "modes"):
        return np.array(val, dtype=int if kind == "modes" else float)
    return float(val) if kind == "number" else val


def _block(table: dict, where: str, cfg, d) -> dict:
    """Walk one SCHEMA table: no unknown keys, every key checked or defaulted."""
    if not isinstance(cfg, dict):
        raise ConfigError(f"{where} must be an object, got {_show(cfg)}")
    unknown = sorted(set(cfg) - set(table))
    if unknown:
        raise ConfigError(f"unknown keys {unknown} in {where}")
    filled = {}
    for key, rule in table.items():
        path = key if where == "config" else f"{where}.{key}"
        val = cfg.get(key)
        if val is None and rule.default is REQUIRED:
            raise ConfigError(f"{path} is required")
        val = rule.default if val is None else val
        filled[key] = None if val is None else _value(rule, path, val, d)
    return filled


def validate(command: str, cfg: dict, model: MapModel) -> dict:
    """Check cfg for one command against SCHEMA; returns it with defaults filled in.
    The checks after the table walk tie two keys, or a key and the model, together."""
    cfg = _block({**SCHEMA["config"], command: Rule("block", command)}, "config", cfg, model.d)
    sub = cfg[command]
    if model.eps <= 0 and command in ("resonance", "nucleus"):
        raise ConfigError(f"{command} needs a perturbed map (map.eps > 0), got eps = {model.eps}")
    if model.eps <= 0 and (sub.get("site") or {}).get("scaling") == "nucleus":
        raise ConfigError(f"{command}.site.scaling 'nucleus' needs map.eps > 0, got {model.eps}")
    if command == "nucleus" and model.domain.norm_s <= 0:
        raise ConfigError(f"nucleus needs a map with a generating term, got {model.name!r}")
    if command == "interp" and sub["scheme"] == "gauss" and any(m % 2 for m in sub["m_list"]):
        raise ConfigError(f"interp.m_list must hold even orders for scheme 'gauss', "
                          f"got {sub['m_list']}")
    if command == "resonance":
        if (sub["count"] is None) == (sub["I0_list"] is None):
            raise ConfigError("resonance needs exactly one of count and I0_list")
        N = sub["N"] or covering_params(model, model.eps, sub["gamma"]).N_eps
        if N > DIRICHLET_BUDGET / model.d:
            raise ConfigError(f"resonance.N (default N_eps) must be at most "
                              f"{DIRICHLET_BUDGET / model.d:g}, got {N:g}")
    if cfg["seed"] is None and (command == "stability"
                                or (command == "resonance" and sub["count"] is not None)):
        raise ConfigError(f"command {command!r} requires an RNG seed (seed or --seed)")
    return cfg


def build_model(cfg: dict) -> MapModel:
    if cfg.get("map") is None:
        raise ConfigError("map is required")
    mp = _block(SCHEMA["map"], "map", cfg["map"], None)
    params = {k: v for k, v in mp["params"].items() if v is not None}
    try:
        return catalog(mp["name"], mp["eps"], **params)
    except ValueError as exc:
        raise ConfigError(f"map.params: {exc}") from exc


def build_site(model: MapModel, cfg: dict) -> tuple[ResonanceSite, str]:
    cfg = _block(SCHEMA["site"], "site", cfg, model.d)
    omega_star = cfg["omega_star"]
    I_guess = omega_star if cfg["I_guess"] is None else cfg["I_guess"]
    I_star = resonant_action(model, omega_star, I_guess)
    cp = covering_params(model, model.eps, cfg["gamma"]) if model.eps > 0 else None
    rho_n = cp.rho_n(cfg["n"]) if cp else 1.0
    return (ResonanceSite(n=cfg["n"], omega_star=omega_star, I_star=I_star, rho_n=rho_n),
            cfg["scaling"])


# ---------------------------------------------------------------------------
# command implementations (top level for picklability); each takes the
# validated config and returns (output paths, extra manifest lines)
# ---------------------------------------------------------------------------

def _pool_map(fn, tasks: list, workers: int) -> list:
    """[fn(t) for t in tasks], in worker processes when there are several of each."""
    if workers > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=workers) as ex:
            return list(ex.map(fn, tasks))
    return [fn(t) for t in tasks]


def _embed_one(args):
    cfg, m = args
    model = build_model(cfg)
    sub = cfg["embed-error"]
    blk = scaled_block(model, *build_site(model, sub["site"]))
    delta = default_delta(model.domain.r) if sub["delta"] is None else sub["delta"]
    rep = embedding_error(blk, m, unit_box(model.d, sub["J_radius"]), sub["grid_n"],
                          sub["tol"], delta)
    return (m, rep.eps_hat, rep.max_error, rep.bound, int(rep.precondition_ok),
            "" if rep.bound_satisfied is None else int(rep.bound_satisfied),
            int(np.count_nonzero(~np.isnan(rep.errors))), len(rep.failures))


def run_embed_error(cfg, model, out, workers, rng):
    """Write embed-error.csv; the manifest gets a flow_failures line."""
    results = _pool_map(_embed_one, [(cfg, m) for m in cfg["embed-error"]["m_list"]], workers)
    *columns, failures = map(list, zip(*sorted(results, key=lambda r: r[0])))
    path = write_csv(os.path.join(out, "embed-error.csv"),
                     ["m", "eps_hat", "max_error", "bound", "precondition_ok", "bound_satisfied",
                      "points_measured"], columns)
    return [path], ["flow_failures: " + " ".join(map("m{}={}".format, columns[0], failures))]


def run_interp(cfg, model, out, workers, rng):
    sub = cfg["interp"]
    target = model
    if sub["site"] is not None:
        target = scaled_block(model, *build_site(model, sub["site"]))
    d, ms = model.d, np.tile(sub["m_list"], len(sub["points"]))
    xs = np.repeat(sub["points"], len(sub["m_list"]), axis=0)
    X, status = np.full(xs.shape, np.nan), []
    for i, (x, m) in enumerate(zip(xs, ms)):
        try:
            X[i] = interpolating_vf(target, x, int(m), sub["scheme"])
            status.append("ok")
        except MapflowError as exc:
            status.append(type(exc).__name__)
    header = ([f"x{j}" for j in range(2 * d)] + ["m"]
              + [f"X{j}" for j in range(2 * d)] + ["status"])
    return [write_csv(os.path.join(out, "interp.csv"), header, [*xs.T, ms, *X.T, status])], []


def run_energy(cfg, model, out, workers, rng):
    sub = cfg["energy"]
    site, scaling = build_site(model, sub["site"])
    reps = [energy_drift(model, site, m, sub["blocks"], sub["x0"], scaling, sub["quad_tol"])
            for m in sub["m_list"]]
    columns = [np.array(sub["m_list"]), np.full(len(reps), sub["blocks"]),
               *np.array([[r.max_increment, r.total, r.identity_residual] for r in reps]).T]
    header = ["m", "blocks", "max_increment", "total", "identity_residual"]
    return [write_csv(os.path.join(out, "energy.csv"), header, columns)], []


def run_resonance(cfg, model, out, workers, rng):
    sub = cfg["resonance"]
    cp = covering_params(model, model.eps, sub["gamma"])
    N = cp.N_eps if sub["N"] is None else sub["N"]
    d = model.d
    seeds = sub["I0_list"]
    if seeds is None:
        I_box = sub["I_box"]
        seeds = rng.uniform(-I_box / np.sqrt(d), I_box / np.sqrt(d), size=(sub["count"], d))
    ns, table = [], []
    for I0 in seeds:
        omega0 = model.omega(I0)
        n, omega_star = dirichlet(omega0, N)
        I_star = resonant_action(model, omega_star, I0)
        ns.append(n)
        table.append([*omega_star, *I_star, cp.rho_n(n), np.max(np.abs(omega0 - omega_star))])
    header = (["n"] + [f"omega_star{j}" for j in range(d)]
              + [f"I_star{j}" for j in range(d)] + ["rho_n", "dirichlet_error"])
    return [write_csv(os.path.join(out, "resonance.csv"), header,
                      [np.array(ns), *np.array(table).T])], []


def run_nucleus(cfg, model, out, workers, rng):
    sub = cfg["nucleus"]
    site, _ = build_site(model, sub["site"])
    nm = build_nucleus(model, site)
    rec = trapped_orbit(model, site, np.concatenate([sub["J0"], sub["phi0"]]),
                        budget=sub["budget"], nmodel=nm)
    d, n = model.d, rec.x.shape[0]
    k = np.arange(0, n, sub["record_every"])
    if rec.escaped:  # a sampled orbit still records the block where it left
        k = np.union1d(k, rec.exit_index)
    exited = k >= (rec.exit_index if rec.escaped else n)
    header = ["k"] + [f"J{j}" for j in range(d)] + ["E", "exited"]
    paths = [write_csv(os.path.join(out, "nucleus.csv"), header,
                       [k, *rec.x[k, :d].T, rec.energy[k], exited])]
    if sub["fourier_modes"] is not None:
        modes = sub["fourier_modes"]
        mags = np.array([resonant_fourier_check(nm, j, sub["quad_n"]) for j in modes])
        resonant = np.array([is_resonant_mode(j, site.omega_star) for j in modes])
        fheader = [f"j{i}" for i in range(d)] + ["magnitude", "resonant"]
        paths.append(write_csv(os.path.join(out, "nucleus_fourier.csv"), fheader,
                               [*modes.T, mags, resonant]))
    return paths, []


def _stability_chunk(args):
    cfg, x0, radius = args
    return stability_scan(build_model(cfg), x0, horizon=cfg["stability"]["horizon"],
                          confinement_radius=radius)


def run_stability(cfg, model, out, workers, rng):
    sub = cfg["stability"]
    nseeds, I_box = sub["seeds"], sub["I_box"]
    d = model.d
    # I0, then phi0: one (nseeds, 2d) draw would change the stream
    x0 = np.concatenate([rng.uniform(-I_box / np.sqrt(d), I_box / np.sqrt(d), (nseeds, d)),
                         rng.uniform(0.0, 1.0, (nseeds, d))], axis=1)
    radius = sub["confinement_radius"]
    pilot_c1 = float("nan")
    if radius is None:
        cal = pilot_confinement(model, horizon=sub["pilot_horizon"])
        pilot_c1 = cal.c1
        radius = 2.0 * cal.radius(model.eps) if cal.c1 > 0 else None
    # chunk granularity: at least 50 seeds per worker chunk so that chunked
    # runs do not multiply the per-step vector-dispatch overhead; per-seed
    # trajectories are element-wise, so results are chunking-independent
    k = max(1, min(workers, nseeds // 50 or 1))
    bounds = np.linspace(0, nseeds, k + 1, dtype=int)
    chunks = [(cfg, x0[lo:hi], radius)
              for lo, hi in zip(bounds[:-1], bounds[1:]) if hi > lo]
    # chunks come back in seed order, one record per seed
    recs = [r for part in _pool_map(_stability_chunk, chunks, workers) for r in part]
    columns = [np.arange(nseeds), *x0.T, np.array([r.excursion for r in recs]),
               np.array([-1 if r.exit_index is None else r.exit_index for r in recs]),
               np.array([r.max_step_drift for r in recs]), [r.status for r in recs]]
    header = (["seed"] + [f"I0_{j}" for j in range(d)] + [f"phi0_{j}" for j in range(d)]
              + ["excursion", "exit_index", "max_step_drift", "status"])
    path = write_csv(os.path.join(out, "stability.csv"), header, columns)
    meta = os.path.join(out, "stability_calibration.txt")
    with open(meta, "w") as fh:
        fh.write(f"pilot_c1 = {fmt(pilot_c1)}\n")
        fh.write(f"confinement_radius = {fmt(radius) if radius is not None else 'none'}\n")
    return [path, meta], []


def run_gen_recover(cfg, model, out, workers, rng):
    sub = cfg["gen-recover"]
    base = sub["base"]
    pts = unit_box(model.d, sub["J_radius"]).grid(sub["grid_n"])
    d = model.d
    vals, refs, status = np.full(len(pts), np.nan), [], []
    for i, p in enumerate(pts):
        try:
            vals[i] = recover_generating(model, base, p, sub["quad_tol"])
            status.append("ok")
        except MapflowError as exc:
            status.append(type(exc).__name__)
        refs.append("" if model.s is None else float(
            model.h0(p[:d]) + model.eps * model.s(p[:d], p[d:])
            - model.h0(base[:d]) - model.eps * model.s(base[:d], base[d:])))
    header = ([f"pbar{j}" for j in range(d)] + [f"q{j}" for j in range(d)]
              + ["s_recovered", "s_catalog", "status"])
    return [write_csv(os.path.join(out, "gen-recover.csv"), header,
                      [*pts.T, vals, refs, status])], []


RUNNERS = {"interp": run_interp, "embed-error": run_embed_error, "energy": run_energy,
           "resonance": run_resonance, "nucleus": run_nucleus, "stability": run_stability,
           "gen-recover": run_gen_recover}


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------

def run(command: str, config_path: str, out: Optional[str] = None,
        workers: Optional[int] = None, seed: Optional[int] = None) -> int:
    """Execute one subcommand; returns the process exit code."""
    t0 = time.time()
    try:
        if command not in COMMANDS:
            raise ConfigError(f"unknown command {command!r}")
        try:
            with open(config_path) as fh:
                raw = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError("top-level config must be an object")
        flags = {"out": out, "workers": workers, "seed": seed}
        cfg = {**raw, **{k: v for k, v in flags.items() if v is not None}}
        model = build_model(cfg)
        cfg = validate(command, cfg, model)
        if cfg["out"] is None:
            raise ConfigError("no output directory (config 'out' or --out)")
        try:
            os.makedirs(cfg["out"], exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot create output directory: {exc}") from exc
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    out_dir, seed_val = cfg["out"], cfg["seed"]
    rng = np.random.default_rng(seed_val) if seed_val is not None else None
    try:
        paths, notes = RUNNERS[command](cfg, model, out_dir,
                                        cfg["workers"] or os.cpu_count() or 1, rng)
        code, status = 0, "ok"
    except MapflowError as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        code, status, paths, notes = 3, f"failed: {type(exc).__name__}", (), ()
    _write_manifest(out_dir, command, raw, model, seed_val, time.time() - t0, status,
                    paths, notes)
    return code


def _write_manifest(out_dir, command, cfg, model, seed_val, wall, status, paths, notes):
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
                        help="worker processes, an integer >= 1 "
                             "(default: config value, else os.cpu_count())")
    parser.add_argument("--seed", type=int, default=None,
                        help="RNG seed, an integer >= 0 (overrides config)")
    args = parser.parse_args(argv)
    return run(args.command, args.config, args.out, args.workers, args.seed)


if __name__ == "__main__":
    sys.exit(main())
