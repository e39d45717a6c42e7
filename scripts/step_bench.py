#!/usr/bin/env python3
"""Micro-benchmark of the map step and of the one-step calls built on it.

Times `propagate` on the catalog maps `standard` and `froeschle2` at batch
sizes 1, 100 and 10^4, forward and backward (a negative step count, the
rows marked "back"), and prints the median and quartiles of ns per
seed-step.  Then times one-step calls at batch sizes 1 (one (2d,) point)
and 100: `MapModel.apply` of the same maps and `BlockMap.apply` of the
nucleus block (standard map at eps = 1e-4, site n = 1, scaling "nucleus"),
and prints microseconds per call, with `MapModel.inverse` of the standard
map at the same batch sizes (one backward step of the engine), next to two
orbit calls of the windowed orbit engine: `BlockMap.orbit` of that block
at the field shape of the embed benchmark (25 points, 6 blocks) and
`MapModel.orbit` of one point of the standard map over 10^4 steps (one
window), and the fields built on them: the newton and the gauss field of
that block at 25 points (`interpolating_vf`), at m = 6 (the embed field
shape) and m = 20 (where symmetric averaging is meant to take over).  A
newton field is one orbit call; a gauss field is one backward and one
forward orbit call and one checking `apply`.  Then times `cli.write_csv`
on the 10^5-row table of a nucleus orbit (`nucleus.csv`'s columns k, J0,
E and exited: int, float, float, bool) and prints microseconds per row.
Last, times one `stability_scan` of froeschle2 (100 seeds x 2 * 10^4
steps), which steps through the same orbit engine as the orbit calls, and
prints seconds per scan, with the peak of memory that `tracemalloc` sees
in one more scan; numpy reports its array buffers there, so the peak
shows the scan's window buffers: about 1.9 MB while one window is alive
at a time, 2.7 MB if the previous one is kept while the next is written.
Last, times the layers that the tables above do not reach, each with its
count of work: `flow_map` (time one, tol 1e-12) of the nucleus block's
X_2 and X_5 on 16 and 64 points, in ms and field rows per point; the path
integral of `reconstruct_hamiltonian` of its X_2 at 31 queries, in ms and
integrand rows per query; and `resonance.dirichlet` in d = 1 and 2 at
N = 10 and 50 (the N of a default site search and of criterion 9) and at
N = 10^4 and 10^5, in us per candidate, with the candidates tried.  A
counting wrapper around the field counts the rows; the Dirichlet search
returns the first n of 1, 2, ... that passes, so that n is its count (it
tests more, in chunks: the first 64 candidates, then chunks of doubling
length, so up to about twice n).
Each repeat runs every case once, in turn, so that a drift in host speed
touches all cases alike.

    PYTHONPATH=src python scripts/step_bench.py [--repeats 9]

To compare two versions of the package, run the script once with each
version on PYTHONPATH, alternating.
"""

import argparse
import math
import os
import tempfile
import time
import tracemalloc
from functools import partial

import numpy as np

from mapflow import (ResonanceSite, catalog, dirichlet, flow_map, interpolating_field,
                     interpolating_vf, reconstruct_hamiltonian, scaled_block, stability_scan)
from mapflow.cli import write_csv
from mapflow.maps import propagate

MAPS = (("standard", {}), ("froeschle2", {"eta": 0.3}))
EPS = 1e-3
#: (batch size, steps per timed call): about 10^5 to 4 * 10^6 seed-steps
CASES = ((1, 20_000), (100, 2_000), (10_000, 50))
#: (batch size, calls per timed case) of the one-step calls
APPLY_CASES = ((1, 2_000), (100, 500))
#: rows of the CSV-writer case
CSV_ROWS = 100_000
#: seeds, steps and confinement radius of the froeschle2 scan case
SCAN_SEEDS, SCAN_STEPS, SCAN_RADIUS = 100, 20_000, 0.05
#: points of the flow cases, and queries of the path integral from its base
FLOW_POINTS, QUERIES, BASE = (16, 64), 31, np.array([0.05, 0.0])
#: badly approximable frequencies, the golden mean in d = 1 and a cubic pair
#: in d = 2, each searched up to every N
DIRICHLET_OMEGAS = ([(math.sqrt(5) - 1) / 2], [2 ** (1 / 3) - 1, 4 ** (1 / 3) - 1])
DIRICHLET_NS = (10, 50, 1e4, 1e5)


def _states(d: int, batch: int) -> np.ndarray:
    """Flat phase vectors (batch, 2d), actions in [-0.5, 0.5), angles in [0, 1)."""
    rng = np.random.default_rng(batch)
    return np.concatenate([rng.uniform(-0.5, 0.5, (batch, d)),
                           rng.uniform(0.0, 1.0, (batch, d))], axis=-1)


def _point(d: int, batch: int) -> np.ndarray:
    """`_states`, but one (2d,) point at batch 1."""
    x = _states(d, batch)
    return x[0] if batch == 1 else x


def _table(rows: int) -> list:
    """The columns `run_nucleus` writes for a trapped orbit of the standard map
    (d = 1), filled at random at its magnitudes: the block k, the action J
    about 0.05 N(0, 1), the energy E about -0.0123 with a small spread, and
    the bool `exited`."""
    rng = np.random.default_rng(rows)
    return [np.arange(rows), 0.05 * rng.normal(size=rows),
            -0.0123 + 1e-4 * rng.normal(size=rows), np.zeros(rows, dtype=bool)]


class _Counted:
    """A field that counts the rows it is called on."""

    def __init__(self, X):
        self.X, self.rows = X, 0

    def __call__(self, x):
        x = np.asarray(x)
        self.rows += x.size // x.shape[-1]
        return self.X(x)


def _flow_rows(X: _Counted, x: np.ndarray):
    """One time-one flow of the points x: (points, field rows per point)."""
    X.rows = 0
    flow_map(X, x, 1.0)
    return len(x), X.rows / len(x)


def _path_rows(H, queries: np.ndarray):
    """H at the queries, one path integral: (queries, integrand rows per query)."""
    H.X.rows = 0
    H.evaluate(queries)
    return len(queries), H.X.rows / len(queries)


def _candidates(omega, N):
    """One Dirichlet search: (candidates tried, candidates tried)."""
    n = dirichlet(np.array(omega), N)[0]
    return n, n


def _stats(vals, digits: int = 1):
    q1, med, q3 = np.percentile(vals, [25, 50, 75])
    return f"{med:9.{digits}f} {q1:9.{digits}f} {q3:9.{digits}f}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--repeats", type=int, default=9)
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    cases, applies = [], []
    for name, params in MAPS:
        model = catalog(name, EPS, **params)
        for sign, label in ((1, name), (-1, f"{name} back")):
            for batch, steps in CASES:
                cases.append((label, batch, sign * steps, model, _states(model.d, batch)))
        for batch, calls in APPLY_CASES:
            applies.append((f"{name}.apply", batch, calls, model.apply, _point(model.d, batch)))
    std = catalog("standard", EPS)
    for batch, calls in APPLY_CASES:  # one backward step of the engine
        applies.append(("standard.inverse", batch, calls, std.inverse, _point(1, batch)))
    site = ResonanceSite(n=1, omega_star=[0.0], I_star=[0.0], rho_n=0.2)
    block = scaled_block(catalog("standard", 1e-4), site, scaling="nucleus")
    for batch, calls in APPLY_CASES:  # |J| <= 0.5 stays inside the nucleus
        applies.append(("nucleus block.apply", batch, calls, block.apply, _point(1, batch)))
    # the orbit engine: embed's field shape (25 points, m = 6), and one window;
    # then the newton and gauss fields on that orbit, and at m = 20
    applies.append(("nucleus block.orbit", 25, 200, lambda x: block.orbit(x, 6), _point(1, 25)))
    applies.append(("standard.orbit", 1, 3, lambda x: std.orbit(x, 10_000), _point(1, 1)))
    for m, calls in ((6, 200), (20, 100)):
        for scheme in ("newton", "gauss"):
            applies.append((f"nucleus block X_{m} {scheme}", 25, calls,
                            lambda x, m=m, s=scheme: interpolating_vf(block, x, m, s),
                            _point(1, 25)))
    # (name, size, time scale, unit, run): run() returns the units that the
    # time is divided by and the count per unit
    layers = []
    for m in (2, 5):
        X = _Counted(interpolating_field(block, m))
        for n in FLOW_POINTS:
            layers.append((f"flow_map X_{m}", n, 1e3, "ms and field rows per point",
                           partial(_flow_rows, X, _point(1, n))))
    H = reconstruct_hamiltonian(_Counted(interpolating_field(block, 2)), BASE, quad_tol=1e-12)
    layers.append(("path integral X_2", QUERIES, 1e3, "ms and integrand rows per query",
                   partial(_path_rows, H, _point(1, QUERIES))))
    for N in DIRICHLET_NS:
        for omega in DIRICHLET_OMEGAS:
            layers.append((f"dirichlet d={len(omega)}", int(N), 1e6,
                           "us per candidate; candidates tried", partial(_candidates, omega, N)))
    for _, _, steps, model, x in cases:  # warm up every path once
        propagate(model, x, 10 if steps > 0 else -10)
    for *_, fn, x in applies:
        fn(x)
    counts = {layer[:2]: layer[-1]()[1] for layer in layers}  # and warm up each layer
    samples = {case[:2]: [] for case in cases + applies + layers}
    table, csv_us = _table(CSV_ROWS), []
    scan_model = catalog("froeschle2", EPS, eta=0.3)
    seeds, scan_s = _point(scan_model.d, SCAN_SEEDS), []
    tmp = tempfile.TemporaryDirectory()
    csv_path = os.path.join(tmp.name, "table.csv")
    for _ in range(args.repeats):
        for name, batch, steps, model, x in cases:
            t0 = time.perf_counter()
            propagate(model, x, steps)
            samples[name, batch].append(1e9 * (time.perf_counter() - t0) / (abs(steps) * batch))
        for name, batch, calls, fn, x in applies:
            t0 = time.perf_counter()
            for _ in range(calls):
                fn(x)
            samples[name, batch].append(1e6 * (time.perf_counter() - t0) / calls)
        t0 = time.perf_counter()
        write_csv(csv_path, ["k", "J0", "E", "exited"], table)
        csv_us.append(1e6 * (time.perf_counter() - t0) / CSV_ROWS)
        t0 = time.perf_counter()
        stability_scan(scan_model, seeds, SCAN_STEPS, SCAN_RADIUS)
        scan_s.append(time.perf_counter() - t0)
        for name, size, scale, _, run in layers:
            t0 = time.perf_counter()
            units, _ = run()
            samples[name, size].append(scale * (time.perf_counter() - t0) / units)
    tmp.cleanup()
    tracemalloc.start()
    stability_scan(scan_model, seeds, SCAN_STEPS, SCAN_RADIUS)
    scan_mb = tracemalloc.get_traced_memory()[1] / 1e6
    tracemalloc.stop()
    print(f"{'map':<15} {'batch':>6} {'median':>9} {'q1':>9} {'q3':>9}  ns per seed-step,"
          f" {args.repeats} repeats")
    for name, batch, *_ in cases:
        print(f"{name:<15} {batch:>6} {_stats(samples[name, batch])}")
    print(f"\n{'call':<25} {'batch':>6} {'median':>9} {'q1':>9} {'q3':>9}  us per call,"
          f" {args.repeats} repeats")
    for name, batch, *_ in applies:
        print(f"{name:<25} {batch:>6} {_stats(samples[name, batch])}")
    print(f"\n{'writer':<19} {'rows':>6} {'median':>9} {'q1':>9} {'q3':>9}  us per row,"
          f" {args.repeats} repeats")
    print(f"{'cli.write_csv':<19} {CSV_ROWS:>6} {_stats(csv_us, 3)}")
    print(f"\n{'scan':<19} {'seeds':>6} {'median':>9} {'q1':>9} {'q3':>9} {'peak MB':>9}"
          f"  s per scan of {SCAN_STEPS} steps, {args.repeats} repeats; traced peak")
    print(f"{'froeschle2':<19} {SCAN_SEEDS:>6} {_stats(scan_s, 3)} {scan_mb:9.2f}")
    print(f"\n{'layer':<19} {'size':>6} {'median':>9} {'q1':>9} {'q3':>9} {'count':>9}"
          f"  time and count per unit, {args.repeats} repeats")
    for name, size, _, unit, _ in layers:
        print(f"{name:<19} {size:>6} {_stats(samples[name, size], 3)} "
              f"{counts[name, size]:9.1f}  {unit}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
