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
`MapModel.orbit` of one point of the standard map over 10^4 steps (40
windows), and the fields built on them: the newton and the gauss field of
that block at 25 points (`interpolating_vf`), at m = 6 (the embed field
shape) and m = 20 (where symmetric averaging is meant to take over).  A
newton field is one orbit call; a gauss field is one backward and one
forward orbit call and one checking `apply`.  Then times `cli.write_csv`
on a table of 10^5 rows and the columns of a nucleus orbit (int, float,
float, int) and prints microseconds per row.  Last, times one
`stability_scan` of froeschle2 (100 seeds x 2 * 10^4 steps), which steps
through the same orbit engine as the orbit calls, and prints seconds per
scan, with the peak of memory that `tracemalloc` sees in one more scan;
numpy reports its array buffers there, so the peak shows the scan's window
buffers: about 1.9 MB while one window is alive at a time, 2.7 MB if the
previous one is kept while the next is written.  Each repeat runs every
case once, in turn, so that a drift in host speed touches all cases alike.

    PYTHONPATH=src python scripts/step_bench.py [--repeats 9]

To compare two versions of the package, run the script once with each
version on PYTHONPATH, alternating.
"""

import argparse
import os
import tempfile
import time
import tracemalloc

import numpy as np

from mapflow import ResonanceSite, catalog, interpolating_vf, scaled_block, stability_scan
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
    """Columns k, J, E, exited of a nucleus orbit's CSV, filled at random."""
    rng = np.random.default_rng(rows)
    return [np.arange(rows), rng.normal(size=rows), rng.normal(size=rows),
            np.zeros(rows, dtype=int)]


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
    # the orbit engine: embed's field shape (25 points, m = 6), and 40 windows;
    # then the newton and gauss fields on that orbit, and at m = 20
    applies.append(("nucleus block.orbit", 25, 200, lambda x: block.orbit(x, 6), _point(1, 25)))
    applies.append(("standard.orbit", 1, 3, lambda x: std.orbit(x, 10_000), _point(1, 1)))
    for m, calls in ((6, 200), (20, 100)):
        for scheme in ("newton", "gauss"):
            applies.append((f"nucleus block X_{m} {scheme}", 25, calls,
                            lambda x, m=m, s=scheme: interpolating_vf(block, x, m, s),
                            _point(1, 25)))
    for _, _, steps, model, x in cases:  # warm up every path once
        propagate(model, x, 10 if steps > 0 else -10)
    for *_, fn, x in applies:
        fn(x)
    samples = {case[:2]: [] for case in cases + applies}
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
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
