#!/usr/bin/env python3
"""Micro-benchmark of the map step: ns per seed-step of `maps.propagate`.

Times `propagate` on the catalog maps `standard` and `froeschle2` at batch
sizes 1, 100 and 10^4 and prints the median and quartiles of ns per
seed-step.  Each repeat runs every (map, batch) case once, in turn, so that
a drift in host speed touches all cases alike.

    PYTHONPATH=src python scripts/step_bench.py [--repeats 9]

To compare two versions of the package, run the script once with each
version on PYTHONPATH, alternating.
"""

import argparse
import time

import numpy as np

from mapflow import catalog
from mapflow.maps import propagate

MAPS = (("standard", {}), ("froeschle2", {"eta": 0.3}))
EPS = 1e-3
#: (batch size, steps per timed call): about 10^5 to 4 * 10^6 seed-steps
CASES = ((1, 20_000), (100, 2_000), (10_000, 50))


def _states(d: int, batch: int):
    rng = np.random.default_rng(batch)
    return rng.uniform(-0.5, 0.5, (batch, d)), rng.uniform(0.0, 1.0, (batch, d))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--repeats", type=int, default=9)
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    cases = []
    for name, params in MAPS:
        model = catalog(name, EPS, **params)
        for batch, steps in CASES:
            cases.append((name, batch, steps, model, *_states(model.d, batch)))
    for _, _, _, model, I, phi in cases:  # warm up every path once
        propagate(model, I, phi, 10)
    samples = {case[:2]: [] for case in cases}
    for _ in range(args.repeats):
        for name, batch, steps, model, I, phi in cases:
            t0 = time.perf_counter()
            propagate(model, I, phi, steps)
            samples[name, batch].append(1e9 * (time.perf_counter() - t0) / (steps * batch))
    print(f"{'map':<11} {'batch':>6} {'median':>9} {'q1':>9} {'q3':>9}  ns per seed-step,"
          f" {args.repeats} repeats")
    for (name, batch), vals in samples.items():
        q1, med, q3 = np.percentile(vals, [25, 50, 75])
        print(f"{name:<11} {batch:>6} {med:9.1f} {q1:9.1f} {q3:9.1f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
