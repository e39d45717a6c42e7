#!/usr/bin/env python3
"""Per-step slow-energy drift of trapped nucleus orbits against eps.

Writes runs/nucleus_sweep/drift.csv and prints the fitted exponent
(expected >= 1.4: the centered-phase energy samples drift at the
eps^{3/2} scale).
"""

import pathlib

import numpy as np

from mapflow import ResonanceSite, catalog, trapped_orbit
from mapflow.cli import write_csv

OUT = pathlib.Path(__file__).parent.parent / "runs" / "nucleus_sweep"


def main():
    OUT.mkdir(parents=True, exist_ok=True)
    site = ResonanceSite(n=1, omega_star=[0.0], I_star=[0.0], rho_n=0.2)
    grid = [1e-3, 4e-4, 1.6e-4, 6.4e-5]
    drifts = []
    for eps in grid:
        model = catalog("standard", eps)
        rec = trapped_orbit(model, site, np.array([0.1, 0.2]), budget=20000)
        drifts.append(rec.max_step_dE)
        print(f"eps={eps:g}: max per-step |dE| = {rec.max_step_dE:.4g}, "
              f"max |J| = {rec.max_abs_J:.4g}, escaped = {rec.escaped}")
    slope = np.polyfit(np.log(grid), np.log(drifts), 1)[0]
    print(f"fitted exponent: {slope:.3f}")
    write_csv(OUT / "drift.csv", ["eps", "max_step_dE"], [np.array(grid), np.array(drifts)])


if __name__ == "__main__":
    main()
