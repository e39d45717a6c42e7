#!/usr/bin/env python3
"""Embedding-error sweeps on the scaled standard-map block.

Produces two CSV files in runs/embedding_sweep/:
  * vs_m.csv   -- error against interpolation order at fixed eps
  * vs_eps.csv -- error at the optimal order against 1/eps_hat
The second shows the exponentially small optimal embedding error.
"""

import pathlib

import numpy as np

from mapflow import (
    ResonanceSite,
    catalog,
    distance_to_identity,
    embedding_error,
    error_law_fit,
    optimal_order,
    scaled_block,
    unit_box,
)
from mapflow.cli import write_csv

OUT = pathlib.Path(__file__).parent.parent / "runs" / "embedding_sweep"


def block_at(eps):
    model = catalog("standard", eps)
    site = ResonanceSite(n=1, omega_star=[0.0], I_star=[0.0],
                         rho_n=2.0 * eps**0.25)
    return scaled_block(model, site, scaling="nucleus")


def main():
    OUT.mkdir(parents=True, exist_ok=True)
    box = unit_box(1)

    rep = error_law_fit(block_at(1e-4), box, "vs_m", m_list=range(1, 7),
                        grid_n=4, tol=1e-12)
    header = ["m", "eps_hat", "max_error", "bound"]
    write_csv(OUT / "vs_m.csv", header,
              [np.array([getattr(r, key) for r in rep.reports]) for key in header])
    print(f"vs_m: per-step ratios {np.round(rep.ratios, 4)}")

    rows = []
    for eps in (4e-4, 1e-4, 2.5e-5, 6.25e-6):
        blk = block_at(eps)
        eh = distance_to_identity(blk, box, 4)
        m = optimal_order(0.5, eh, 1)
        r = embedding_error(blk, m.m, box, 4, tol=1e-13)
        rows.append((eps, eh, m.m, r.max_error))
        print(f"eps={eps:g}: eps_hat={eh:.4g} m_opt={m.m} err={r.max_error:.4g}")
    write_csv(OUT / "vs_eps.csv", ["eps", "eps_hat", "m_opt", "max_error"],
              [np.array(col) for col in zip(*rows)])


if __name__ == "__main__":
    main()
