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
    error_law_fit,
    scaled_block,
    unit_box,
)
from mapflow.cli import write_csv

OUT = pathlib.Path(__file__).parent.parent / "runs" / "embedding_sweep"
#: the vs_eps blocks, each measured at its optimal order
EPS = (4e-4, 1e-4, 2.5e-5, 6.25e-6)


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

    fit = error_law_fit([block_at(eps) for eps in EPS], box, "vs_eps", grid_n=4, tol=1e-13)
    for eps, r in zip(EPS, fit.reports):
        print(f"eps={eps:g}: eps_hat={r.eps_hat:.4g} m_opt={r.m} err={r.max_error:.4g}")
    write_csv(OUT / "vs_eps.csv", ["eps", "eps_hat", "m_opt", "max_error"],
              [np.array(EPS), *(np.array([getattr(r, key) for r in fit.reports])
                                for key in ("eps_hat", "m", "max_error"))])


if __name__ == "__main__":
    main()
