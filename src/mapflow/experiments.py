"""Reproducible quantitative experiments: bounds, drifts, scans and fits.

Each bound-type operation returns both the measured value and the model
bound so that the test suite (and CI) can assert measured <= bound on the
catalog maps.  Scans are seed-deterministic and vectorized over seeds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .hamiltonian import (
    Box,
    _reconstruct,
    _staircase,
    cross_form_fields,
    distance_to_identity,
    embedding_error,
    interpolating_field,
    optimal_order,
    unit_box,
)
from . import maps
from .maps import MapModel
from .resonance import BlockMap, ResonanceSite, resonant_action, scaled_block


# ---------------------------------------------------------------------------
# a-priori orbit bounds
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AprioriMargins:
    """Measured n-step deviations against the sup-norm bounds."""

    action_dev: float
    action_bound: float
    angle_dev: float
    angle_bound: float

    @property
    def ok(self) -> bool:
        return (self.action_dev <= self.action_bound + 1e-12
                and self.angle_dev <= self.angle_bound + 1e-12)


def apriori_check(model: MapModel, x0: np.ndarray, n: int) -> AprioriMargins:
    """Check |I_n - I_0| <= C1 n eps and |phi_n - phi_0 - n omega(I_0)| <= C2 n^2 eps
    on the orbit of the phase vector x0 of shape (2d,)."""
    if n < 0:  # the bounds are for forward steps; orbit would step backward
        raise ValueError("steps must be nonnegative")
    orb = model.orbit(x0, n)
    Is, ps = orb[..., : model.d], orb[..., model.d:]
    dom = model.domain
    action_dev = float(np.max(np.abs(Is[-1] - Is[0])))
    angle_dev = float(np.max(np.abs(ps[-1] - ps[0] - n * model.omega(Is[0]))))
    return AprioriMargins(
        action_dev=action_dev,
        action_bound=dom.C1 * n * model.eps,
        angle_dev=angle_dev,
        angle_bound=dom.C2 * n * n * model.eps,
    )


# ---------------------------------------------------------------------------
# generating-function split S_n = h_n + w_n for a scaled block
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class WnReport:
    """Sup of the angle-dependent part of the block generating function."""

    sup_w: float
    bound: float
    grid: np.ndarray = field(repr=False)
    values: np.ndarray = field(repr=False)

    @property
    def ok(self) -> bool:
        return self.sup_w <= self.bound + 1e-12


@dataclass
class SnDecomposition:
    """Evaluators for S_n = h_n + w_n of a rescaled block map.

    h_n is the closed-form integrable part; w_n comes from path integration
    of the cross-form fields (u, v) and is what competes against the
    convexity sandwich of h_n.
    """

    block: BlockMap
    quad_tol: float = 1e-11

    def h_n(self, Jbar: np.ndarray) -> np.ndarray:
        b = self.block
        model, site, rho = b.model, b.site, b.rho
        Jbar = np.asarray(Jbar, dtype=float)
        I = site.I_star + rho * Jbar
        lin = (model.omega(site.I_star) * Jbar).sum(axis=-1)
        return b.n / rho * (model.h0(I) - model.h0(site.I_star) - rho * lin)

    def h_n_grad(self, Jbar: np.ndarray) -> np.ndarray:
        b = self.block
        I = b.site.I_star + b.rho * np.asarray(Jbar, dtype=float)
        return b.n * (b.model.omega(I) - b.model.omega(b.site.I_star))

    def w_n(self, x: np.ndarray):
        """Path integral of (v - h_n') . dJbar + u . dphi along the staircase
        from 0 to x = (Jbar, phi), with the block's cross-form fields (u, v).

        x is (2d,) (a float) or (N, 2d), one path per row.
        """
        d = self.block.d
        uv = cross_form_fields(self.block)

        def form(y):
            u, v = uv(y)
            return np.concatenate([v - self.h_n_grad(y[..., :d]), u], axis=-1)

        return _staircase(form, np.zeros(2 * d), x, self.quad_tol)

    def S_n(self, x: np.ndarray):
        """S_n at x = (Jbar, phi): a float for (2d,), shape (N,) for (N, 2d)."""
        x = np.asarray(x, dtype=float)
        s = self.h_n(x[..., : self.block.d]) + self.w_n(x)
        return float(s) if x.ndim == 1 else s

    def w_report(self, grid_n: int = 5) -> WnReport:
        """Sup |w_n| on a (J, phi) grid against d C2 n^2 eps + d C1 n eps / rho."""
        b = self.block
        dom = b.model.domain
        pts = unit_box(b.d).grid(grid_n)
        vals = self.w_n(pts)
        eps = b.model.eps
        bound = (b.d * dom.C2 * b.n**2 * eps + b.d * dom.C1 * b.n * eps / b.rho)
        return WnReport(sup_w=float(np.max(np.abs(vals))), bound=bound,
                        grid=pts, values=vals)


def sn_decomposition(model: MapModel, site: ResonanceSite,
                     scaling: str = "lochak", quad_tol: float = 1e-11,
                     grid_n: int = 5) -> tuple[SnDecomposition, WnReport]:
    """Split the block generating function and report the sup of its angle part."""
    dec = SnDecomposition(block=scaled_block(model, site, scaling), quad_tol=quad_tol)
    return dec, dec.w_report(grid_n=grid_n)


# ---------------------------------------------------------------------------
# slow-energy drift along block orbits
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class DriftReport:
    """Per-block increments of the reconstructed slow observable."""

    m: int
    increments: np.ndarray
    max_increment: float
    total: float
    identity_residual: float  # |sum(increments) - (H_end - H_start)|, relative

    @property
    def blocks(self) -> int:
        return len(self.increments)


def energy_drift(model: MapModel, site: ResonanceSite, m: int, blocks: int,
                 x0: np.ndarray, scaling: str = "nucleus",
                 quad_tol: float = 1e-12) -> DriftReport:
    """Evaluate the order-m interpolating Hamiltonian along a block orbit.

    The Hamiltonian is reconstructed from X_m by path integration with the
    periodicity correction; the correction and the values at every orbit
    point come from one batched path integral.  Increments are H_m
    differences between consecutive block boundaries.
    """
    block = scaled_block(model, site, scaling)
    X = interpolating_field(block, m)
    orbit = block.orbit(np.asarray(x0, dtype=float), blocks)
    _, vals = _reconstruct(X, np.zeros(2 * block.d), orbit, quad_tol)
    inc = np.diff(vals)
    total = float(np.sum(inc))
    direct = float(vals[-1] - vals[0])
    scale = max(abs(direct), abs(total), 1e-300)
    return DriftReport(m=m, increments=inc, max_increment=float(np.max(np.abs(inc))),
                       total=total, identity_residual=abs(total - direct) / scale)


# ---------------------------------------------------------------------------
# long-horizon confinement scans
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class StabilityRecord:
    """Per-seed outcome of a confinement scan."""

    seed_index: int
    x0: np.ndarray             # (2d,) start point (I0, phi0)
    excursion: float           # max_k |I_k - I_0|_inf over the horizon
    horizon: int
    exit_index: Optional[int]  # first k with excursion > confinement radius
    max_step_drift: float      # max per-step |I_{k+1} - I_k|_inf
    status: str = "ok"


def _max_abs_diff(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """max over the last axis of |A - B|, built one column at a time: numpy
    reduces over a short last axis on a slow path."""
    out = np.subtract(A[..., 0], B[..., 0])
    np.abs(out, out=out)
    col = np.empty_like(out)
    for j in range(1, A.shape[-1]):
        np.subtract(A[..., j], B[..., j], out=col)
        np.abs(col, out=col)
        np.maximum(out, col, out=out)
    return out


def stability_scan(model: MapModel, x0: np.ndarray, horizon: int,
                   confinement_radius: Optional[float] = None) -> list[StabilityRecord]:
    """Vectorized long-horizon scan of action excursions from the seeds
    x0 = (I0, phi0), shape (2d,) or (N, 2d), one seed per row.

    Seeds step in one batch through `maps._orbits`, the orbit engine of
    `maps.windows`, under its escape rule.  Per-seed statistics (running
    excursion, first confinement exit, escape) are reduced per window and
    stop at the escape state; the engine drops an escaped seed and steps the
    others.  For catalog maps results do not depend on batch composition.
    """
    x0 = np.atleast_2d(np.asarray(x0, dtype=float))
    nseeds = x0.shape[0]
    exc = np.zeros(nseeds)
    step_drift = np.zeros(nseeds)
    exit_idx = np.full(nseeds, -1, dtype=np.int64)
    escape_idx = np.full(nseeds, -1, dtype=np.int64)

    done = 0
    for live, xs, first in maps._orbits(model, x0, horizon, 1):
        # statistics over the window (step indices done+1 .. done+W)
        Is = xs[..., :model.d]
        dev = _max_abs_diff(Is[1:], x0[live, :model.d])  # (W, live)
        dstep = _max_abs_diff(Is[1:], Is[:-1])           # (W, live)
        # statistics stop at the escape state; a non-finite state (read from its
        # deviation) and the step into it take no part, as its escape may show
        # only in the next window
        stop = ~np.isfinite(dev)
        left = first >= 0
        for c in np.flatnonzero(left):
            stop[first[c]:, c] = True
        dev[stop] = dstep[stop] = -np.inf
        escape_idx[live[left]] = done + first[left]
        exc[live] = np.maximum(exc[live], dev.max(axis=0, initial=-np.inf))
        step_drift[live] = np.maximum(step_drift[live], dstep.max(axis=0, initial=-np.inf))
        if confinement_radius is not None:
            crossed = dev > confinement_radius
            newly = crossed.any(axis=0) & (exit_idx[live] < 0)
            if np.any(newly):
                exit_idx[live[newly]] = done + 1 + np.argmax(crossed[:, newly], axis=0)
        done += xs.shape[0] - 1
        del xs, Is  # keep no view of this window while the engine writes the next

    out = []
    for i in range(nseeds):
        status = "ok" if escape_idx[i] < 0 else f"domain_escape@{escape_idx[i]}"
        out.append(StabilityRecord(
            seed_index=i, x0=x0[i],
            excursion=float(exc[i]), horizon=horizon,
            exit_index=None if exit_idx[i] < 0 else int(exit_idx[i]),
            max_step_drift=float(step_drift[i]), status=status))
    return out


#: safety factor applied to the pilot excursion estimate; the pilot probes
#: the widest (period-1) resonance island, whose sweep dominates ensemble
#: excursions, and the factor absorbs seeds in the island's chaotic layer
PILOT_SAFETY = 1.5
#: pilot seeds, spread from the torus across 1.25 island halfwidths
PILOT_SEEDS = 10


@dataclass(frozen=True)
class PilotCalibration:
    c1: float
    pilot_excursion: float
    exponent: float

    def radius(self, eps: float) -> float:
        return self.c1 * eps**self.exponent


def pilot_confinement(model: MapModel, horizon: int = 20000) -> PilotCalibration:
    """Calibrate the confinement constant c1 from a designed pilot run.

    Pilot seeds straddle the dominant fully resonant torus (period 1 nearest
    to the domain center), whose island halfwidth ~ sqrt(eps |s|) sets the
    largest excursion scale; random seeds elsewhere sit on invariant curves
    with far smaller excursions.  Returns c1 with
    excursion <= c1 * eps^{1/2(d+1)} expected for the whole ensemble.
    """
    d = model.d
    expo = 1.0 / (2.0 * (d + 1))
    eps = model.eps
    if eps == 0.0 or model.domain.norm_s == 0.0:
        return PilotCalibration(c1=0.0, pilot_excursion=0.0, exponent=expo)
    omega_c = model.omega(model.domain.center)
    I_star = resonant_action(model, np.round(omega_c), model.domain.center)
    halfwidth = 1.25 * math.sqrt(2.0 * model.domain.norm_s * eps / model.domain.nu2)
    offs = np.linspace(0.0, halfwidth, PILOT_SEEDS)
    x0 = np.column_stack([np.tile(I_star, (PILOT_SEEDS, 1))]
                         + [np.linspace(0.05, 0.95, PILOT_SEEDS)] * d)
    for j in range(PILOT_SEEDS):
        x0[j, j % d] += offs[j]
    recs = stability_scan(model, x0, horizon=horizon)
    pilot_exc = max(r.excursion for r in recs)
    return PilotCalibration(c1=PILOT_SAFETY * pilot_exc / eps**expo,
                            pilot_excursion=pilot_exc, exponent=expo)


# ---------------------------------------------------------------------------
# scaling-law fits
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class FitReport:
    """OLS fit in log space with numerical-floor bookkeeping."""

    mode: str
    slope: float
    intercept: float
    r_squared: float
    x: np.ndarray
    y_log: np.ndarray
    used: np.ndarray
    n_excluded: int
    degenerate: bool
    reports: tuple = ()

    @property
    def ratios(self) -> np.ndarray:
        vals = np.exp(self.y_log)
        return vals[1:] / vals[:-1]


def _ols(x: np.ndarray, y: np.ndarray) -> tuple[float, float, float]:
    A = np.vstack([x, np.ones_like(x)]).T
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    yhat = A @ coef
    ss_res = float(np.sum((y - yhat) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return float(coef[0]), float(coef[1]), r2


def fit_log_law(x: np.ndarray, values: np.ndarray, mode: str,
                floor: float = 1e-15, reports: tuple = ()) -> FitReport:
    """Fit log(values) against x, excluding floor-contaminated points.

    Points with values <= floor are excluded from the fit and counted in the
    report; with fewer than two usable points the fit is degenerate (reported,
    not raised).
    """
    x = np.asarray(x, dtype=float)
    values = np.asarray(values, dtype=float)
    used = values > floor
    n_excluded = int(np.sum(~used))
    if int(np.sum(used)) < 2:
        return FitReport(mode=mode, slope=float("nan"), intercept=float("nan"),
                         r_squared=float("nan"), x=x, y_log=np.log(np.maximum(values, 1e-300)),
                         used=used, n_excluded=n_excluded, degenerate=True, reports=reports)
    slope, intercept, r2 = _ols(x[used], np.log(values[used]))
    return FitReport(mode=mode, slope=slope, intercept=intercept, r_squared=r2,
                     x=x, y_log=np.log(np.maximum(values, 1e-300)), used=used,
                     n_excluded=n_excluded, degenerate=False, reports=reports)


def error_law_fit(blocks, box: Box, mode: str, m_list: Optional[Sequence[int]] = None,
                  grid_n: int = 4, tol: float = 1e-12, delta: float = 0.5,
                  floor: Optional[float] = None) -> FitReport:
    """Embedding-error scaling laws.

    mode "vs_m": ``blocks`` is a single map; sweep the orders in m_list and
    fit log(error) against m (the per-step ratios live in the report).

    mode "vs_eps": ``blocks`` is a sequence of maps with decreasing distance
    to identity; each is measured at its optimal order and log(error) is
    fitted against 1/eps_hat (negative slope = exponential law).
    """
    if floor is None:
        floor = max(1e-15, 10.0 * tol)
    if mode == "vs_m":
        if m_list is None:
            raise ValueError("vs_m mode needs m_list")
        reports = tuple(embedding_error(blocks, m, box, grid_n, tol, delta)
                        for m in m_list)
        errs = np.array([r.max_error for r in reports])
        return fit_log_law(np.asarray(list(m_list), dtype=float), errs, "vs_m",
                           floor=floor, reports=reports)
    if mode == "vs_eps":
        reports = []
        for blk in blocks:
            eh = distance_to_identity(blk, box, grid_n)
            m_opt = optimal_order(delta, eh, box.d)
            reports.append(embedding_error(blk, m_opt.m, box, grid_n, tol, delta))
        errs = np.array([r.max_error for r in reports])
        inv_eh = np.array([1.0 / r.eps_hat for r in reports])
        return fit_log_law(inv_eh, errs, "vs_eps", floor=floor, reports=tuple(reports))
    raise ValueError(f"unknown fit mode {mode!r}")
