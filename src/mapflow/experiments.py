"""Reproducible quantitative experiments: bounds, drifts, scans and fits.

Each bound-type operation returns both the measured value and the model
bound so that the test suite (and CI) can assert measured <= bound on the
catalog maps.  Scans are seed-deterministic and vectorized over seeds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

# `hamiltonian` is imported by the functions that use it: a stability scan,
# the `stability` command's whole work, needs none of it
from . import maps
from .errors import DegenerateFit, FitFailed
from .interp import interpolating_vf
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
        from .hamiltonian import _staircase, cross_form_fields

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
        from .hamiltonian import unit_box

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
    from .hamiltonian import _reconstruct, interpolating_field

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
    """Outcome of a confinement scan of N seeds over ``horizon`` steps, one
    array entry per seed in seed order.  The statistics stop at a seed's
    escape state."""

    x0: np.ndarray              # (N, 2d) start points (I0, phi0)
    excursion: np.ndarray       # (N,) max_k |I_k - I_0|_inf over the horizon
    max_step_drift: np.ndarray  # (N,) max per-step |I_{k+1} - I_k|_inf
    exit_index: np.ndarray      # (N,) int64, first k with excursion > radius, -1 for none
    escape_index: np.ndarray    # (N,) int64, the escape state's k, -1 for none
    horizon: int


def _max_abs(A: np.ndarray) -> np.ndarray:
    """max over the last axis of |A|, one column at a time: numpy reduces
    over a short last axis on a slow path."""
    out = np.abs(A[..., 0])
    for j in range(1, A.shape[-1]):
        np.maximum(out, np.abs(A[..., j]), out=out)
    return out


def _state_maxima(Is: np.ndarray, I0: np.ndarray, first: np.ndarray):
    """|I_k - I0|_inf and |I_k - I_{k-1}|_inf at every state k >= 1 of a
    window Is (W+1, L, d), shape (W, L) each, and -inf where the statistics
    stop: after a seed's escape index ``first`` (-1 for none), and at a
    non-finite state, read from its deviation, with the step into it (its
    escape may show only in the next window)."""
    dev, dstep = _max_abs(Is[1:] - I0), _max_abs(Is[1:] - Is[:-1])
    stop = ~np.isfinite(dev)
    for c in np.flatnonzero(first >= 0):
        stop[first[c]:, c] = True
    dev[stop] = dstep[stop] = -np.inf
    return dev, dstep


def _window_maxima(Is: np.ndarray, I0: np.ndarray):
    """Per seed, the largest |I_k - I0|_inf and |I_k - I_{k-1}|_inf over the
    states k >= 1 of a window Is (W+1, L, d), from extrema: rounding is
    monotone, so max_k |I_kj - I0_j| is the larger of |max_k I_kj - I0_j|
    and |min_k I_kj - I0_j| bit for bit, and the largest step is read from
    the extrema of the step differences alike.  Not finite where a state is
    not."""
    new = Is[1:]
    steps = new - Is[:-1]
    dev = np.maximum(_max_abs(new.max(axis=0) - I0), _max_abs(new.min(axis=0) - I0))
    return dev, np.maximum(_max_abs(steps.max(axis=0)), _max_abs(steps.min(axis=0)))


class _Scan:
    """Running per-seed statistics of a confinement scan of the seeds x0
    (N, 2d): excursion from the start action, largest step, first step over
    the confinement radius and escape (-1 for none)."""

    def __init__(self, model: MapModel, x0: np.ndarray):
        self.model, self.x0 = model, x0
        n = len(x0)
        self.exc, self.step_drift = np.zeros(n), np.zeros(n)
        self.exit_idx = np.full(n, -1, dtype=np.int64)
        self.escape_idx = np.full(n, -1, dtype=np.int64)

    def run(self, rows: np.ndarray, x: np.ndarray, steps: int,
            radius: Optional[float], done: int = 0):
        """Step the seeds ``rows`` on from their states x at step ``done``
        over ``steps`` more steps in one batch through `maps._orbits`, under
        its escape rule, and take their statistics per window.  Returns the
        rows that did not escape and their last states.

        A window's excursion and step maxima come from per-seed extrema
        (`_window_maxima`); only a seed that escaped or reached a non-finite
        state in the window takes them state by state (`_state_maxima`), and
        a confinement crossing is looked up state by state only in the
        columns of the seeds whose window maximum exceeds the radius."""
        d, left = self.model.d, (rows, x)
        for live, xs, first in maps._orbits(self.model, x, steps, 1):
            seeds, Is = rows[live], xs[..., :d]
            I0 = self.x0[seeds, :d]
            dev, dstep = _window_maxima(Is, I0)
            escaped = first >= 0
            self.escape_idx[seeds[escaped]] = done + first[escaped]
            dirty = np.flatnonzero(escaped | ~np.isfinite(dev))
            if dirty.size:
                devs, dsteps = _state_maxima(Is[:, dirty], I0[dirty], first[dirty])
                dev[dirty] = devs.max(axis=0, initial=-np.inf)
                dstep[dirty] = dsteps.max(axis=0, initial=-np.inf)
            if radius is not None:
                new = np.flatnonzero((dev > radius) & (self.exit_idx[seeds] < 0))
                if new.size:
                    devs, _ = _state_maxima(Is[:, new], I0[new], first[new])
                    self.exit_idx[seeds[new]] = done + 1 + np.argmax(devs > radius, axis=0)
            self.exc[seeds] = np.maximum(self.exc[seeds], dev)
            self.step_drift[seeds] = np.maximum(self.step_drift[seeds], dstep)
            done += xs.shape[0] - 1
            left = (seeds[~escaped], xs[-1, ~escaped])
            del xs, Is  # keep no view of this window while the engine writes the next
        return left

    def records(self, horizon: int, n: int) -> StabilityRecord:
        """The record of the first n seeds, views of the scan's arrays."""
        return StabilityRecord(x0=self.x0[:n], excursion=self.exc[:n],
                               max_step_drift=self.step_drift[:n],
                               exit_index=self.exit_idx[:n],
                               escape_index=self.escape_idx[:n], horizon=horizon)


def stability_scan(model: MapModel, x0: np.ndarray, horizon: int,
                   confinement_radius: Optional[float] = None) -> StabilityRecord:
    """Vectorized long-horizon scan of action excursions from the seeds
    x0 = (I0, phi0), shape (2d,) or (N, 2d), one seed per row; returns one
    record of per-seed arrays (a (2d,) x0 is one seed, N = 1).

    Seeds step in one batch through `maps._orbits`, the orbit engine of
    `maps.windows`, under its escape rule.  Per-seed statistics (running
    excursion, first confinement exit, escape) are reduced per window and
    stop at the escape state; the engine drops an escaped seed and steps the
    others.  For catalog maps results do not depend on batch composition.
    """
    x0 = np.atleast_2d(np.asarray(x0, dtype=float))
    scan = _Scan(model, x0)
    scan.run(np.arange(len(x0)), x0, horizon, confinement_radius)
    return scan.records(horizon, len(x0))


#: safety factor applied to the pilot excursion estimate; the pilot probes
#: the widest (period-1) resonance island, whose sweep dominates ensemble
#: excursions, and the factor absorbs seeds in the island's chaotic layer
PILOT_SAFETY = 1.5
#: pilot seeds, spread from the torus across 1.25 island halfwidths
PILOT_SEEDS = 10
#: `calibrated_scan`'s confinement radius, in units of the pilot's c1 eps^expo
RADIUS_FACTOR = 2.0


@dataclass(frozen=True)
class PilotCalibration:
    c1: float
    pilot_excursion: float
    exponent: float

    def radius(self, eps: float) -> float:
        return self.c1 * eps**self.exponent


def _pilot_seeds(model: MapModel) -> Optional[np.ndarray]:
    """The pilot's designed seeds (PILOT_SEEDS, 2d), or None where c1 is zero
    without a run (eps = 0 or |s| = 0)."""
    d, eps = model.d, model.eps
    if eps == 0.0 or model.domain.norm_s == 0.0:
        return None
    omega_c = model.omega(model.domain.center)
    I_star = resonant_action(model, np.round(omega_c), model.domain.center)
    halfwidth = 1.25 * math.sqrt(2.0 * model.domain.norm_s * eps / model.domain.nu2)
    offs = np.linspace(0.0, halfwidth, PILOT_SEEDS)
    x0 = np.column_stack([np.tile(I_star, (PILOT_SEEDS, 1))]
                         + [np.linspace(0.05, 0.95, PILOT_SEEDS)] * d)
    for j in range(PILOT_SEEDS):
        x0[j, j % d] += offs[j]
    return x0


def _calibration(model: MapModel, pilot_exc: Optional[float]) -> PilotCalibration:
    """c1 from the pilot's largest excursion, None for no pilot run."""
    expo = 1.0 / (2.0 * (model.d + 1))
    if pilot_exc is None:
        return PilotCalibration(c1=0.0, pilot_excursion=0.0, exponent=expo)
    return PilotCalibration(c1=PILOT_SAFETY * pilot_exc / model.eps**expo,
                            pilot_excursion=pilot_exc, exponent=expo)


def pilot_confinement(model: MapModel, horizon: int = 20000) -> PilotCalibration:
    """Calibrate the confinement constant c1 from a designed pilot run.

    Pilot seeds straddle the dominant fully resonant torus (period 1 nearest
    to the domain center), whose island halfwidth ~ sqrt(eps |s|) sets the
    largest excursion scale; random seeds elsewhere sit on invariant curves
    with far smaller excursions.  Returns c1 with
    excursion <= c1 * eps^{1/2(d+1)} expected for the whole ensemble.
    """
    x0 = _pilot_seeds(model)
    if x0 is None:
        return _calibration(model, None)
    return _calibration(model, float(stability_scan(model, x0, horizon).excursion.max()))


def calibrated_scan(model: MapModel, x0: np.ndarray, horizon: int, pilot_horizon: int = 20000):
    """`pilot_confinement` over ``pilot_horizon`` steps, then `stability_scan`
    of the seeds x0 (N, 2d) at the confinement radius RADIUS_FACTOR times
    the calibration's (none where c1 is zero), with the pilot's seeds riding
    in the scan's batch.  Returns (record, calibration, radius), bit for
    bit those of the two calls: for catalog maps a seed's orbit does not
    depend on the batch, and the statistics of a run split at a step are
    those of the whole.

    The pilot seeds and x0 step together over the first min(horizon,
    pilot_horizon) steps, where the engine's last window ends; the pilot
    seeds alone step on to ``pilot_horizon``, and x0's seeds on to
    ``horizon`` at the radius.  A seed whose excursion already exceeds the
    radius at the split takes its exit index from one more scan of those
    seeds alone over the steps before it."""
    x0 = np.atleast_2d(np.asarray(x0, dtype=float))
    pilot = _pilot_seeds(model)
    if pilot is None:
        return stability_scan(model, x0, horizon), _calibration(model, None), None
    n = len(x0)
    scan = _Scan(model, np.concatenate([x0, pilot]))
    head = min(horizon, pilot_horizon)
    rows, x = scan.run(np.arange(len(scan.x0)), scan.x0, head, None)
    rides, seeds = rows >= n, rows < n
    if pilot_horizon > head:
        scan.run(rows[rides], x[rides], pilot_horizon - head, None, head)
    cal = _calibration(model, float(scan.exc[n:].max()))
    radius = RADIUS_FACTOR * cal.radius(model.eps) if cal.c1 > 0 else None
    if radius is not None:
        over = np.flatnonzero(scan.exc[:n] > radius)
        if over.size:
            scan.exit_idx[over] = stability_scan(model, x0[over], head, radius).exit_index
    if horizon > head:
        scan.run(rows[seeds], x[seeds], horizon - head, radius, head)
    return scan.records(horizon, n), cal, radius


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
    reports: tuple = ()

    @property
    def n_excluded(self) -> int:
        """Points at or below the floor, left out of the fit."""
        return int(np.sum(~self.used))

    @property
    def degenerate(self) -> bool:
        """Fewer than two points above the floor: no slope."""
        return int(np.sum(self.used)) < 2

    @property
    def ratios(self) -> np.ndarray:
        vals = np.exp(self.y_log)
        return vals[1:] / vals[:-1]


def _ols(x: np.ndarray, y: np.ndarray) -> tuple[float, float, float]:
    """The package's one least-squares rule: slope, intercept and R^2 of y on x."""
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
    slope = intercept = r2 = float("nan")
    if int(np.sum(used)) >= 2:
        slope, intercept, r2 = _ols(x[used], np.log(values[used]))
    return FitReport(mode=mode, slope=slope, intercept=intercept, r_squared=r2, x=x,
                     y_log=np.log(np.maximum(values, 1e-300)), used=used, reports=reports)


def order_scaling_check(model_family: Callable, x0, m: int, eps_grid: Sequence[float],
                        scheme: str = "newton") -> FitReport:
    """Fit the scaling exponent of |X_{m+1} - X_m| along a map family.

    ``model_family`` must map the grid parameter to a map that tends to the
    identity as the parameter goes to 0 (see
    `mapflow.maps.near_identity_family`); only then does the difference of
    consecutive interpolation orders scale like the (m+1)-st power.  For
    catalog families the fitted slope satisfies slope >= m + 1 - 0.2.

    The differences max|X_{m+1} - X_m| are fitted against log(eps) by
    `fit_log_law` at a floor of 1e-15 (mode "vs_log_eps").  Raises
    DegenerateFit when that fit excludes any point (e.g. for integrable
    maps, whose windows are exactly polynomial).
    """
    eps_grid = np.asarray(list(eps_grid), dtype=float)
    if eps_grid.size < 4:
        raise FitFailed("need at least 4 grid points")
    diffs = np.empty(eps_grid.size)
    for i, e in enumerate(eps_grid):
        mp = model_family(float(e))
        try:
            lo = interpolating_vf(mp, x0, m, scheme)
            hi = interpolating_vf(mp, x0, m + 1, scheme)
        except Exception as exc:  # noqa: BLE001 - re-raise with fit context
            raise FitFailed(f"field evaluation failed at eps={e:g}: {exc}") from exc
        diffs[i] = float(np.max(np.abs(hi - lo)))
    fit = fit_log_law(np.log(eps_grid), diffs, "vs_log_eps", floor=1e-15)
    if fit.n_excluded:
        raise DegenerateFit("order differences at the numerical floor")
    return fit


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
    from .hamiltonian import distance_to_identity, embedding_error, optimal_order

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
