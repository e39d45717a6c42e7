"""Leading-order pendulum model at a resonance nucleus.

In the sqrt(eps)-scaled neighbourhood of a fully resonant torus the n-step
dynamics is governed to leading order by the slow energy

    E(J, phi) = K(J) + V_*(phi),
    K(J) = (h0''(I_*) J) . J / 2,
    V_*(phi) = (1/n) sum_{k<n} s(I_*, phi + k omega_*),

whose level sets confine trapped orbits: {E <= 2|s|} sits inside the ball
|J|_2 <= r1 with r1^2 = 10 |s| / nu.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

from .errors import FormMismatch
from .maps import MapModel, _frac
from .resonance import BlockMap, ResonanceSite

#: j . omega_* within this distance of an integer counts as resonant
RESONANT_MODE_TOL = 1e-9


class NucleusRadii(NamedTuple):
    r0_hat: float
    r1: float
    R_star: float


def nucleus_radii(model: MapModel) -> NucleusRadii:
    """Confinement radii of the nucleus in scaled-action units.

    r0_hat^2 = 2 |s| / nu2, r1^2 = 10 |s| / nu, R_*^2 = 11 |s| / nu, so
    r0_hat < r1 < R_* always holds (initial ball, trapping ball, work ball).
    """
    dom = model.domain
    if dom.norm_s <= 0:
        raise ValueError("nucleus radii need a positive generating norm |s|")
    r0_hat = math.sqrt(2.0 * dom.norm_s / dom.nu2)
    r1 = math.sqrt(10.0 * dom.norm_s / dom.nu)
    R_star = math.sqrt(11.0 * dom.norm_s / dom.nu)
    return NucleusRadii(r0_hat=r0_hat, r1=r1, R_star=R_star)


def resonant_average(model: MapModel, site: ResonanceSite, phi: np.ndarray) -> np.ndarray:
    """Average of the generating term over the unperturbed periodic orbit.

    V_*(phi) = (1/n) sum_{k=0}^{n-1} s(I_*, phi + k omega_*).  Requires the
    generating term s; evaluation is by direct n-term summation.
    """
    if model.s is None:
        raise FormMismatch("resonant average needs the generating term s")
    phi = np.asarray(phi, dtype=float)
    I = np.broadcast_to(site.I_star, phi.shape).copy()
    total = None
    for k in range(site.n):
        term = model.s(I, _frac(phi + k * site.omega_star))
        total = term if total is None else total + term
    return total / site.n


@dataclass(frozen=True, eq=False)
class NucleusModel:
    """Pendulum data of a resonance nucleus: quadratic form plus potential."""

    site: ResonanceSite
    hessian: np.ndarray
    V_star: Callable[[np.ndarray], np.ndarray]
    radii: NucleusRadii
    sqrt_eps: float
    model: MapModel

    def K(self, J: np.ndarray) -> np.ndarray:
        J = np.asarray(J, dtype=float)
        return 0.5 * np.einsum("...i,ij,...j->...", J, self.hessian, J)


def build_nucleus(model: MapModel, site: ResonanceSite) -> NucleusModel:
    """Assemble the nucleus model at a site (checks convexity of the Hessian)."""
    H = np.asarray(model.hess(site.I_star), dtype=float).reshape(model.d, model.d)
    if np.max(np.abs(H - H.T)) > 1e-10:
        raise ValueError("Hessian at the site is not symmetric")
    eigs = np.linalg.eigvalsh(H)
    if eigs.min() < model.domain.nu - 1e-9:
        raise ValueError(
            f"Hessian spectrum {eigs.min():.3g} under the declared convexity bound")
    return NucleusModel(site=site, hessian=H,
                        V_star=lambda phi: resonant_average(model, site, phi),
                        radii=nucleus_radii(model), sqrt_eps=math.sqrt(model.eps),
                        model=model)


def nucleus_energy(nmodel: NucleusModel, x: np.ndarray) -> np.ndarray:
    """Slow energy E(J, phi) = K(J) + V_*(phi) at scaled points x = (J, phi)
    of shape (..., 2d)."""
    x = np.asarray(x, dtype=float)
    d = nmodel.model.d
    return nmodel.K(x[..., :d]) + nmodel.V_star(x[..., d:])


@dataclass(frozen=True, eq=False)
class TrappedOrbitRecord:
    """Outcome of a trapped-orbit run in the nucleus."""

    x: np.ndarray          # (steps+1, 2d) scaled points (J, phi), angles as lifts
    energy: np.ndarray     # (steps+1,) slow energy at the centered phase
    exit_index: Optional[int]
    max_step_dE: float
    max_abs_J: float
    budget: int

    @property
    def escaped(self) -> bool:
        return self.exit_index is not None


def trapped_orbit(model: MapModel, site: ResonanceSite, x0: np.ndarray, budget: int,
                  nmodel: Optional[NucleusModel] = None) -> TrappedOrbitRecord:
    """Iterate the sqrt(eps)-scaled block from x0 = (J0, phi0), shape (2d,),
    and monitor the slow energy.

    The orbit exits when |J|_2 leaves the trapping ball of radius r1.  The
    recorded energy samples E_k evaluate E at the drift-centered phase
    (J_k, phi_k - (n sqrt(eps)/2) h0''(I_*) J_k): the block advances angles
    by a full drift after the action kick, so the centered phase is the
    point where the discrete samples track the continuous level set; there
    the per-step energy increment scales like eps^{3/2} instead of eps.
    """
    if nmodel is None:
        nmodel = build_nucleus(model, site)
    d = model.d
    x0 = np.asarray(x0, dtype=float)
    if budget < 0:  # the block's orbit would step backward
        raise ValueError("steps must be nonnegative")
    if model.eps == 0.0:
        # the sqrt(eps) scaling collapses: the block is the identity on the
        # resonant torus and the orbit never exits
        windows, r1 = [np.broadcast_to(x0, (budget, 2 * d))], np.inf
    else:
        windows, r1 = BlockMap(model, site, "nucleus").windows(x0, budget), nmodel.radii.r1
    # the orbit and its energies fill preallocated rows window by window, and
    # each window's energies come from one segment of at most a window's length
    X, Es = np.empty((budget + 1, 2 * d)), np.empty(budget + 1)
    X[0] = x0
    exit_index, end, done, max_dE, max_J = None, 1, 0, 0.0, 0.0
    for part in windows:
        outside = np.sum(part[:, :d] ** 2, axis=-1) > r1 * r1
        if np.any(outside):
            part = part[: np.argmax(outside) + 1]
            exit_index = end + len(part) - 1
        X[end:end + len(part)] = part
        end += len(part)
        if len(part):
            dE, J = _centered_energies(nmodel, site, X, Es, max(done - 1, 0), end)
            max_dE, max_J, done = max(max_dE, dE), max(max_J, J), end
        if exit_index is not None:
            break
    if done == 0:  # no step taken
        max_dE, max_J = _centered_energies(nmodel, site, X, Es, 0, 1)
    return TrappedOrbitRecord(x=X[:end], energy=Es[:end], exit_index=exit_index,
                              max_step_dE=max_dE, max_abs_J=max_J, budget=budget)


def _centered_energies(nmodel: NucleusModel, site: ResonanceSite, X: np.ndarray,
                       Es: np.ndarray, lo: int, hi: int) -> tuple[float, float]:
    """E at the drift-centered phases of the states X[lo:hi] into Es[lo:hi];
    returns the largest |E_{k+1} - E_k| and |J_k|_2 among them.  A segment
    after the first starts at the last state of the one before, so it spans
    the seam's step and holds two states or more: numpy takes a one-row
    ``J @ H.T`` on another BLAS path (gemv), whose bits may differ from a
    batch's."""
    d = nmodel.model.d
    centered = X[lo:hi].copy()
    centered[:, d:] -= 0.5 * site.n * nmodel.sqrt_eps * (centered[:, :d] @ nmodel.hessian.T)
    Es[lo:hi] = nucleus_energy(nmodel, centered)
    return (float(np.max(np.abs(np.diff(Es[lo:hi])), initial=0.0)),
            float(np.max(np.linalg.norm(X[lo:hi, :d], axis=-1))))


def resonant_fourier_check(nmodel: NucleusModel, j: np.ndarray, quad_n: int) -> float:
    """Magnitude of the Fourier coefficient of V_* at integer mode j.

    Trapezoid rule on a quad_n^d uniform grid (exact for trigonometric
    polynomials once quad_n exceeds twice the bandwidth).  Non-resonant
    modes, those with j . omega_* not an integer, must come out below
    1e-10 |s|.
    """
    j = np.atleast_1d(np.asarray(j, dtype=float))
    d = j.shape[0]
    if np.all(j == 0):
        raise ValueError("mode j must be nonzero")
    axes = [np.arange(quad_n) / quad_n for _ in range(d)]
    mesh = np.meshgrid(*axes, indexing="ij")
    phi = np.stack([m.ravel() for m in mesh], axis=-1)
    vals = nmodel.V_star(phi)
    phase = np.exp(-2j * np.pi * (phi @ j))
    coeff = np.mean(vals * phase)
    return float(np.abs(coeff))


def is_resonant_mode(j: np.ndarray, omega_star: np.ndarray) -> bool:
    """Whether j . omega_* lands on an integer (mode survives the averaging)."""
    val = float(np.dot(np.atleast_1d(j), np.atleast_1d(omega_star)))
    return abs(val - round(val)) <= RESONANT_MODE_TOL
