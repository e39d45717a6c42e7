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

    V_*(phi) = (1/n) sum_{k=0}^{n-1} s(I_*, phi + k omega_*).  Requires a
    generating-form model; evaluation is by direct n-term summation.
    """
    if model.form != "generating" or model.s is None:
        raise FormMismatch("resonant average requires a generating-form model with s")
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
    exit_index = None
    if budget < 0:  # the block's orbit would step backward
        raise ValueError("steps must be nonnegative")
    if model.eps == 0.0:
        # the sqrt(eps) scaling collapses: the block is the identity on the
        # resonant torus and the orbit never exits
        X = np.tile(x0, (budget + 1, 1))
    else:
        r1 = nmodel.radii.r1
        parts = [x0[None]]
        for part in BlockMap(model, site, "nucleus").windows(x0, budget):
            outside = np.sum(part[:, :d] ** 2, axis=-1) > r1 * r1
            if np.any(outside):
                parts.append(part[: np.argmax(outside) + 1])
                exit_index = sum(len(p) for p in parts) - 1
                break
            parts.append(part)
        X = np.concatenate(parts)
    Js = X[:, :d]
    centered = X.copy()
    centered[:, d:] -= 0.5 * site.n * nmodel.sqrt_eps * (Js @ nmodel.hessian.T)
    Es = nucleus_energy(nmodel, centered)
    return TrappedOrbitRecord(x=X, energy=Es, exit_index=exit_index,
                              max_step_dE=float(np.max(np.abs(np.diff(Es)), initial=0.0)),
                              max_abs_J=float(np.max(np.linalg.norm(Js, axis=-1))),
                              budget=budget)


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
