"""Fully resonant tori: simultaneous approximation, covering, scaled blocks.

A frequency omega is approximated by a rational omega_* with n omega_* in
Z^d and |omega - omega_*| < 1/(n N^{1/d}); the convexity of h0 pulls the
approximation back to an action point I_* with omega(I_*) = omega_*.  Around
each site the n-step lift is rescaled into a near-identity block map

    J -> J + (eps/rho) sum a,   phi -> phi + sum (omega(I_k) - omega_*) + eps sum b

with either the covering radius rho_n = gamma eps^{1/2(d+1)} / n ("lochak")
or the pendulum scale sqrt(eps) ("nucleus").
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import maps
from .errors import DomainEscape, NoConvergence, NotResonant, OutOfDomain, SearchExhausted
from .maps import MapModel, propagate

#: slack added to the Dirichlet inequality against ties at machine precision
DIRICHLET_SLACK = 1e-15

#: search budget: exhaustive scan is capped at N <= 10^6 / d
DIRICHLET_BUDGET = 1_000_000

#: frequency inversion: residual target, Newton steps, and halvings per Newton step
FREQ_TOL = 1e-12
FREQ_MAX_ITER = 50
FREQ_MAX_HALVINGS = 5


@dataclass(frozen=True)
class ResonanceSite:
    """A fully resonant torus and its stability neighbourhood radius."""

    n: int
    omega_star: np.ndarray
    I_star: np.ndarray
    rho_n: float

    def __post_init__(self):
        object.__setattr__(self, "omega_star",
                           np.atleast_1d(np.asarray(self.omega_star, dtype=float)))
        object.__setattr__(self, "I_star",
                           np.atleast_1d(np.asarray(self.I_star, dtype=float)))
        if self.n < 1:
            raise ValueError("site period n must be positive")
        res = np.max(np.abs(self.n * self.omega_star - np.round(self.n * self.omega_star)))
        if res > 1e-9:
            raise NotResonant(f"n*omega_star integrality fails by {res:.3g}")
        if self.rho_n <= 0:
            raise ValueError("rho_n must be positive")


@dataclass(frozen=True)
class CoveringParams:
    """Scales of the resonance covering at a given eps and gamma."""

    eps: float
    gamma: float
    d: int
    N_eps: float
    rho_eps: float
    gamma0: float
    r0: float
    gamma_below_threshold: bool

    def rho_n(self, n: int) -> float:
        return self.rho_eps / n


def dirichlet(omega: np.ndarray, N: float) -> tuple[int, np.ndarray]:
    """Smallest n < N with n*omega within 1/(n N^{1/d}) of an integer vector.

    Exhaustive scan (the inequality is re-verified before returning, with a
    1e-15 slack against strict-inequality ties in floating point).  Existence
    is guaranteed for exact arithmetic; SearchExhausted therefore signals a
    floating-point edge case, not a theory failure.
    """
    omega = np.atleast_1d(np.asarray(omega, dtype=float))
    d = omega.shape[0]
    if N <= 1:
        raise ValueError("N must exceed 1")
    if N > DIRICHLET_BUDGET / d:
        raise ValueError(f"N={N:g} exceeds the exhaustive search budget")
    n_top = int(math.ceil(N))
    root = N ** (1.0 / d)
    for n in range(1, n_top):
        scaled = n * omega
        omega_star = np.round(scaled) / n
        err = float(np.max(np.abs(omega - omega_star)))
        if err < 1.0 / (n * root) + DIRICHLET_SLACK:
            return n, omega_star
    raise SearchExhausted(f"no certified approximation below N={N:g}")


def resonant_action(model: MapModel, omega_star: np.ndarray,
                    I_guess: np.ndarray) -> np.ndarray:
    """Invert the frequency map: solve omega(I) = omega_star by damped Newton.

    Strong convexity (nu > 0) keeps the Hessian nonsingular, so the undamped
    step is well-defined; the residual-increase halving only guards against
    finite-precision overshoot near the edge of the ball.
    """
    omega_star = np.atleast_1d(np.asarray(omega_star, dtype=float))
    I = np.atleast_1d(np.asarray(I_guess, dtype=float)).copy()
    dom = model.domain
    if dom.dist_to_ball(I) > 1e-12:
        raise OutOfDomain("initial guess outside the action ball")
    res = model.omega(I) - omega_star
    rnorm = float(np.max(np.abs(res)))
    for _ in range(FREQ_MAX_ITER):
        if rnorm <= FREQ_TOL:
            return I
        H = model.hess(I).reshape(model.d, model.d)
        full = np.linalg.solve(H, -res)
        step_scale = 1.0
        for _ in range(FREQ_MAX_HALVINGS + 1):
            trial = I + step_scale * full
            trial_res = model.omega(trial) - omega_star
            trial_norm = float(np.max(np.abs(trial_res)))
            if trial_norm < rnorm:
                break
            step_scale *= 0.5
        I, res, rnorm = trial, trial_res, trial_norm
        if not dom.contains_extended(I):
            raise OutOfDomain("Newton iterate left the sigma-extended ball")
    if rnorm <= FREQ_TOL:
        return I
    raise NoConvergence(f"frequency inversion stalled at residual {rnorm:.3g}")


def covering_params(model: MapModel, eps: float, gamma: float) -> CoveringParams:
    """Covering scales N_eps, rho_eps and the model thresholds gamma0, r0.

    N_eps = eps^{-d/2(d+1)}, rho_eps = gamma eps^{1/2(d+1)},
    gamma0^2 = 18 d |a| / nu, r0^2 = nu / (6 d |h0''|).
    """
    if eps <= 0 or gamma <= 0:
        raise ValueError("eps and gamma must be positive")
    d = model.d
    dom = model.domain
    expo = 1.0 / (2.0 * (d + 1))
    N_eps = eps ** (-d * expo)
    rho_eps = gamma * eps**expo
    gamma0 = math.sqrt(18.0 * d * dom.norm_a / dom.nu)
    r0 = math.sqrt(dom.nu / (6.0 * d * dom.norm_h0pp))
    return CoveringParams(eps=eps, gamma=gamma, d=d, N_eps=N_eps, rho_eps=rho_eps,
                          gamma0=gamma0, r0=r0, gamma_below_threshold=gamma < gamma0)


def c4_estimate(model: MapModel, eps: float, gamma: float) -> float:
    """Catalog-specific constant bounding the block's distance to identity.

    The two bracketed terms of the near-identity estimate give
    C4 = max(C1/gamma^2, C3 + C2 eps^{1/2(d+1)} / gamma) with C3 = 2|omega'|;
    the block displacement then satisfies eps_n <= C4 n rho_n.
    """
    dom = model.domain
    expo = 1.0 / (2.0 * (model.d + 1))
    C3 = 2.0 * dom.norm_omega_prime
    return max(dom.C1 / gamma**2, C3 + dom.C2 * eps**expo / gamma)


def locate_site(model: MapModel, I0: np.ndarray, gamma: float,
                N: Optional[float] = None) -> ResonanceSite:
    """Find the resonance site covering the action I0.

    Applies the simultaneous-approximation search to omega(I0) with
    N = N_eps by default, then inverts the frequency map from I0.
    """
    cp = covering_params(model, model.eps, gamma)
    N_eff = cp.N_eps if N is None else N
    omega0 = model.omega(np.atleast_1d(np.asarray(I0, dtype=float)))
    n, omega_star = dirichlet(omega0, N_eff)
    I_star = resonant_action(model, omega_star, I0)
    return ResonanceSite(n=n, omega_star=omega_star, I_star=I_star, rho_n=cp.rho_n(n))


class BlockMap:
    """The rescaled n-step lift around a resonance site.

    Maps (J, phi) -> (Jbar, phibar) with I = I_* + rho J and the angle lift
    shifted by n omega_* per application.  ``scaling`` chooses rho:
    "lochak" uses the covering radius rho_n, "nucleus" uses sqrt(eps).
    Implements the flat-map protocol (``apply``, ``inverse``, ``orbit``) on
    phase vectors of shape (..., 2d); ``inverse`` needs an invertible model.
    """

    def __init__(self, model: MapModel, site: ResonanceSite, scaling: str = "lochak"):
        if scaling == "lochak":
            rho = site.rho_n
        elif scaling == "nucleus":
            if model.eps <= 0:
                raise ValueError("nucleus scaling needs eps > 0")
            rho = math.sqrt(model.eps)
        else:
            raise ValueError(f"unknown scaling {scaling!r}")
        self.model = model
        self.site = site
        self.scaling = scaling
        self.rho = rho
        self.n = site.n
        self.d = model.d

    def _split(self, x):
        x = np.asarray(x, dtype=float)
        return x[..., : self.d], x[..., self.d:]

    def apply(self, x: np.ndarray) -> np.ndarray:
        """One block, B(x): the last state of ``orbit(x, 1)``."""
        return self.orbit(x, 1)[1]

    def inverse(self, x: np.ndarray) -> np.ndarray:
        """B^-1(x): n inverse steps of the model, on flat unscaled vectors."""
        J, phi = self._split(x)
        y = np.concatenate([self.site.I_star + self.rho * J,
                            phi + self.n * self.site.omega_star], axis=-1)
        for _ in range(self.n):
            y = self.model.inverse(y)
        return np.concatenate([(y[..., : self.d] - self.site.I_star) / self.rho,
                               y[..., self.d:]], axis=-1)

    def windows(self, x0: np.ndarray, blocks: int):
        """Yield B(x0), ..., B^blocks(x0) as arrays (k, ..., 2d), one per window.

        A window is one `propagate` call over at most ``maps.WINDOW`` map steps
        (at least one block), sampled every n-th state.  The orbit is stepped
        unscaled, with k n omega_* taken off block k only when sampling, so it
        does not depend on the window length.  After a step from outside the
        domain, the blocks completed before it are yielded, then DomainEscape
        is raised with the index of the block that could not be completed.
        """
        J, phi = self._split(x0)
        I = self.site.I_star + self.rho * J
        n, shift = self.n, self.n * self.site.omega_star
        per = max(1, maps.WINDOW // n)
        for lo in range(0, blocks, per):
            Is, ps, first = propagate(self.model, I, phi, min(per, blocks - lo) * n)
            k = np.arange(lo + 1, lo + 1 + (Is.shape[0] - 1) // n)
            out = np.concatenate([(Is[n::n] - self.site.I_star) / self.rho,
                                  ps[n::n] - k.reshape((-1,) + (1,) * phi.ndim) * shift],
                                 axis=-1)
            if first.max() >= 0:
                ok = int(first[first >= 0].min()) // n
                yield out[:ok]
                raise DomainEscape(f"block orbit left the domain in block {lo + ok + 1}",
                                   index=lo + ok + 1)
            yield out
            I, phi = Is[-1], ps[-1]

    def orbit(self, x0: np.ndarray, blocks: int) -> np.ndarray:
        """Block orbit [x0, B(x0), ..., B^blocks(x0)], shape (blocks+1, ..., 2d).

        As for `MapModel.orbit`, a non-finite last state is an escape,
        indexed blocks + 1.  ``apply`` is ``orbit(x, 1)[1]``.
        """
        x0 = np.asarray(x0, dtype=float)
        out = np.concatenate([x0[None], *self.windows(x0, blocks)])
        if not np.isfinite(out[-1]).all():
            raise DomainEscape(f"block orbit reached a non-finite state in block {blocks}",
                               index=blocks + 1)
        return out


def scaled_block(model: MapModel, site: ResonanceSite, scaling: str = "lochak") -> BlockMap:
    """Construct the rescaled resonance-block map for a site."""
    return BlockMap(model, site, scaling)
