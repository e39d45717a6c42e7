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
from .errors import NoConvergence, NotResonant, OutOfDomain, SearchExhausted
from .maps import MapModel

#: slack added to the Dirichlet inequality against ties at machine precision
DIRICHLET_SLACK = 1e-15

#: search budget: exhaustive scan is capped at N <= 10^6 / d
DIRICHLET_BUDGET = 1_000_000
#: candidates in the scan's first chunk, whose length then doubles: a
#: chunk costs about two one-candidate steps however short, so the N of a
#: default site search (N_eps, 10 at eps = 1e-4 in d = 1) takes one chunk
DIRICHLET_FIRST = 64
#: most candidates per chunk of the scan: a chunk's arrays are 128 kB each
DIRICHLET_CHUNK = 1 << 14

#: frequency inversion: residual target, Newton steps, and halvings per Newton step
FREQ_TOL = 1e-12
FREQ_MAX_ITER = 50
FREQ_MAX_HALVINGS = 5


@dataclass(frozen=True, eq=False)
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

    The candidates are tested in chunks, `DIRICHLET_FIRST` long and then
    of doubling length up to `DIRICHLET_CHUNK`, each with the one-candidate
    operations on arrays (round(n omega) / n, the error and the bound, all
    elementwise in doubles), so the n and omega_* returned are those of the
    candidate loop bit for bit.
    """
    omega = np.atleast_1d(np.asarray(omega, dtype=float))
    d = omega.shape[0]
    if N <= 1:
        raise ValueError("N must exceed 1")
    if N > DIRICHLET_BUDGET / d:
        raise ValueError(f"N={N:g} exceeds the exhaustive search budget")
    n_top = int(math.ceil(N))
    root = N ** (1.0 / d)
    lo, size = 1, DIRICHLET_FIRST
    while lo < n_top:
        hi = min(n_top, lo + size)
        n, err = np.arange(lo, hi, dtype=float), 0.0
        for w in omega:  # column by column: a reduction over the short axis is slow
            err = np.maximum(err, np.abs(w - np.round(n * w) / n))
        hit = np.flatnonzero(err < 1.0 / (n * root) + DIRICHLET_SLACK)
        if hit.size:
            k = lo + int(hit[0])
            return k, np.round(k * omega) / k
        lo, size = hi, min(2 * size, DIRICHLET_CHUNK)
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
    Implements the flat-map protocol on phase vectors of shape (..., 2d):
    ``orbit`` with a signed block count, one call of the orbit engine
    `maps.windows` at stride n, or -n backward (which needs an invertible
    model); ``apply`` and ``inverse`` are its one-block cases.
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

    def apply(self, x: np.ndarray) -> np.ndarray:
        """One block, B(x) = ``orbit(x, 1)[1]``."""
        return self.orbit(x, 1)[1]

    def inverse(self, x: np.ndarray) -> np.ndarray:
        """One block back, B^-1(x) = ``orbit(x, -1)[1]``."""
        return self.orbit(x, -1)[1]

    def windows(self, x0: np.ndarray, blocks: int):
        """Yield B^s(x0), ..., B^blocks(x0), s = +-1 the sign of ``blocks``,
        as arrays (k, ..., 2d), one per window of `maps.windows` at stride
        s n, which raises for escapes in blocks.  The orbit is stepped from
        the unshifted lift; block k is rescaled here, with k n omega_* taken
        off its angles (added, backward), so the blocks do not depend on the
        window length."""
        x0 = np.asarray(x0, dtype=float)
        J, phi = x0[..., : self.d], x0[..., self.d:]
        I_star, rho = self.site.I_star, self.rho
        sign = -1 if blocks < 0 else 1
        shift = sign * self.n * self.site.omega_star
        k = 0
        for xs in maps.windows(self.model, np.concatenate([I_star + rho * J, phi], axis=-1),
                               abs(blocks), sign * self.n):
            ks = np.arange(k + 1, k + 1 + len(xs)).reshape((-1,) + (1,) * phi.ndim)
            k += len(xs)
            yield np.concatenate([(xs[..., : self.d] - I_star) / rho,
                                  xs[..., self.d:] - ks * shift], axis=-1)

    def orbit(self, x0: np.ndarray, blocks: int) -> np.ndarray:
        """Block orbit [x0, B(x0), ..., B^blocks(x0)], shape (|blocks|+1, ..., 2d),
        backward for a negative count."""
        x0 = np.asarray(x0, dtype=float)
        return np.concatenate([x0[None], *self.windows(x0, blocks)])


def scaled_block(model: MapModel, site: ResonanceSite, scaling: str = "lochak") -> BlockMap:
    """Construct the rescaled resonance-block map for a site."""
    return BlockMap(model, site, scaling)
