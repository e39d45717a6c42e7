"""Quasi-integrable symplectic map models and their elementary dynamics.

A map acts on action-angle coordinates (I, phi) in R^d x R^d.  Angles are
tracked as full lifts (never reduced mod 1); periodic coefficient functions
reduce their angle argument internally.  Two representations are supported:

* explicit form::

    I'   = I + eps * a(I, phi)
    phi' = phi + omega(I) + eps * b(I, phi)

* generating form, defined implicitly through a scalar function s that is
  1-periodic in every angle::

    I'   = I - eps * ds/dphi(I', phi)
    phi' = phi + omega(I') + eps * ds/dI(I', phi)

The implicit step is resolved by plain Picard iteration, which contracts
whenever sup|g| over the search ball is below R/(d+1); see `implicit_solve`.

All stepping is built on one unguarded step body, `_step`, and one windowed
loop, `propagate`, which checks the domain once per window.

All coefficient callables are expected to broadcast over leading axes, i.e.
accept arrays of shape (..., d).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .errors import (
    ContractionViolated,
    DomainEscape,
    FormMismatch,
    NoConvergence,
    NotResonant,
)

MAX_PICARD_ITER = 100
PICARD_TOL = 1e-14

#: map steps per `propagate` call in the confinement scan and block orbits
WINDOW = 2048


@dataclass(frozen=True)
class PhasePoint:
    """A lifted action-angle state.

    ``I`` holds actions, ``phi`` the angle lift in full turns.  The angle is
    deliberately not reduced mod 1 so that rotation numbers and n-step
    displacements remain observable.
    """

    I: np.ndarray
    phi: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "I", np.atleast_1d(np.asarray(self.I, dtype=float)))
        object.__setattr__(self, "phi", np.atleast_1d(np.asarray(self.phi, dtype=float)))
        if self.I.shape != self.phi.shape:
            raise ValueError(f"I and phi must share a shape, got {self.I.shape} vs {self.phi.shape}")

    @property
    def d(self) -> int:
        return self.I.shape[-1]

    def as_flat(self) -> np.ndarray:
        """Concatenate to a phase vector (I_1..I_d, phi_1..phi_d)."""
        return np.concatenate([self.I, self.phi], axis=-1)

    @staticmethod
    def from_flat(x: np.ndarray) -> "PhasePoint":
        x = np.asarray(x, dtype=float)
        d = x.shape[-1] // 2
        return PhasePoint(x[..., :d], x[..., d:])

    def is_finite(self) -> bool:
        return bool(np.all(np.isfinite(self.I)) and np.all(np.isfinite(self.phi)))


@dataclass(frozen=True)
class DomainSpec:
    """Geometry and sup-norm bound data for a map's analyticity domain.

    The action domain is the Euclidean ball B(center, R) widened by sigma;
    r is the angle strip width.  sigma and r are treated as user-supplied
    bound parameters (no complex continuation is performed).  The norms are
    sup norms of the effective perturbation data over the real domain and
    feed the a-priori orbit bounds with constants C1 = norm_a and
    C2 = norm_omega_prime * norm_a / 2 + norm_b.
    """

    center: np.ndarray
    R: float
    sigma: float
    r: float
    nu: float
    nu2: float
    norm_a: float = 0.0
    norm_b: float = 0.0
    norm_omega_prime: float = 0.0
    norm_s: float = 0.0
    norm_h0pp: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "center", np.atleast_1d(np.asarray(self.center, dtype=float)))
        for name in ("R", "sigma", "r", "nu", "nu2"):
            if getattr(self, name) <= 0:
                raise ValueError(f"DomainSpec.{name} must be positive")
        if self.nu > self.nu2 + 1e-15:
            raise ValueError("convexity bounds must satisfy nu <= nu2")
        for name in ("norm_a", "norm_b", "norm_omega_prime", "norm_s", "norm_h0pp"):
            if getattr(self, name) < 0:
                raise ValueError(f"DomainSpec.{name} must be nonnegative")

    def dist_to_ball(self, I: np.ndarray) -> np.ndarray:
        """Euclidean distance from actions I (..., d) to the ball B(center, R)."""
        x = np.asarray(I) - self.center
        return np.maximum(np.sqrt(np.add.reduce(x * x, axis=-1)) - self.R, 0.0)

    def contains_extended(self, I: np.ndarray) -> np.ndarray:
        """The domain rule: dist(I, ball) <= sigma.  NaN actions are outside."""
        return self.dist_to_ball(I) <= self.sigma

    @property
    def C1(self) -> float:
        return self.norm_a

    @property
    def C2(self) -> float:
        return 0.5 * self.norm_omega_prime * self.norm_a + self.norm_b


@dataclass(frozen=True)
class MapModel:
    """A quasi-integrable exact symplectic map in explicit or generating form.

    Integrable data: ``h0`` (scalar), ``omega = h0'`` and ``hess = h0''``.
    Explicit form supplies the perturbation fields ``a`` and ``b``;
    generating form supplies ``s`` and its first derivatives ``s_I`` (w.r.t.
    the implicit new action) and ``s_phi``.  Optional second derivatives of s
    (``s_II``, ``s_Iphi``, ``s_phiphi``) enable analytic Jacobians.

    At eps = 0 both forms reduce to the integrable twist (I, phi + omega(I)).
    Instances are immutable; construct a fresh instance per eps value.
    """

    d: int
    form: str  # "explicit" | "generating"
    eps: float
    h0: Callable[[np.ndarray], np.ndarray]
    omega: Callable[[np.ndarray], np.ndarray]
    hess: Callable[[np.ndarray], np.ndarray]
    domain: DomainSpec
    a: Optional[Callable] = None
    b: Optional[Callable] = None
    s: Optional[Callable] = None
    s_I: Optional[Callable] = None
    s_phi: Optional[Callable] = None
    s_II: Optional[Callable] = None
    s_Iphi: Optional[Callable] = None
    s_phiphi: Optional[Callable] = None
    a_I: Optional[Callable] = None
    a_phi: Optional[Callable] = None
    b_I: Optional[Callable] = None
    b_phi: Optional[Callable] = None
    #: generating term does not depend on the new action: the implicit step
    #: collapses to one explicit evaluation (holds for all catalog maps) and
    #: batched stepping involves no cross-batch reductions
    s_action_independent: bool = False
    name: str = "custom"

    def __post_init__(self):
        if self.form not in ("explicit", "generating"):
            raise ValueError(f"unknown map form {self.form!r}")
        if self.eps < 0:
            raise ValueError("eps must be nonnegative")
        if self.form == "generating" and self.eps > 0 and (self.s_phi is None or self.s_I is None):
            raise ValueError("generating form requires s_I and s_phi callbacks")

    @property
    def dim(self) -> int:
        return 2 * self.d

    # -- flat-vector interface used by the interpolation/flow machinery ----

    def apply_flat(self, x: np.ndarray) -> np.ndarray:
        """One map step on flat phase vectors of shape (..., 2d)."""
        x = np.asarray(x, dtype=float)
        I, phi = x[..., : self.d], x[..., self.d:]
        In, pn = step_arrays(self, I, phi)
        return np.concatenate([In, pn], axis=-1)

    def inverse_flat(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        I, phi = x[..., : self.d], x[..., self.d:]
        In, pn = inverse_step_arrays(self, I, phi)
        return np.concatenate([In, pn], axis=-1)


def _frac(phi):
    """Reduce an angle lift to the fundamental domain [0, 1)."""
    return phi - np.floor(phi)


def _check_contraction(g, y0: np.ndarray, R: float) -> None:
    """Probe sup|g| < R/(d+1) at y0 and y0 +- R/2 along each axis, with a
    safety factor of 2 (the true sup of a black-box g is not computable)."""
    d = y0.shape[-1]
    probes = [y0]
    for j in range(d):
        e = np.zeros(d)
        e[j] = 0.5 * R
        probes.append(y0 + e)
        probes.append(y0 - e)
    M = 2.0 * max(float(np.max(np.abs(g(p)))) for p in probes)
    if M >= R / (d + 1):
        raise ContractionViolated(
            f"probe estimate M={M:.3g} violates M < R/(d+1) = {R / (d + 1):.3g}"
        )


def _picard(g, y0, tol=PICARD_TOL, max_iter=MAX_PICARD_ITER):
    """Picard iteration for y = y0 + g(y), batched over leading axes.

    Returns the iterate y whose residual |y0 + g(y) - y|_inf (max over the
    batch) was just measured at or below tol, so the result is certified
    without a further evaluation of g.
    """
    y = y0 + g(y0)
    for _ in range(max_iter):
        y_next = y0 + g(y)
        if float(np.max(np.abs(y_next - y))) <= tol:
            return y
        y = y_next
    raise NoConvergence(f"Picard iteration did not reach tol={tol:g} in {max_iter} steps")


def implicit_solve(
    g: Callable[[np.ndarray], np.ndarray],
    y0: np.ndarray,
    R: float,
    tol: float = PICARD_TOL,
    max_iter: int = MAX_PICARD_ITER,
) -> np.ndarray:
    """Solve y = y0 + g(y) by Picard iteration inside the ball B(y0, R).

    The contraction precondition sup|g| < R/(d+1) is estimated by probing
    (see `_check_contraction`); the measured residual of the returned
    iterate backstops the probe estimate.

    Returns y with |y - y0 - g(y)|_inf <= tol.
    """
    y0 = np.atleast_1d(np.asarray(y0, dtype=float))
    _check_contraction(g, y0, R)
    return _picard(g, y0, tol, max_iter)


def _step(model: MapModel, I: np.ndarray, phi: np.ndarray):
    """One unguarded map step on arrays of shape (..., d); angles stay lifts."""
    ph = _frac(phi)
    if model.eps == 0.0:
        return I.copy(), phi + model.omega(I)
    if model.form == "explicit":
        return (I + model.eps * model.a(I, ph),
                phi + model.omega(I) + model.eps * model.b(I, ph))
    if model.s_action_independent:
        # s does not depend on the action, so its derivative s_I vanishes
        In = I - model.eps * model.s_phi(I, ph)
        return In, phi + model.omega(In)
    In = _picard(lambda y: -model.eps * model.s_phi(y, ph), I)
    return In, phi + model.omega(In) + model.eps * model.s_I(In, ph)


def _first_outside(domain: DomainSpec, Is: np.ndarray) -> np.ndarray:
    """Per seed, the index along axis 0 of the first state outside, or -1."""
    inside = domain.contains_extended(Is)
    if inside.all():
        return np.full(inside.shape[1:], -1)
    return np.where(inside.all(axis=0), -1, inside.argmin(axis=0))


def propagate(model: MapModel, I: np.ndarray, phi: np.ndarray, steps: int):
    """Take ``steps`` unguarded map steps from states of shape (..., d).

    Returns the orbit buffers ``Is``, ``ps`` of shape (steps+1, ..., d) and,
    per seed, the index of the first state outside the sigma-extended domain
    from which a step was taken (-1 if none); callers decide what an escape
    means.  A NoConvergence after an escape ends the buffers at the failing
    step's source state and is dropped, so the escape is reported first.
    """
    I = np.asarray(I, dtype=float)
    phi = np.asarray(phi, dtype=float)
    Is = np.empty((steps + 1,) + I.shape)
    ps = np.empty((steps + 1,) + phi.shape)
    Is[0], ps[0] = I, phi
    for k in range(steps):
        try:
            Is[k + 1], ps[k + 1] = _step(model, Is[k], ps[k])
        except NoConvergence:
            first = _first_outside(model.domain, Is[: k + 1])
            if np.all(first < 0):
                raise
            return Is[: k + 1], ps[: k + 1], first
    return Is, ps, _first_outside(model.domain, Is[:steps])


def step_arrays(model: MapModel, I: np.ndarray, phi: np.ndarray):
    """One map step on action/angle arrays of shape (..., d).

    Angles are returned as lifts.  Raises DomainEscape when the input action
    leaves the sigma-extended ball and NoConvergence if the implicit solve
    stalls.
    """
    I = np.asarray(I, dtype=float)
    phi = np.asarray(phi, dtype=float)
    if not np.all(model.domain.contains_extended(I)):
        raise DomainEscape("action outside the sigma-extended ball")
    return _step(model, I, phi)


def inverse_step_arrays(model: MapModel, I: np.ndarray, phi: np.ndarray):
    """One inverse map step, available for generating-form and integrable maps.

    For the generating form the roles of (I, phi) and (I', phi') in the
    implicit system are exchanged: phi is solved by the same contraction,
    then I follows explicitly.
    """
    I = np.asarray(I, dtype=float)
    phi = np.asarray(phi, dtype=float)
    if model.eps == 0.0 or (model.form == "explicit" and model.domain.norm_a == 0.0
                            and model.domain.norm_b == 0.0):
        return I.copy(), phi - model.omega(I)
    if model.form != "generating":
        raise FormMismatch("inverse step requires a generating-form map (or an integrable one)")
    base = phi - model.omega(I)
    ph_prev = _picard(lambda y: -model.eps * model.s_I(I, _frac(y)), base)
    I_prev = I + model.eps * model.s_phi(I, _frac(ph_prev))
    return I_prev, ph_prev


def step(model: MapModel, x: PhasePoint) -> PhasePoint:
    """Apply the map once to a phase point, keeping the angle lift.

    Raises DomainEscape outside the sigma-extended action ball and
    NoConvergence when the implicit solve cannot be certified or stalls.
    """
    if not np.all(model.domain.contains_extended(x.I)):
        raise DomainEscape("action outside the sigma-extended ball")
    if model.form == "generating" and model.eps > 0:
        ph = _frac(x.phi)
        try:
            _check_contraction(lambda y: -model.eps * model.s_phi(y, ph), x.I,
                               model.domain.sigma)
        except ContractionViolated as exc:
            raise NoConvergence(f"implicit step not certified: {exc}") from exc
    out = PhasePoint(*_step(model, x.I, x.phi))
    if not out.is_finite():
        raise DomainEscape("map produced non-finite phase point")
    return out


def iterate(model: MapModel, x0: PhasePoint, n: int) -> list[PhasePoint]:
    """Orbit segment [x0, F(x0), ..., F^n(x0)] with lifted angles.

    Step failures propagate with the failing orbit index attached.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    out = [x0]
    for k in range(n):
        try:
            out.append(step(model, out[-1]))
        except DomainEscape as exc:
            raise DomainEscape(f"orbit left the domain at step {k + 1}: {exc}",
                               index=k + 1) from exc
        except NoConvergence as exc:
            raise NoConvergence(f"implicit solve failed at step {k + 1}: {exc}") from exc
    return out


def orbit_arrays(model: MapModel, I0: np.ndarray, phi0: np.ndarray, n: int):
    """Batched orbit: returns arrays of shape (n+1, ..., d) for I and phi.

    Raises DomainEscape indexed by the first step taken from outside the domain.
    """
    Is, ps, first = propagate(model, I0, phi0, n)
    if first.max() >= 0:
        k = int(first[first >= 0].min()) + 1
        raise DomainEscape(f"orbit left the domain at step {k}", index=k)
    return Is, ps


def shifted_lift(model: MapModel, x0: PhasePoint, n: int, omega_star: np.ndarray) -> PhasePoint:
    """n-step lift shifted by the resonant rotation: (I_n, phi_n - n*omega_star).

    Requires n * omega_star to be integer to 1e-9; near a fully resonant
    torus the result stays close to x0.
    """
    omega_star = np.atleast_1d(np.asarray(omega_star, dtype=float))
    if n < 1:
        raise ValueError("n must be positive")
    res = np.abs(n * omega_star - np.round(n * omega_star))
    if np.max(res) > 1e-9:
        raise NotResonant(f"n*omega_star is not integer to 1e-9 (residual {np.max(res):.3g})")
    xs = iterate(model, x0, n)
    xn = xs[-1]
    return PhasePoint(xn.I, xn.phi - n * omega_star)


def jacobian(model: MapModel, x: PhasePoint) -> np.ndarray:
    """Analytic Jacobian of one map step, ordered as d(I', phi')/d(I, phi).

    Requires derivative callbacks: a_I/a_phi/b_I/b_phi for the explicit form,
    the second derivatives of s for the generating form (implicit
    differentiation of the generating system).
    """
    d = model.d
    I, ph = x.I, _frac(x.phi)
    Om = model.hess(I).reshape(d, d)
    if model.eps == 0.0:
        J = np.eye(2 * d)
        J[d:, :d] = Om
        return J
    e = model.eps
    if model.form == "explicit":
        need = (model.a_I, model.a_phi, model.b_I, model.b_phi)
        if any(f is None for f in need):
            raise FormMismatch("explicit-form Jacobian requires a/b derivative callbacks")
        J = np.zeros((2 * d, 2 * d))
        J[:d, :d] = np.eye(d) + e * model.a_I(I, ph).reshape(d, d)
        J[:d, d:] = e * model.a_phi(I, ph).reshape(d, d)
        J[d:, :d] = Om + e * model.b_I(I, ph).reshape(d, d)
        J[d:, d:] = np.eye(d) + e * model.b_phi(I, ph).reshape(d, d)
        return J
    need = (model.s_II, model.s_Iphi, model.s_phiphi)
    if any(f is None for f in need):
        raise FormMismatch("generating-form Jacobian requires second derivatives of s")
    In = implicit_solve(lambda y: -e * model.s_phi(y, ph), I, R=model.domain.sigma)
    S_II = model.s_II(In, ph).reshape(d, d)
    S_Ip = model.s_Iphi(In, ph).reshape(d, d)  # d^2 s / dI dphi
    S_pp = model.s_phiphi(In, ph).reshape(d, d)
    Omn = model.hess(In).reshape(d, d)
    # I' = I - e s_phi(I', phi):  (E + e s_phi_I) dI' = dI - e s_phiphi dphi
    A = np.eye(d) + e * S_Ip.T  # d(s_phi)/dI' has entries d2s/dphi_i dI_j
    dIn_dI = np.linalg.solve(A, np.eye(d))
    dIn_dp = np.linalg.solve(A, -e * S_pp)
    # phi' = phi + omega(I') + e s_I(I', phi)
    B = Omn + e * S_II
    J = np.zeros((2 * d, 2 * d))
    J[:d, :d] = dIn_dI
    J[:d, d:] = dIn_dp
    J[d:, :d] = B @ dIn_dI
    J[d:, d:] = np.eye(d) + e * S_Ip + B @ dIn_dp
    return J


def symplectic_matrix(d: int) -> np.ndarray:
    """Standard symplectic J for z = (I, phi): zdot = J grad H."""
    J = np.zeros((2 * d, 2 * d))
    J[:d, d:] = -np.eye(d)
    J[d:, :d] = np.eye(d)
    return J


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------

TWO_PI = 2.0 * np.pi


def _quad_h0(I):
    return 0.5 * np.sum(np.asarray(I) ** 2, axis=-1)


def _identity_omega(I):
    return np.asarray(I, dtype=float)


def _identity_hess_factory(d):
    def hess(I):
        I = np.asarray(I)
        out = np.zeros(I.shape[:-1] + (d, d))
        out[...] = np.eye(d)
        return out
    return hess


def _standard_s(I, phi):
    return -np.cos(TWO_PI * phi[..., 0]) / TWO_PI**2

def _standard_s_phi(I, phi):
    return np.sin(TWO_PI * phi) / TWO_PI

def _standard_s_I(I, phi):
    return np.zeros_like(np.asarray(I, dtype=float))

def _zero_matrix(I, phi):
    I = np.asarray(I)
    d = I.shape[-1]
    return np.zeros(I.shape[:-1] + (d, d))

def _standard_s_phiphi(I, phi):
    out = _zero_matrix(I, phi)
    out[..., 0, 0] = np.cos(TWO_PI * phi[..., 0])
    return out


def _froeschle_s_factory(eta):
    def s(I, phi):
        p1, p2 = phi[..., 0], phi[..., 1]
        return -(np.cos(TWO_PI * p1) + np.cos(TWO_PI * p2)
                 + eta * np.cos(TWO_PI * (p1 + p2))) / TWO_PI**2

    def s_phi(I, phi):
        p1, p2 = phi[..., 0], phi[..., 1]
        cross = eta * np.sin(TWO_PI * (p1 + p2))
        g1 = (np.sin(TWO_PI * p1) + cross) / TWO_PI
        g2 = (np.sin(TWO_PI * p2) + cross) / TWO_PI
        return np.stack([g1, g2], axis=-1)

    def s_phiphi(I, phi):
        p1, p2 = phi[..., 0], phi[..., 1]
        cc = eta * np.cos(TWO_PI * (p1 + p2))
        out = _zero_matrix(I, phi)
        out[..., 0, 0] = np.cos(TWO_PI * p1) + cc
        out[..., 0, 1] = cc
        out[..., 1, 0] = cc
        out[..., 1, 1] = np.cos(TWO_PI * p2) + cc
        return out

    return s, s_phi, s_phiphi


def catalog(name: str, eps: float, **params) -> MapModel:
    """Construct a catalog map: "twist", "standard" or "froeschle2".

    All catalog entries use h0 = |I|^2/2 (so omega is the identity), the
    Euclidean action ball B(0, 1) widened by sigma = 0.5, angle strip r = 1,
    and carry closed-form sup-norm bounds for the perturbation data.
    """
    if name == "twist":
        d = int(params.pop("d", 1))
        if params:
            raise ValueError(f"unknown twist parameters {sorted(params)}")
        dom = DomainSpec(center=np.zeros(d), R=1.0, sigma=0.5, r=1.0, nu=1.0, nu2=float(d),
                         norm_a=0.0, norm_b=0.0, norm_omega_prime=1.0, norm_s=0.0,
                         norm_h0pp=1.0)
        return MapModel(d=d, form="explicit", eps=float(eps), h0=_quad_h0,
                        omega=_identity_omega, hess=_identity_hess_factory(d), domain=dom,
                        a=lambda I, p: np.zeros_like(I), b=lambda I, p: np.zeros_like(I),
                        a_I=_zero_matrix, a_phi=_zero_matrix, b_I=_zero_matrix,
                        b_phi=_zero_matrix, name="twist")
    if name == "standard":
        if params:
            raise ValueError(f"unknown standard-map parameters {sorted(params)}")
        dom = DomainSpec(center=np.zeros(1), R=1.0, sigma=0.5, r=1.0, nu=1.0, nu2=1.0,
                         norm_a=1.0 / TWO_PI, norm_b=1.0 / TWO_PI, norm_omega_prime=1.0,
                         norm_s=1.0 / TWO_PI**2, norm_h0pp=1.0)
        return MapModel(d=1, form="generating", eps=float(eps), h0=_quad_h0,
                        omega=_identity_omega, hess=_identity_hess_factory(1), domain=dom,
                        s=_standard_s, s_I=_standard_s_I, s_phi=_standard_s_phi,
                        s_II=_zero_matrix, s_Iphi=_zero_matrix, s_phiphi=_standard_s_phiphi,
                        s_action_independent=True, name="standard")
    if name == "froeschle2":
        eta = float(params.pop("eta", 0.3))
        if params:
            raise ValueError(f"unknown froeschle2 parameters {sorted(params)}")
        s, s_phi, s_phiphi = _froeschle_s_factory(eta)
        dom = DomainSpec(center=np.zeros(2), R=1.0, sigma=0.5, r=1.0, nu=1.0, nu2=2.0,
                         norm_a=(1.0 + abs(eta)) / TWO_PI, norm_b=(1.0 + abs(eta)) / TWO_PI,
                         norm_omega_prime=1.0, norm_s=(2.0 + abs(eta)) / TWO_PI**2,
                         norm_h0pp=1.0)
        return MapModel(d=2, form="generating", eps=float(eps), h0=_quad_h0,
                        omega=_identity_omega, hess=_identity_hess_factory(2), domain=dom,
                        s=s, s_I=lambda I, p: np.zeros_like(np.asarray(I, dtype=float)),
                        s_phi=s_phi, s_II=_zero_matrix, s_Iphi=_zero_matrix,
                        s_phiphi=s_phiphi, s_action_independent=True, name="froeschle2")
    raise ValueError(f"unknown catalog map {name!r}")


def nonexact_shear(eps: float) -> MapModel:
    """Test map (I, phi) -> (I + eps, phi + I): symplectic but not exact.

    Its loop-action defect on a phi-winding loop equals eps per winding turn,
    which makes it the reference counterexample for exactness diagnostics.
    """
    d = 1
    dom = DomainSpec(center=np.zeros(d), R=1.0, sigma=0.5, r=1.0, nu=1.0, nu2=1.0,
                     norm_a=1.0, norm_b=0.0, norm_omega_prime=1.0, norm_h0pp=1.0)
    return MapModel(d=d, form="explicit", eps=float(eps), h0=_quad_h0,
                    omega=_identity_omega, hess=_identity_hess_factory(d), domain=dom,
                    a=lambda I, p: np.ones_like(I), b=lambda I, p: np.zeros_like(I),
                    a_I=_zero_matrix, a_phi=_zero_matrix, b_I=_zero_matrix,
                    b_phi=_zero_matrix, name="nonexact_shear")


def near_identity_family(model: MapModel) -> Callable[[float], MapModel]:
    """Embed a map into the family tangent to the identity at parameter 0.

    The member at parameter mu has generating data mu * (h0 + eps * s): both
    the rotation and the perturbation scale with mu, so the family's distance
    to the identity is O(mu) on a fixed domain.  At mu = 1 the original map
    is recovered.  This is the family under which the interpolating field has
    a genuine order-(m+1) scaling; the raw eps-family is quasi-integrable but
    not near-identity, and its finite differences are only O(eps).
    """
    if model.form != "generating":
        raise FormMismatch("near_identity_family requires a generating-form model")
    if model.s_phi is None or model.s_I is None:
        raise FormMismatch("near_identity_family needs the s derivative callbacks")
    base_omega, base_hess, base_h0 = model.omega, model.hess, model.h0
    eps0 = model.eps

    def member(mu: float) -> MapModel:
        mu = float(mu)
        return replace(
            model,
            eps=mu,
            h0=lambda I: mu * base_h0(I),
            omega=lambda I: mu * base_omega(I),
            hess=lambda I: mu * base_hess(I),
            s=(lambda I, p: eps0 * model.s(I, p)) if model.s else None,
            s_I=lambda I, p: eps0 * model.s_I(I, p),
            s_phi=lambda I, p: eps0 * model.s_phi(I, p),
            s_II=(lambda I, p: eps0 * model.s_II(I, p)) if model.s_II else None,
            s_Iphi=(lambda I, p: eps0 * model.s_Iphi(I, p)) if model.s_Iphi else None,
            s_phiphi=(lambda I, p: eps0 * model.s_phiphi(I, p)) if model.s_phiphi else None,
            name=f"{model.name}_mu",
        )

    return member
