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
loop, `propagate`, which checks the domain once per window.  Generating
terms that are trigonometric polynomials are held as data (`TrigTerm`);
for those maps `propagate` runs the same arithmetic as `_step` in one fused
body that writes into preallocated component-major rows.

Public functions take flat phase vectors of shape (..., 2d), ordered
(I, phi); `MapModel.apply`, `inverse` and `orbit` are the one stepping API.
Separate action and angle arrays appear only inside this kernel: `_step`,
`_propagate_trig` and `propagate`.

All coefficient callables are expected to broadcast over leading axes, i.e.
accept arrays of shape (..., d).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, NamedTuple, Optional

import numpy as np

from .errors import (
    ContractionViolated,
    DomainEscape,
    FormMismatch,
    NoConvergence,
)

MAX_PICARD_ITER = 100
PICARD_TOL = 1e-14

#: map steps per `propagate` call in the confinement scan and block orbits.
#: Results do not depend on it.  At 256, a window's orbit buffers and the
#: scan's per-window statistics at 100 seeds x d = 2 are each under 0.5 MB
#: (an orbit buffer is 257 x 200 doubles), so they stay in cache and the
#: scan's traced peak is about 1.9 MB instead of 15 MB at 2048.
WINDOW = 256


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
        """Euclidean distance from actions I (..., d) to the ball B(center, R).

        A distance too large for a double is inf, which is outside anyway.
        """
        I = np.asarray(I)
        c = self.center
        with np.errstate(over="ignore"):
            # column by column: a reduction over the short last axis is slow
            ss = np.square(I[..., 0] - c[0])
            for j in range(1, c.shape[0]):
                ss += np.square(I[..., j] - c[j])
            return np.maximum(np.sqrt(ss) - self.R, 0.0)

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

    # -- flat-map protocol on phase vectors of shape (..., 2d) ---------------

    def apply(self, x: np.ndarray) -> np.ndarray:
        """One map step on flat phase vectors of shape (..., 2d); angles stay lifts.

        Raises DomainEscape when an input action leaves the sigma-extended
        ball and NoConvergence if the implicit solve stalls.
        """
        x = np.asarray(x, dtype=float)
        I, phi = x[..., : self.d], x[..., self.d:]
        if not np.all(self.domain.contains_extended(I)):
            raise DomainEscape("action outside the sigma-extended ball")
        return np.concatenate(_step(self, I, phi), axis=-1)

    def inverse(self, x: np.ndarray) -> np.ndarray:
        """One inverse map step on flat phase vectors of shape (..., 2d).

        Available for generating-form maps, whose implicit system is solved
        with the roles of (I, phi) and (I', phi') exchanged (phi by the same
        contraction, then I explicitly), and for integrable ones: eps = 0,
        or an explicit map whose a and b are both `_zero_field`.  Any other
        map raises FormMismatch.
        """
        x = np.asarray(x, dtype=float)
        I, phi = x[..., : self.d], x[..., self.d:]
        if self.eps == 0.0 or (self.form == "explicit" and self.a is _zero_field
                               and self.b is _zero_field):
            return np.concatenate([I, phi - self.omega(I)], axis=-1)
        if self.form != "generating":
            raise FormMismatch("inverse step requires a generating-form map (or an integrable one)")
        ph_prev = phi - self.omega(I)  # the solution when s_I vanishes
        if not self.s_action_independent:
            ph_prev = _picard(lambda y: -self.eps * self.s_I(I, _frac(y)), ph_prev)
        I_prev = I + self.eps * self.s_phi(I, _frac(ph_prev))
        return np.concatenate([I_prev, ph_prev], axis=-1)

    def orbit(self, x0: np.ndarray, steps: int) -> np.ndarray:
        """Orbit [x0, F(x0), ..., F^steps(x0)], shape (steps+1, ..., 2d).

        Raises DomainEscape indexed by the first step taken from outside the
        domain.  A non-finite last state is an escape too, indexed steps + 1:
        the step from it is the first one that could not be taken.
        """
        if steps < 0:
            raise ValueError("steps must be nonnegative")
        x0 = np.asarray(x0, dtype=float)
        Is, ps, first = propagate(self, x0[..., : self.d], x0[..., self.d:], steps)
        if first.max() >= 0:
            k = int(first[first >= 0].min()) + 1
            raise DomainEscape(f"orbit left the domain at step {k}", index=k)
        if not (np.isfinite(Is[-1]).all() and np.isfinite(ps[-1]).all()):
            raise DomainEscape(f"orbit reached a non-finite state at step {steps}",
                               index=steps + 1)
        return np.concatenate([Is, ps], axis=-1)


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


def _fused_term(model: MapModel) -> Optional[TrigTerm]:
    """The `TrigTerm` whose own callback is the model's s_phi, when `_step`
    reduces to the fused trig body with it: the identity omega is in place
    too.  A `replace` that swaps either callback, as `near_identity_family`
    does, falls back to `_step`."""
    t = getattr(model.s_phi, "__self__", None)
    if (isinstance(t, TrigTerm) and model.form == "generating" and model.eps > 0.0
            and model.s_action_independent and model.omega is _identity_omega):
        return t
    return None


def _propagate_trig(eps: float, term: TrigTerm, I: np.ndarray, phi: np.ndarray, steps: int):
    """`_step` of a fused-trig model, on preallocated component-major rows.

    The orbit is stored as (steps+1, d, n) and returned in the point-major
    layout (steps+1, ..., d) as strided views of that storage, never a
    copy: the transpose only swaps strides and the reshape only splits the
    point axis.  Each step reduces the angles into the rows of the term's
    `TrigTerm.work` for n points, runs its kick program and divides by 2 pi
    (s_phi), then takes eps times it off the actions and adds the new
    actions to the angles.  These are the operations of `_step` with the
    term's callbacks, in its order (frac, s_phi, times eps, I - ., phi +
    I'), so every state is bitwise equal to stepping `_step`, at any batch
    size.
    """
    shape = I.shape
    d = shape[-1]
    n = I.size // d
    Is = np.empty((steps + 1, d, n))
    ps = np.empty((steps + 1, d, n))
    I0, p0 = Is[0], ps[0]
    I0[...], p0[...] = I.reshape(n, d).T, phi.reshape(n, d).T
    work = term.work(n)
    # grad and the consumed angles serve as scratch rows around the program
    ops, G, two_pi = work.ops, work.G, work.two_pi
    ang, grad, eps = work.angles, work.grad, np.array(eps)
    for I1, p1 in zip(Is[1:], ps[1:]):
        np.floor(p0, grad)
        np.subtract(p0, grad, ang)
        for f, args in ops:
            f(*args)
        np.divide(G, two_pi, grad)
        np.multiply(grad, eps, ang)
        np.subtract(I0, ang, I1)
        np.add(p0, I1, p1)
        I0, p0 = I1, p1
    full = (steps + 1,) + shape
    return Is.transpose(0, 2, 1).reshape(full), ps.transpose(0, 2, 1).reshape(full)


def propagate(model: MapModel, I: np.ndarray, phi: np.ndarray, steps: int):
    """Take ``steps`` unguarded map steps from states of shape (..., d).

    Returns the orbit buffers ``Is``, ``ps`` of shape (steps+1, ..., d) and,
    per seed, the index of the first state outside the sigma-extended domain
    from which a step was taken (-1 if none); callers decide what an escape
    means.  A NoConvergence after an escape ends the buffers at the failing
    step's source state and is dropped, so the escape is reported first.
    Models with a `TrigTerm` in place step through `_propagate_trig`.
    """
    I = np.asarray(I, dtype=float)
    phi = np.asarray(phi, dtype=float)
    term = _fused_term(model)
    if term is not None:
        Is, ps = _propagate_trig(model.eps, term, I, phi, steps)
        return Is, ps, _first_outside(model.domain, Is[:steps])
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


def jacobian(model: MapModel, x: np.ndarray) -> np.ndarray:
    """Analytic Jacobian of one map step at a phase vector x of shape (2d,),
    ordered as d(I', phi')/d(I, phi).

    Requires derivative callbacks: a_I/a_phi/b_I/b_phi for the explicit form,
    the second derivatives of s for the generating form (implicit
    differentiation of the generating system).
    """
    d = model.d
    x = np.asarray(x, dtype=float)
    I, ph = x[:d], _frac(x[d:])
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


def _zero_field(I, phi):
    """a = 0 or b = 0 of an explicit map; `MapModel.inverse` recognises it."""
    return np.zeros_like(I)


def _zero_matrix(I, phi):
    I = np.asarray(I)
    d = I.shape[-1]
    return np.zeros(I.shape[:-1] + (d, d))


def _lincomb(terms, out, tmp) -> list:
    """The calls that put out = sum of w * x over the (x, w) in terms, left
    to right, as (ufunc, args) pairs: recorded here, run by `_run` or by a
    `_KickWork` program, so the arrays are read when the calls run.

    A weight of +-1 is not multiplied out, which saves one ufunc call per
    term at batch 1; an empty sum is zero (the s_phi row of an angle that
    no mode uses).  ``tmp`` is scratch of out's shape.  Outputs are
    positional (see `_KickWork`).
    """
    ops, acc = [], None
    for x, w in terms:
        if acc is None:
            if w != 1:
                ops.append((np.multiply, (x, w, out)))
                x = out
            acc = x
            continue
        if abs(w) != 1:
            ops.append((np.multiply, (x, abs(w), tmp)))
            x = tmp
        ops.append((np.add if w >= 0 else np.subtract, (acc, x, out)))
        acc = out
    if acc is None:
        ops.append((out.fill, (0.0,)))
    elif acc is not out:
        ops.append((np.copyto, (out, acc)))
    return ops


def _run(ops) -> None:
    """Run recorded (ufunc, args) calls in order."""
    for f, args in ops:
        f(*args)


@dataclass(frozen=True)
class TrigTerm:
    """An action-independent trigonometric generating term, held as data::

        s(phi) = -sum_j c_j cos(2 pi k_j . phi) / (2 pi)^2

    with integer modes k_j (the rows of ``modes``, shape (J, d)) and real
    coefficients c_j (``coeffs``, shape (J,)).  The callbacks `s`, `s_I`,
    `s_phi`, `s_phiphi` and the sup norms derive from (K, c).  Phases
    k_j . phi and the sums over modes run left to right over the nonzero
    entries and never multiply by a unit factor.
    """

    modes: np.ndarray
    coeffs: np.ndarray

    def __post_init__(self):
        K = np.asarray(self.modes, dtype=float)
        c = np.asarray(self.coeffs, dtype=float)
        if K.ndim != 2 or K.shape[0] == 0 or c.shape != K.shape[:1]:
            raise ValueError("modes must have shape (J, d) and coeffs (J,), J >= 1")
        if not (np.all(K == np.round(K)) and np.all(np.any(K != 0, axis=1))
                and np.all(np.isfinite(c))):
            raise ValueError("modes must be nonzero integer vectors and coeffs finite")
        object.__setattr__(self, "modes", K.astype(np.int64))
        object.__setattr__(self, "coeffs", c)
        object.__setattr__(self, "_plan", _KickPlan.of(self.modes, c))
        object.__setattr__(self, "_work", None)  # see `work`

    @property
    def d(self) -> int:
        return self.modes.shape[1]

    @property
    def norm_s(self) -> float:
        """sup |s| = sum_j |c_j| / (2 pi)^2."""
        return sum(abs(float(cj)) for cj in self.coeffs) / TWO_PI**2

    @property
    def norm_a(self) -> float:
        """Bound on sup |s_phi|_inf: max_i sum_j |c_j k_ji| / (2 pi)."""
        return max(sum(abs(float(cj) * int(k[i])) for cj, k in zip(self.coeffs, self.modes))
                   for i in range(self.d)) / TWO_PI

    def _cosines(self, phi: np.ndarray) -> list:
        """cos(2 pi k_j . phi) for every mode j, each of shape phi.shape[:-1]."""
        out = []
        for k in self.modes:
            theta, tmp = np.empty(phi.shape[:-1]), np.empty(phi.shape[:-1])
            _run(_lincomb([(phi[..., i], k[i]) for i in np.flatnonzero(k)], theta, tmp))
            out.append(np.cos(TWO_PI * theta))
        return out

    def s(self, I, phi):
        phi = np.asarray(phi, dtype=float)
        acc, tmp = np.empty(phi.shape[:-1]), np.empty(phi.shape[:-1])
        _run(_lincomb(list(zip(self._cosines(phi), self.coeffs)), acc, tmp))
        return -acc / TWO_PI**2

    def s_I(self, I, phi):
        return np.zeros_like(np.asarray(I, dtype=float))

    def work(self, n: int) -> _KickWork:
        """The kick program on rows for n points, kept for the last batch
        size asked for: `s_phi` and `_propagate_trig` share it, so one term
        is not for concurrent threads."""
        work = self._work
        if work is None or work.n != n:
            work = _KickWork(self._plan, n)
            object.__setattr__(self, "_work", work)
        return work

    def s_phi(self, I, phi):
        """The kick program of the fused body, on the rows of `work`."""
        phi = np.asarray(phi, dtype=float)
        d = self.d
        n = phi.size // d
        work = self.work(n)
        work.angles[...] = phi.reshape(n, d).T
        out = np.empty(phi.shape)
        work.kick(out.reshape(n, d).T)
        return out

    def s_phiphi(self, I, phi):
        phi = np.asarray(phi, dtype=float)
        cos = [x if cj == 1 else cj * x for x, cj in zip(self._cosines(phi), self.coeffs)]
        tmp = np.empty(phi.shape[:-1])
        out = np.zeros(phi.shape[:-1] + (self.d, self.d))
        for i in range(self.d):
            for l in range(self.d):
                terms = [(x, k[i] * k[l]) for x, k in zip(cos, self.modes) if k[i] * k[l]]
                if terms:
                    _run(_lincomb(terms, out[..., i, l], tmp))
        return out


class _KickPlan(NamedTuple):
    """Row indices of `_KickWork`, fixed per term.

    Rows of Y: the d angles, one phase row per mode that is not a unit
    vector e_i (a unit mode reads its angle row), then one row per mode
    whose coefficient is not 1.  X mirrors the angle and phase rows.
    """

    d: int
    rows: int                   # rows of Y
    sin_rows: int               # rows of X, the angle and phase rows of Y
    phases: list                # (row, [(angle row, k_ji)]) per non-unit mode
    scales: list                # (sine row, c_j as a 0-d array, row)
    sums: Optional[list]        # [(row, k_ji)] per component; None: row i alone

    @classmethod
    def of(cls, K: np.ndarray, c: np.ndarray) -> "_KickPlan":
        d = K.shape[1]
        unit = {j: int(np.argmax(k)) for j, k in enumerate(K)
                if np.count_nonzero(k) == 1 and k.sum() == 1}
        extra = [j for j in range(len(K)) if j not in unit]
        row = {**unit, **{j: d + r for r, j in enumerate(extra)}}
        phases = [(row[j], [(int(i), K[j, i]) for i in np.flatnonzero(K[j])]) for j in extra]
        scaled = [j for j in range(len(K)) if c[j] != 1]
        top = d + len(extra)
        scales = [(row[j], np.array(c[j]), top + t) for t, j in enumerate(scaled)]
        row.update((j, top + t) for t, j in enumerate(scaled))  # now c_j sin(2 pi theta_j)
        sums = [[(row[j], K[j, i]) for j in range(len(K)) if K[j, i]] for i in range(d)]
        if all(s_i == [(i, 1)] for i, s_i in enumerate(sums)):
            sums = None  # s_phi_i is the sine of angle i alone
        return cls(d, top + len(scaled), top, phases, scales, sums)


class _KickWork:
    """Work rows and the compiled kick program for s_phi of a `TrigTerm`,
    on component-major arrays.

    Component i of the angles and of s_phi is the row ``angles[i]``, resp.
    ``grad[i]``, of n points, so every operation is one element-wise ufunc
    on contiguous rows: no reduction over a short axis, and no dot or
    matmul, whose BLAS kernels could make a row depend on the batch.

    ``ops`` is the kick as a program, recorded once from the plan: a tuple
    of (ufunc, args) calls on these rows, which forms the non-unit phases
    (`_lincomb`), takes sin(2 pi Y) into Y, scales the rows of coefficients
    other than 1 and sums the rows of each component (`_lincomb`) into
    ``G``.  Running it is ``for f, args in ops: f(*args)`` followed by the
    divide of ``G`` by 2 pi into the caller's rows, as `kick` and the
    `_propagate_trig` loop do; the reduced angles in ``angles`` are
    consumed.  At batch 1 the per-call cost of a ufunc dominates, so no
    call writes over its own input (numpy's overlap check would double its
    cost), the outputs are positional and the constants are 0-d arrays.
    """

    two_pi = np.array(TWO_PI)

    def __init__(self, plan: _KickPlan, n: int):
        # one buffer: the rows of Y, of X, of the sums G (if any), scratch
        self.plan, self.n = plan, n
        d, rows, top = plan.d, plan.rows, plan.sin_rows
        g = rows + top
        buf = np.empty((g + (0 if plan.sums is None else d) + 1, n))
        r, Y, X, tmp = list(buf), buf[:top], buf[rows:g], buf[-1]
        self.angles, self.grad = buf[:d], buf[rows:rows + d]
        self.G = self.angles if plan.sums is None else buf[g:g + d]
        ops = []
        for o, terms in plan.phases:
            ops += _lincomb([(r[i], k) for i, k in terms], r[o], tmp)
        ops += [(np.multiply, (Y, self.two_pi, X)), (np.sin, (X, Y))]
        ops += [(np.multiply, (r[src], cj, r[dst])) for src, cj, dst in plan.scales]
        for i, s_i in enumerate(plan.sums or ()):
            ops += _lincomb([(r[j], k) for j, k in s_i], r[g + i], tmp)
        self.ops = tuple(ops)

    def __reduce__(self):
        # a copy or pickle rebuilds the rows: copied views would not alias
        return _KickWork, (self.plan, self.n)

    def kick(self, grad):
        """s_phi into the (d, n) rows ``grad`` from the reduced angles in
        ``angles``.  ``grad`` may be the work's own ``grad`` rows or any
        array outside the work buffer."""
        for f, args in self.ops:
            f(*args)
        np.divide(self.G, self.two_pi, grad)


def _catalog_domain(d: int, norm_a: float = 0.0, norm_b: float = 0.0,
                    norm_s: float = 0.0) -> DomainSpec:
    """B(0, 1) widened by sigma = 0.5, strip r = 1, and the bounds of
    h0 = |I|^2/2, whose Hessian is the identity."""
    return DomainSpec(center=np.zeros(d), R=1.0, sigma=0.5, r=1.0, nu=1.0, nu2=float(d),
                      norm_a=norm_a, norm_b=norm_b, norm_omega_prime=1.0, norm_s=norm_s,
                      norm_h0pp=1.0)


def _trig_model(name: str, eps: float, modes, coeffs) -> MapModel:
    """A catalog generating-form map with h0 = |I|^2/2 and a `TrigTerm`."""
    term = TrigTerm(np.array(modes), np.array(coeffs))
    d = term.d
    # omega is the identity, so the angle kick -eps s_phi has the action kick's norm
    dom = _catalog_domain(d, norm_a=term.norm_a, norm_b=term.norm_a, norm_s=term.norm_s)
    return MapModel(d=d, form="generating", eps=float(eps), h0=_quad_h0,
                    omega=_identity_omega, hess=_identity_hess_factory(d), domain=dom,
                    s=term.s, s_I=term.s_I, s_phi=term.s_phi, s_II=_zero_matrix,
                    s_Iphi=_zero_matrix, s_phiphi=term.s_phiphi, s_action_independent=True,
                    name=name)


CATALOG = ("twist", "standard", "froeschle2")


def catalog(name: str, eps: float, **params) -> MapModel:
    """Construct the catalog map of a name in CATALOG: "twist", "standard" or "froeschle2".

    All catalog entries use h0 = |I|^2/2 (so omega is the identity), the
    Euclidean action ball B(0, 1) widened by sigma = 0.5 and angle strip
    r = 1.  "standard" and "froeschle2" hold their generating terms as a
    `TrigTerm`, from which the callbacks and sup-norm bounds derive.
    """
    if name == "twist":
        d = int(params.pop("d", 1))
        if params:
            raise ValueError(f"unknown twist parameters {sorted(params)}")
        return MapModel(d=d, form="explicit", eps=float(eps), h0=_quad_h0,
                        omega=_identity_omega, hess=_identity_hess_factory(d),
                        domain=_catalog_domain(d), a=_zero_field, b=_zero_field,
                        a_I=_zero_matrix, a_phi=_zero_matrix, b_I=_zero_matrix,
                        b_phi=_zero_matrix, name="twist")
    if name == "standard":
        if params:
            raise ValueError(f"unknown standard-map parameters {sorted(params)}")
        return _trig_model("standard", eps, [[1]], [1.0])
    if name == "froeschle2":
        eta = float(params.pop("eta", 0.3))
        if params:
            raise ValueError(f"unknown froeschle2 parameters {sorted(params)}")
        return _trig_model("froeschle2", eps, [[1, 0], [0, 1], [1, 1]], [1.0, 1.0, eta])
    raise ValueError(f"unknown catalog map {name!r}")


def nonexact_shear(eps: float) -> MapModel:
    """Test map (I, phi) -> (I + eps, phi + I): symplectic but not exact.

    Its loop-action defect on a phi-winding loop equals eps per winding turn,
    which makes it the reference counterexample for exactness diagnostics.
    """
    d = 1
    return MapModel(d=d, form="explicit", eps=float(eps), h0=_quad_h0,
                    omega=_identity_omega, hess=_identity_hess_factory(d),
                    domain=_catalog_domain(d, norm_a=1.0),
                    a=lambda I, p: np.ones_like(I), b=_zero_field,
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
