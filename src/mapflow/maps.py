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

The implicit step is resolved by plain Picard iteration (`_picard`), which
contracts whenever sup|g| over the search ball is below R/(d+1).  It is the
one solve of the steps, the inverse steps, `jacobian` and the solved
cross-form fields, and each batch row stops where its own residual meets
the tolerance, so a batched solve is its one-point solves bit for bit.

Every step, forward or inverse, runs through `propagate`, one windowed
kernel that checks the domain once per call.  Trigonometric generating
terms are held as data (`TrigTerm`, which keeps no state); their models
step both ways in `_propagate_trig`, which runs one point on Python floats
(`_propagate_point`) and every larger batch in the row program of a
`_KickWork` built per call, both read from the term's `_KickPlan` and
bitwise equal.  `_step` and `_step_back` are the forward and inverse
bodies of callback models.  `_orbits` is the one orbit engine, both ways,
and the one place where a step fails.

Every function takes flat phase vectors of shape (..., 2d), ordered
(I, phi), and the kernel steps them in one buffer of that layout.
`MapModel.orbit` is the one stepping method, with a signed step count;
`apply` and `inverse` are its one-step cases.  Separate action and angle
arrays are passed only to `_step` and `_step_back`, whose callbacks take
them.

All coefficient callables are expected to broadcast over leading axes, i.e.
accept arrays of shape (..., d).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple, Optional

import numpy as np

from .errors import DomainEscape, FormMismatch, NoConvergence

MAX_PICARD_ITER = 100
PICARD_TOL = 1e-14

#: map steps per `propagate` call of `_orbits`, in orbits and scans.
#: Results do not depend on it.  At 256, a window's orbit buffers and the
#: scan's per-window statistics at 100 seeds x d = 2 are each under 0.5 MB
#: (an orbit buffer is 257 x 200 doubles), so they stay in cache and the
#: scan's traced peak is about 1.9 MB instead of 15 MB at 2048.
WINDOW = 256


@dataclass(frozen=True, eq=False)
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


@dataclass(frozen=True, eq=False)
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
        """One map step, ``orbit(x, 1)[1]``."""
        return self.orbit(x, 1)[1]

    def inverse(self, x: np.ndarray) -> np.ndarray:
        """One inverse map step, ``orbit(x, -1)[1]``: generating-form and
        integrable maps only; any other map raises FormMismatch."""
        return self.orbit(x, -1)[1]

    def orbit(self, x0: np.ndarray, steps: int) -> np.ndarray:
        """Orbit [x0, F(x0), ..., F^steps(x0)], shape (|steps|+1, ..., 2d),
        by inverse steps when ``steps`` is negative: the windows of `windows`
        at stride 1 or -1, which raises for an escape, a non-finite last
        state (DomainEscape) and a stalled implicit solve (NoConvergence)."""
        x0 = np.asarray(x0, dtype=float)
        return np.concatenate([x0[None], *windows(self, x0, abs(steps), -1 if steps < 0 else 1)])


def _frac(phi):
    """Reduce an angle lift to the fundamental domain [0, 1)."""
    return phi - np.floor(phi)


def _picard(g, y0):
    """Picard iteration for y = y0 + g(y), batched over leading axes.

    Each row (last axis) is held at the first iterate whose own residual
    |y0 + g(y) - y|_inf measured at most `PICARD_TOL`: it needs no further
    call of g, the last call of g is at the y returned, and for a g that
    acts row by row a batch is its one-row solves bit for bit.
    """
    y = y0 + g(y0)
    for _ in range(MAX_PICARD_ITER):
        y_next = y0 + g(y)
        done = np.max(np.abs(y_next - y), axis=-1, keepdims=True) <= PICARD_TOL
        if done.all():
            return y
        y = np.where(done, y, y_next)
    raise NoConvergence(f"Picard iteration did not reach tol={PICARD_TOL:g} "
                        f"in {MAX_PICARD_ITER} steps")


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


def _step_back(model: MapModel, I: np.ndarray, phi: np.ndarray):
    """One unguarded inverse map step on arrays of shape (..., d), for
    callback models (a fused-trig model steps back in `_propagate_trig`).

    A generating-form map solves its implicit system with the roles of
    (I, phi) and (I', phi') exchanged: phi by `_picard` (skipped when s is
    action-independent, where the start solves it), then I explicitly.  An
    integrable map (eps = 0, or an explicit map whose a and b are both
    `_zero_field`) undoes the twist.  Any other map raises FormMismatch.
    """
    if model.eps == 0.0 or (model.form == "explicit" and model.a is _zero_field
                            and model.b is _zero_field):
        return I, phi - model.omega(I)
    if model.form != "generating":
        raise FormMismatch("inverse step requires a generating-form map (or an integrable one)")
    ph = phi - model.omega(I)  # the solution when s_I vanishes
    if not model.s_action_independent:
        ph = _picard(lambda y: -model.eps * model.s_I(I, _frac(y)), ph)
    return I + model.eps * model.s_phi(I, _frac(ph)), ph


def _first_outside(domain: DomainSpec, Is: np.ndarray) -> np.ndarray:
    """Per seed, the index along axis 0 of the first state outside, or -1."""
    inside = domain.contains_extended(Is)
    if inside.all():
        return np.full(inside.shape[1:], -1)
    return np.where(inside.all(axis=0), -1, inside.argmin(axis=0))


def _fused_term(model: MapModel) -> Optional[TrigTerm]:
    """The `TrigTerm` whose own callback is the model's s_phi, when `_step`
    and `_step_back` reduce to the fused trig body with it: the identity
    omega is in place too.  A `replace` that swaps either callback, as
    `near_identity_family` does, falls back to `_step` and `_step_back`."""
    t = getattr(model.s_phi, "__self__", None)
    if (isinstance(t, TrigTerm) and model.form == "generating" and model.eps > 0.0
            and model.s_action_independent and model.omega is _identity_omega):
        return t
    return None


def _propagate_trig(eps: float, term: TrigTerm, x: np.ndarray, steps: int):
    """`_step` of a fused-trig model, `_step_back` for a negative ``steps``,
    on preallocated component-major rows.

    One point (n = 1) steps in `_propagate_point`, on Python floats; every
    other batch runs the row program below, on a `_KickWork` built for the
    call.  The orbit is stored as (|steps|+1, 2d, n) and returned in the
    point-major layout (|steps|+1, ..., 2d) as a strided view of that
    storage, never a copy: the transpose only swaps strides and the reshape
    only splits the point axis.  A forward step reduces the angles into the
    work's rows, runs its kick program and divides by 2 pi (s_phi), then
    takes eps times it off the actions and adds the new actions to the
    angles: `_step`'s operations with the term's callbacks, in its order
    (frac, s_phi, times eps, I - ., phi + I').  A backward step takes the
    actions off the angles first, then reduces those, kicks and adds eps
    times the kick to the actions: `_step_back`'s (phi' - I', frac, s_phi,
    times eps, I' + .).  So every state is bitwise equal to stepping `_step`
    or `_step_back`, at any batch size.
    """
    shape, d = x.shape, term.d
    n, back, count = x.size // (2 * d), steps < 0, abs(steps)
    if n == 1:
        return _propagate_point(eps, term._plan, x, steps)
    xs = np.empty((count + 1, 2 * d, n))
    xs[0] = x.reshape(n, 2 * d).T
    Is, ps = xs[:, :d], xs[:, d:]
    work = _KickWork(term._plan, n)
    # grad and the consumed angles serve as scratch rows around the program
    ops, G, two_pi = work.ops, work.G, work.two_pi
    ang, grad, eps = work.angles, work.grad, np.array(eps)
    I0, p0 = Is[0], ps[0]
    for I1, p1 in zip(Is[1:], ps[1:]):
        if back:
            np.subtract(p0, I0, p1)
        src = p1 if back else p0  # the angles the kick reads
        np.floor(src, grad)
        np.subtract(src, grad, ang)
        for f, args in ops:
            f(*args)
        np.divide(G, two_pi, grad)
        np.multiply(grad, eps, ang)
        if back:
            np.add(I0, ang, I1)
        else:
            np.subtract(I0, ang, I1)
            np.add(p0, I1, p1)
        I0, p0 = I1, p1
    return xs.transpose(0, 2, 1).reshape((count + 1,) + shape)


def _dot(r: list, terms: list) -> float:
    """sum of w * r[i] over (i, w) in terms, left to right, on floats; 0.0
    if empty.  These are `_lincomb`'s bits: x * 1 is x, and a + x * w is
    a - x * |w| for w < 0."""
    acc = None
    for i, w in terms:
        acc = r[i] * w if acc is None else acc + r[i] * w
    return 0.0 if acc is None else acc


def _propagate_point(eps: float, plan: _KickPlan, x: np.ndarray, steps: int):
    """`_propagate_trig` at one point, where numpy's per-call dispatch would
    cost more than the arithmetic: the term's kick plan, whose weights are
    Python floats, walked on Python floats.

    Every value takes the row program's operations in its order: backward,
    the actions taken off the angles first; angles reduced by ``p % 1.0``
    (bitwise ``p - floor(p)``, and NaN where an angle is not finite), the
    non-unit phases, sin(2 pi row) over the angle and phase rows, the scaled
    rows, the component sums, then I' = I - (G / 2 pi) eps and
    phi' = phi + I' (backward, I = I' + (G / 2 pi) eps).  Python's float
    arithmetic is numpy's float64 arithmetic, and `math.sin` is the libm
    sin that numpy's float64 sin calls, so every state is bitwise the row
    program's.  (A numpy build with a vectorized double sin of its own
    would part the two bodies;
    `test_point_body_bitwise_equals_its_row_in_a_batch` would show it.)
    Returns the (|steps|+1, ..., 2d) orbit, as `_propagate_trig` does.
    """
    full = (abs(steps) + 1,) + x.shape
    phases, scales, sums = plan.phases, plan.scales, plan.sums
    sin, two_pi, eps, back = math.sin, TWO_PI, float(eps), steps < 0
    xs = x.ravel().tolist()  # the orbit, state after state
    I, p = xs[: plan.d], xs[plan.d:]  # updated in place
    components = range(plan.d)
    for _ in range(abs(steps)):
        if back:
            for j in components:
                p[j] -= I[j]
        r, y = [], []  # the reduced angles, and the rows after the sine
        for q in p:
            a = q % 1.0
            r.append(a)
            y.append(sin(a * two_pi))
        for _, terms in phases:
            y.append(sin(_dot(r, terms) * two_pi))
        for src, c, _ in scales:
            y.append(y[src] * c)
        if sums is not None:
            y = [_dot(y, s) for s in sums]
        if back:
            for j in components:
                I[j] += y[j] / two_pi * eps
        else:
            for j in components:
                i = I[j] - y[j] / two_pi * eps
                I[j] = i
                p[j] += i
        xs += I
        xs += p
    return np.array(xs).reshape(full)


def propagate(model: MapModel, x: np.ndarray, steps: int):
    """Take |steps| unguarded map steps from the states x of shape (..., 2d),
    inverse steps when ``steps`` is negative.

    Returns the orbit ``xs`` of shape (|steps|+1, ..., 2d) and, per seed,
    the index of its first escape (-1 if none); `_orbits` adds the
    last-state rule.  Forward, that is the first state outside the
    sigma-extended domain from which a step was taken; backward, the first
    result outside, less one (a result is the start of a forward step).
    Models with a `TrigTerm` in place step through `_propagate_trig` both
    ways: one point on Python floats, a larger batch in the term's row
    program.  Callback models step through `_step` or `_step_back` on the
    (I, phi) halves of the orbit buffer; a NoConvergence after an escape
    ends the orbit at the failing step's source state and is dropped, so
    the escape is reported first.
    """
    x = np.asarray(x, dtype=float)
    d, back, n = model.d, int(steps < 0), abs(steps)
    term = _fused_term(model)
    if term is not None:
        xs = _propagate_trig(model.eps, term, x, steps)
        return xs, _first_outside(model.domain, xs[back : n + back, ..., :d])
    body = _step_back if back else _step
    xs = np.empty((n + 1,) + x.shape)
    xs[0] = x
    Is, ps = xs[..., :d], xs[..., d:]
    for k in range(n):
        try:
            Is[k + 1], ps[k + 1] = body(model, Is[k], ps[k])
        except NoConvergence:
            first = _first_outside(model.domain, Is[back : k + 1])
            if np.all(first < 0):
                raise
            return xs[: k + 1], first
    return xs, _first_outside(model.domain, Is[back : n + back])


def _orbits(model: MapModel, x0: np.ndarray, count: int, every: int):
    """The orbit engine: steps the seeds x0 (n, 2d) over ``count`` samples at
    stride ``every`` (backward if negative), one `propagate` call of at most
    ``WINDOW`` steps per ``(live, xs, first)`` it yields: the seeds' flat
    indices, their orbit from the window's start, and each one's first
    escape in it, or -1.  The one rule: a state is an escape when a step is
    taken from it outside the domain (see `propagate`), a last state when it
    is not finite.  An escaped seed is dropped; no view of a window outlives it."""
    stride, sign, done = abs(every), -1 if every < 0 else 1, 0
    total, per = count * stride, max(1, WINDOW // stride) * stride
    live, x = np.arange(len(x0)), x0
    while done < total:
        xs, first = propagate(model, x, sign * min(per, total - done))
        end = len(xs) - 1
        done, x = done + end, xs[end]
        if done == total and not np.isfinite(x).all():
            first[(first < 0) & ~np.isfinite(x).all(-1)] = end
        yield live, xs, first
        keep = first < 0
        if done == total or len(keep) and not keep.any():  # last window, or all escaped
            return
        live, x = live[keep], x[keep]  # copies, not views of xs
        del xs


def windows(model: MapModel, x0: np.ndarray, count: int, every: int):
    """Yield F^every(x0), ..., F^(count every)(x0) as arrays of shape
    (k, ..., 2d), one per window of `_orbits` (backward for a negative
    ``every``), up to its first escape; then DomainEscape is raised, indexed
    by the sample not completed (count + 1 if the last state is not finite)."""
    if count < 0:
        raise ValueError("steps must be nonnegative")
    what, stride = "inverse orbit" if every < 0 else "orbit", abs(every)
    x0 = np.asarray(x0, dtype=float)
    lo = 0
    for _, xs, first in _orbits(model, x0.reshape(-1, x0.shape[-1]), count, every):
        xs = xs[stride::stride]
        escaped = first.max(initial=-1) >= 0
        k = int(first[first >= 0].min()) // stride if escaped else len(xs)
        yield xs[:k].reshape((k,) + x0.shape)
        if escaped:
            raise DomainEscape(f"{what} left the domain or reached a non-finite state "
                               f"before sample {lo + k + 1}", index=lo + k + 1)
        lo += k


def jacobian(model: MapModel, x: np.ndarray) -> np.ndarray:
    """Analytic Jacobian d(I', phi')/d(I, phi) of one map step at the phase
    vectors x of shape (..., 2d), of shape (..., 2d, 2d): one callback call
    per derivative on the whole batch, and each point's matrix bit for bit
    its one-point call.

    Requires derivative callbacks: a_I/a_phi/b_I/b_phi for the explicit form,
    the second derivatives of s for the generating form (implicit
    differentiation of the generating system, at the new action that
    `_step` solves for, bit for bit the one `apply` steps to); else raises
    FormMismatch.
    """
    d = model.d
    x = np.asarray(x, dtype=float)
    eye, sq = np.eye(d), x.shape[:-1] + (d, d)
    I, ph = x[..., :d], _frac(x[..., d:])
    J = np.zeros(x.shape + (2 * d,))
    if model.eps == 0.0:
        J[..., :d, :d] = J[..., d:, d:] = eye
        J[..., d:, :d] = model.hess(I).reshape(sq)
        return J
    e = model.eps
    if model.form == "explicit":
        need = (model.a_I, model.a_phi, model.b_I, model.b_phi)
        if any(f is None for f in need):
            raise FormMismatch("explicit-form Jacobian requires a/b derivative callbacks")
        J[..., :d, :d] = eye + e * model.a_I(I, ph).reshape(sq)
        J[..., :d, d:] = e * model.a_phi(I, ph).reshape(sq)
        J[..., d:, :d] = model.hess(I).reshape(sq) + e * model.b_I(I, ph).reshape(sq)
        J[..., d:, d:] = eye + e * model.b_phi(I, ph).reshape(sq)
        return J
    need = (model.s_II, model.s_Iphi, model.s_phiphi)
    if any(f is None for f in need):
        raise FormMismatch("generating-form Jacobian requires second derivatives of s")
    In = _step(model, I, x[..., d:])[0]  # I' by the step's own solve
    S_II = model.s_II(In, ph).reshape(sq)
    S_Ip = model.s_Iphi(In, ph).reshape(sq)  # d^2 s / dI dphi
    S_pp = model.s_phiphi(In, ph).reshape(sq)
    # I' = I - e s_phi(I', phi):  (E + e s_phi_I) dI' = dI - e s_phiphi dphi
    A = eye + e * np.swapaxes(S_Ip, -1, -2)  # d(s_phi)/dI' has entries d2s/dphi_i dI_j
    dIn_dI = np.linalg.solve(A, np.broadcast_to(eye, A.shape))
    dIn_dp = np.linalg.solve(A, -e * S_pp)
    # phi' = phi + omega(I') + e s_I(I', phi)
    B = model.hess(In).reshape(sq) + e * S_II
    J[..., :d, :d] = dIn_dI
    J[..., :d, d:] = dIn_dp
    J[..., d:, :d] = B @ dIn_dI
    J[..., d:, d:] = eye + e * S_Ip + B @ dIn_dp
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


def _identity_hess(I):
    I = np.asarray(I)
    return np.zeros(I.shape[:-1] + (1, 1)) + np.eye(I.shape[-1])


def _zero_field(I, phi):
    """a = 0 or b = 0 of an explicit map; `_step_back` recognises it."""
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


@dataclass(frozen=True, eq=False)
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

    def s_phi(self, I, phi):
        """The kick program of the fused body, on the rows of a `_KickWork`
        built for the call."""
        phi = np.asarray(phi, dtype=float)
        d = self.d
        n = phi.size // d
        work = _KickWork(self._plan, n)
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
    """Row indices of the kick and its weights as Python floats, fixed per
    term: `_KickWork` records its program from them, and `_propagate_point`
    walks them on floats.

    Rows of Y: the d angles, one phase row per mode that is not a unit
    vector e_i (a unit mode reads its angle row), then one row per mode
    whose coefficient is not 1.  X mirrors the angle and phase rows.
    """

    d: int
    rows: int                   # rows of Y
    sin_rows: int               # rows of X, the angle and phase rows of Y
    phases: list                # (row, [(angle row, k_ji)]) per non-unit mode
    scales: list                # (sine row, c_j, row)
    sums: Optional[list]        # [(row, k_ji)] per component; None: row i alone

    @classmethod
    def of(cls, K: np.ndarray, c: np.ndarray) -> "_KickPlan":
        d = K.shape[1]
        unit = {j: int(np.argmax(k)) for j, k in enumerate(K)
                if np.count_nonzero(k) == 1 and k.sum() == 1}
        extra = [j for j in range(len(K)) if j not in unit]
        row = {**unit, **{j: d + r for r, j in enumerate(extra)}}
        phases = [(row[j], [(int(i), float(K[j, i])) for i in np.flatnonzero(K[j])])
                  for j in extra]
        scaled = [j for j in range(len(K)) if c[j] != 1]
        top = d + len(extra)
        scales = [(row[j], float(c[j]), top + t) for t, j in enumerate(scaled)]
        row.update((j, top + t) for t, j in enumerate(scaled))  # now c_j sin(2 pi theta_j)
        sums = [[(row[j], float(K[j, i])) for j in range(len(K)) if K[j, i]] for i in range(d)]
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
    consumed.  A work belongs to the one call that builds it: each
    `_propagate_trig` call at two points and more, and each `s_phi` call;
    one point steps in `_propagate_point` and builds no work.  At small
    batches the per-call cost of a ufunc dominates, so no call writes over
    its own input (numpy's overlap check would double its cost), the outputs
    are positional and the constants are 0-d arrays.
    """

    two_pi = np.array(TWO_PI)

    def __init__(self, plan: _KickPlan, n: int):
        # one buffer: the rows of Y, of X, of the sums G (if any), scratch
        d, rows, top = plan.d, plan.rows, plan.sin_rows
        g = rows + top
        buf = np.empty((g + (0 if plan.sums is None else d) + 1, n))
        Y, X, tmp = buf[:top], buf[rows:g], buf[-1]
        self.angles, self.grad = buf[:d], buf[rows:rows + d]
        self.G = self.angles if plan.sums is None else buf[g:g + d]
        ops = []
        for o, terms in plan.phases:
            ops += _lincomb([(buf[i], k) for i, k in terms], buf[o], tmp)
        ops += [(np.multiply, (Y, self.two_pi, X)), (np.sin, (X, Y))]
        ops += [(np.multiply, (buf[src], np.array(cj), buf[dst])) for src, cj, dst in plan.scales]
        for i, s_i in enumerate(plan.sums or ()):
            ops += _lincomb([(buf[j], k) for j, k in s_i], buf[g + i], tmp)
        self.ops = tuple(ops)

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
                    omega=_identity_omega, hess=_identity_hess, domain=dom,
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
                        omega=_identity_omega, hess=_identity_hess,
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
                    omega=_identity_omega, hess=_identity_hess,
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
