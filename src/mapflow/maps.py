"""Quasi-integrable symplectic map models and their elementary dynamics.

A map acts on action-angle coordinates (I, phi) in R^d x R^d.  Angles are
tracked as full lifts (never reduced mod 1); periodic coefficient functions
reduce their angle argument internally.  Every map is given by a generating
function: a step is defined implicitly through a scalar function s::

    I'   = I - eps * ds/dphi(I', phi)
    phi' = phi + omega(I') + eps * ds/dI(I', phi)

An s that is 1-periodic in every angle gives an exact symplectic map; one
that is not (`nonexact_shear`) gives a symplectic map that is not exact.

The implicit step is resolved by plain Picard iteration (`_picard`), which
contracts whenever sup|g| over the search ball is below R/(d+1).  It is the
one solve of the steps, the inverse steps, `jacobian` and the solved
cross-form fields, and each batch row stops where its own residual meets
the tolerance, so a batched solve is its one-point solves bit for bit.

Every step, forward or inverse, runs through `propagate`, one windowed
kernel that checks the domain once per call.  Trigonometric generating
terms are held as data (`TrigTerm`, which keeps no state), and every
catalog map is one (the integrable twist has no modes).  At eps > 0 their
models step both ways in `_propagate_trig`, in straight-line bodies that
one compiler (`_kick_body`) writes from the term's `_KickPlan` once per
term, batch size (one point on Python floats, or a batch of rows) and
direction, all bitwise equal.
`_step` and `_step_back` are the forward and inverse bodies of callback
models, and of every model at eps = 0.  `_orbits` is the one orbit
engine, both ways, in windows bounded in states (`WINDOW`), and the one
place where a step fails.

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

import array
import math
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple, Optional

import numpy as np

from .errors import DomainEscape, FormMismatch, NoConvergence

MAX_PICARD_ITER = 100
PICARD_TOL = 1e-14

#: states (steps x live seeds) per `propagate` call of `_orbits`, in orbits
#: and scans; a window takes at least one step (one sample at a stride).
#: Results do not depend on it.  At 25,600, the scan's windows at 100 seeds
#: are 256 steps: a window's orbit buffers and the scan's per-window
#: statistics at d = 2 are each under 0.5 MB (an orbit buffer is 257 x 200
#: doubles), so they stay in cache and the scan's traced peak is about
#: 1.9 MB instead of 15 MB at 2048 steps.  Fewer seeds take longer windows:
#: a pilot run's 10 seeds alone 2,560 steps, one point 25,600.
WINDOW = 25_600
#: steps and seeds from which `_first_outside` tests a window by its seeds'
#: worst corners.  Results do not depend on it: both tests are exact.
CORNER_MIN = 32


@dataclass(frozen=True, eq=False)
class DomainSpec:
    """Geometry and sup-norm bound data for a map's analyticity domain.

    The action domain is the Euclidean ball B(center, R) widened by sigma;
    r is the angle strip width.  sigma and r are treated as user-supplied
    bound parameters (no complex continuation is performed).  The norms are
    sup norms over the real domain: norm_a bounds the action kick
    (I' - I) / eps = -s_phi, norm_b the angle kick
    (phi' - phi - omega(I)) / eps.  They feed the a-priori orbit bounds with
    constants C1 = norm_a and C2 = norm_omega_prime * norm_a / 2 + norm_b.
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
    """A quasi-integrable symplectic map given by a generating function.

    Integrable data: ``h0`` (scalar), ``omega = h0'`` and ``hess = h0''``.
    The perturbation is the generating term ``s`` (optional: only
    diagnostics read its values) with its first derivatives ``s_I`` (w.r.t.
    the implicit new action) and ``s_phi``, required at eps > 0.  Optional
    second derivatives of s (``s_II``, ``s_Iphi``, ``s_phiphi``) enable
    analytic Jacobians.

    At eps = 0 the map is the integrable twist (I, phi + omega(I)).
    Instances are immutable; construct a fresh instance per eps value.
    """

    d: int
    eps: float
    h0: Callable[[np.ndarray], np.ndarray]
    omega: Callable[[np.ndarray], np.ndarray]
    hess: Callable[[np.ndarray], np.ndarray]
    domain: DomainSpec
    s: Optional[Callable] = None
    s_I: Optional[Callable] = None
    s_phi: Optional[Callable] = None
    s_II: Optional[Callable] = None
    s_Iphi: Optional[Callable] = None
    s_phiphi: Optional[Callable] = None
    #: True: `_step` and `_step_back` evaluate s_phi once, at the start action,
    #: and drop s_I (no Picard solve): exact only if s does not depend on the
    #: new action (every catalog map; the fused trig bodies need it), so leave it
    #: False otherwise.  The NaN-escape test models' s_phi reads the start action.
    s_action_independent: bool = False
    name: str = "custom"

    def __post_init__(self):
        if self.eps < 0:
            raise ValueError("eps must be nonnegative")
        if self.eps > 0 and (self.s_phi is None or self.s_I is None):
            raise ValueError("a map with eps > 0 requires s_I and s_phi callbacks")

    # -- flat-map protocol on phase vectors of shape (..., 2d) ---------------

    def apply(self, x: np.ndarray) -> np.ndarray:
        """One map step, ``orbit(x, 1)[1]``."""
        return self.orbit(x, 1)[1]

    def inverse(self, x: np.ndarray) -> np.ndarray:
        """One inverse map step, ``orbit(x, -1)[1]``."""
        return self.orbit(x, -1)[1]

    def orbit(self, x0: np.ndarray, steps: int) -> np.ndarray:
        """Orbit [x0, F(x0), ..., F^steps(x0)], shape (|steps|+1, ..., 2d),
        by inverse steps when ``steps`` is negative: the windows of `windows`
        at stride 1 or -1, which raises for an escape, a non-finite last
        state (DomainEscape) and a stalled implicit solve (NoConvergence)."""
        x0 = np.asarray(x0, dtype=float)
        return np.concatenate([x0[None], *windows(self, x0, abs(steps), -1 if steps < 0 else 1)])


def _frac(phi):
    """Reduce an angle lift to [0, 1); a complex angle by its real part."""
    return phi - np.floor(phi.real)


def _inexact(x) -> np.ndarray:
    """x as an array of x's dtype promoted with float: complex x stays complex."""
    x = np.asarray(x)
    return x.astype(np.promote_types(x.dtype, float), copy=False)


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
    if model.s_action_independent:
        # s does not depend on the action, so its derivative s_I vanishes
        In = I - model.eps * model.s_phi(I, ph)
        return In, phi + model.omega(In)
    In = _picard(lambda y: -model.eps * model.s_phi(y, ph), I)
    return In, phi + model.omega(In) + model.eps * model.s_I(In, ph)


def _step_back(model: MapModel, I: np.ndarray, phi: np.ndarray):
    """One unguarded inverse map step on arrays of shape (..., d), for
    callback models (a fused-trig model steps back in `_propagate_trig`).

    It solves the generating system with the roles of (I, phi) and
    (I', phi') exchanged: phi by `_picard` (skipped when s is
    action-independent, where the start solves it), then I explicitly.  At
    eps = 0 it undoes the twist.
    """
    if model.eps == 0.0:
        return I, phi - model.omega(I)
    ph = phi - model.omega(I)  # the solution when s_I vanishes
    if not model.s_action_independent:
        ph = _picard(lambda y: -model.eps * model.s_I(I, _frac(y)), ph)
    return I + model.eps * model.s_phi(I, _frac(ph)), ph


def _first_outside(domain: DomainSpec, Is: np.ndarray) -> np.ndarray:
    """Per seed, the index along axis 0 of the first state outside, or -1.

    Every operation of `DomainSpec.dist_to_ball` is monotone in each
    |I_j - c_j| under round-to-nearest, so a seed's worst corner (per
    component, its largest or smallest action over the window, whichever
    lies farther from the centre) is no nearer the ball than any of its
    states: where the corner is inside, every state is.  A window of at
    least `CORNER_MIN` steps of at least `CORNER_MIN` seeds tests the
    corners, and only the seeds whose corner fails (near the boundary, or
    with a NaN or an infinite action) state by state.  A field's short
    windows and a few seeds' long ones test every state: there one pass
    costs less than the extrema, whose reductions run row by row."""
    W, n, d = Is.shape[0], math.prod(Is.shape[1:-1]), Is.shape[-1]
    if min(W, n) < CORNER_MIN:
        return _first_outside_states(domain, Is)
    flat, c = Is.reshape(W, n, d), domain.center
    hi, lo = flat.max(axis=0), flat.min(axis=0)
    with np.errstate(over="ignore"):
        corner = np.where(np.abs(hi - c) >= np.abs(lo - c), hi, lo)
    first = np.full(n, -1)
    bad = ~domain.contains_extended(corner)
    if bad.any():
        first[bad] = _first_outside_states(domain, flat[:, bad])
    return first.reshape(Is.shape[1:-1])


def _first_outside_states(domain: DomainSpec, Is: np.ndarray) -> np.ndarray:
    """`_first_outside` by the domain rule at every state."""
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
    if (isinstance(t, TrigTerm) and model.eps > 0.0 and model.s_action_independent
            and model.omega is _identity_omega):
        return t
    return None


def _propagate_trig(eps: float, term: TrigTerm, x: np.ndarray, steps: int):
    """`_step` of a fused-trig model, `_step_back` for a negative ``steps``,
    in the term's compiled body for the batch size and direction
    (`_kick_body`).  One point (n = 1) steps on Python floats, where numpy's
    per-call dispatch would cost more than the arithmetic, and the doubles
    its body returns are the orbit without a copy.  Every other batch is
    stored as (|steps|+1, 2d, n) and returned in the point-major layout
    (|steps|+1, ..., 2d) as a strided view of that storage, never a copy:
    the transpose only swaps strides and the reshape only splits the point
    axis.  A forward step reduces the angles, kicks (s_phi), takes eps
    times the kick off the actions and adds the new actions to the angles:
    `_step`'s operations with the term's callbacks, in its order (frac,
    s_phi, times eps, I - ., phi + I').  A backward step takes the actions
    off the angles first, then reduces those, kicks and adds eps times the
    kick to the actions: `_step_back`'s (phi' - I', frac, s_phi, times eps,
    I' + .).  So every state is bitwise equal to stepping `_step` or
    `_step_back`, at any batch size.
    """
    shape, d = x.shape, term.d
    n, back, count = x.size // (2 * d), steps < 0, abs(steps)
    if n == 1:
        xs = term._point[back](x.ravel().tolist(), float(eps), count)
        return np.frombuffer(xs).reshape((count + 1,) + shape)
    xs = np.empty((count + 1, 2 * d, n))
    xs[0] = x.reshape(n, 2 * d).T
    term._batch[back](xs, eps)
    return xs.transpose(0, 2, 1).reshape((count + 1,) + shape)


def _dot(r, terms):
    """sum of w * r[i] over (i, w) in terms, left to right, on floats or
    arrays; 0.0 if empty.  The one rule of the package's weighted sums: the
    trig terms' phases and sums (on arrays in `TrigTerm`, and written out as
    code in its step bodies by `_sum_source`) and the DOP853 stages.  No dot
    product over the terms, so a row never depends on the rest of the batch.
    x * 1 is x, and a + x * w is a - x * |w| for w < 0, so these are also
    the bits of the code that `_sum_source` writes."""
    acc = None
    for i, w in terms:
        acc = r[i] * w if acc is None else acc + r[i] * w
    return 0.0 if acc is None else acc


def _sum_source(row: str, terms, out: Optional[str] = None, const=repr) -> str | list:
    """`_dot`'s rule over (i, w) in terms as source on the variables
    row + str(i), in one of two forms: with no ``out``, one float
    expression ("0.0" if empty); with the name of an output row, the lines
    of ufunc calls that write the sum into it, with positional outputs and
    the row ``tmp`` as scratch (none for an empty sum: its caller fills the
    row with zeros once).  x * 1 is x, and a + x * w is a - x * |w| for
    w < 0 (the same bits).
    ``const`` writes a weight as source."""
    code, acc = [], None
    for i, w in terms:
        x, k = f"{row}{i}", w if acc is None else abs(w)
        if k != 1 and out is None:
            x = f"{x} * {const(k)}"
        elif k != 1:
            dst = out if acc is None else "tmp"
            code.append(f"multiply({x}, {const(k)}, {dst})")
            x = dst
        if acc is None:
            acc = x
        elif out is None:
            acc += f" {'+' if w > 0 else '-'} {x}"
        else:
            code.append(f"{'add' if w > 0 else 'subtract'}({acc}, {x}, {out})")
            acc = out
    if out is None:
        return acc or "0.0"
    return code if acc in (None, out) else code + [f"copyto({out}, {acc})"]


def _kick_body(plan: _KickPlan, back: bool, batch: bool):
    """The step of a term's kick plan, forward or backward, compiled once
    into a straight-line Python function.  For one point, ``body(x, eps,
    steps)`` takes the 2d floats x = (I, phi) through ``steps`` steps and
    returns the (steps+1) 2d doubles, state after state, in an
    `array.array` (8 bytes a value, where a list of floats would hold 32
    for each).  For a batch, ``body(xs, eps)`` steps the component-major
    orbit buffer xs (steps+1, 2d, n) on from xs[0], in place.

    Both take the same operations in the same order: backward, the actions
    taken off the angles first; the angles reduced (p - floor(p), bitwise
    ``p % 1.0``, NaN where an angle is not finite; the point body reduces
    only those that a phase or a sine reads), the non-unit phases,
    sin(2 pi row) over the plan's ``sines``, the scaled rows, the component
    sums, then I' = I - (G / 2 pi) eps and phi' = phi + I' (backward,
    I = I' + (G / 2 pi) eps).  The phases and sums are `_dot`'s rule
    (`_sum_source`).  The point body runs them on Python floats, with the
    plan's weights as float literals (``repr`` round-trips).  The batch
    body runs each as one ufunc call on a block of rows of one buffer
    allocated per call (an empty sum's row filled with zeros once, before
    the steps), a sine over each run of consecutive rows: no
    reduction over a short axis, and no dot or matmul, whose BLAS kernels
    could make a row depend on the batch.  At small batches the per-call
    cost of a ufunc dominates, so no call but a sum's running total writes
    over its own input (numpy's overlap check would double its cost), the
    outputs are positional and the constants are 0-d arrays.

    Python's float arithmetic is numpy's float64 arithmetic, and `math.sin`
    is the libm sin that numpy's float64 sin calls, so the two bodies are
    bitwise equal.  (A numpy build with a vectorized double sin of its own
    would part them; `test_point_body_bitwise_equals_its_row_in_a_batch`
    would show it.)  ``sin`` is an argument of both, for tests to count its
    calls.
    """
    d, rows, top = plan.d, plan.rows, plan.sin_rows
    scope = {"sin": math.sin, "array": array.array}  # the batch body takes numpy's

    def const(w):  # a weight as source: a 0-d array in the batch body's scope
        if not batch:
            return repr(w)
        name = f"k{len(scope)}"
        scope[name] = np.array(w)
        return name

    two_pi, Is, ps = const(TWO_PI), [f"I{i}" for i in range(d)], [f"p{i}" for i in range(d)]
    if not batch:
        step = [f"p{i} -= I{i}" for i in range(d)] if back else []
        phase = {o: f"({_sum_source('r', terms)})" for o, terms in plan.phases}
        read = {i for _, terms in plan.phases for i, _ in terms} | set(plan.sines)
        step += [f"r{i} = p{i} % 1.0" for i in range(d) if i in read]
        step += [f"b{r} = sin({phase.get(r, f'r{r}')} * {two_pi})" for r in plan.sines]
        step += [f"b{dst} = b{src} * {c!r}" for src, c, dst in plan.scales]
        G = ([f"b{i}" for i in range(d)] if plan.sums is None
             else [f"({_sum_source('b', s)})" for s in plan.sums])
        for i, g in enumerate(G):
            kick = f"{g} / {two_pi} * eps"
            step += [f"I{i} += {kick}"] if back else [f"I{i} -= {kick}", f"p{i} += I{i}"]
        step += [f"append({v})" for v in Is + ps]
        args, tail = "x, eps, steps", ["return xs"]
        head = [f"{', '.join(Is + ps)} = x", "xs = array('d', x)", "append = xs.append",
                "for _ in range(steps):"]
    else:
        g = rows + top  # the buffer: rows of Y, of X (the first d: grad), of G (if any), tmp
        size = g + (0 if plan.sums is None else d) + 1
        runs = []  # [first, last + 1] of each run of consecutive sine rows
        for r in plan.sines:
            if runs and runs[-1][1] == r:
                runs[-1][1] += 1
            else:
                runs.append([r, r + 1])
        angles = "p1" if back else "p0"  # the angles the kick reads
        step = ["subtract(p0, I0, p1)"] if back else []
        step += [f"floor({angles}, grad)", f"subtract({angles}, grad, ang)"]
        for o, terms in plan.phases:
            step += _sum_source("b", terms, f"b{o}", const)
        for r, end in runs:
            step += [f"multiply(Y{r}, {two_pi}, X{r})", f"sin(X{r}, Y{r})"]
        step += [f"multiply(b{src}, {const(c)}, b{dst})" for src, c, dst in plan.scales]
        for i, s in enumerate(plan.sums or ()):
            step += _sum_source("b", s, f"b{g + i}", const)
        step += [f"divide(G, {two_pi}, grad)", "multiply(grad, eps, ang)"]
        step += ["add(I0, ang, I1)"] if back else ["subtract(I0, ang, I1)", "add(p0, I1, p1)"]
        step += ["I0, p0 = I1, p1"]
        args, tail = "xs, eps", []
        head = [f"buf = empty(({size}, xs.shape[2]))",
                ", ".join(f"b{i}" for i in range(size)) + ", = buf",
                f"ang, grad, tmp = buf[:{d}], buf[{rows}:{rows + d}], b{size - 1}",
                "G = ang" if plan.sums is None else f"G = buf[{g}:{g + d}]",
                *(f"b{g + i}.fill(0.0)" for i, s in enumerate(plan.sums or ()) if not s),
                *(f"Y{r}, X{r} = buf[{r}:{end}], buf[{rows + r}:{rows + end}]" for r, end in runs),
                "eps = array(eps)",
                f"Is, ps = xs[:, :{d}], xs[:, {d}:]",
                "I0, p0 = Is[0], ps[0]",
                "for I1, p1 in zip(Is[1:], ps[1:]):"]
        scope.update((f.__name__, f) for f in (np.sin, np.add, np.subtract, np.multiply,
                                                np.divide, np.floor, np.copyto, np.empty,
                                                np.array))
    source = "\n".join([f"def body({args}, sin=sin):", *("    " + line for line in head),
                        *("        " + line for line in step), *("    " + line for line in tail)])
    exec(compile(source, "<kick plan body>", "exec"), scope)
    return scope["body"]


def propagate(model: MapModel, x: np.ndarray, steps: int):
    """Take |steps| unguarded map steps from the states x of shape (..., 2d),
    inverse steps when ``steps`` is negative.

    Returns the orbit ``xs`` of shape (|steps|+1, ..., 2d) and, per seed,
    the index of its first escape (-1 if none); `_orbits` adds the
    last-state rule.  Forward, that is the first state outside the
    sigma-extended domain from which a step was taken; backward, the first
    result outside, less one (a result is the start of a forward step).
    Models with a `TrigTerm` in place step through `_propagate_trig` both
    ways, in the term's compiled bodies.  Callback models step through
    `_step` or `_step_back` on the (I, phi) halves of the orbit buffer; a
    NoConvergence after an escape ends the orbit at the failing step's
    source state and is dropped, so the escape is reported first.
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
    stride ``every`` (backward if negative), one `propagate` call per
    ``(live, xs, first)`` it yields: the seeds' flat indices, their orbit
    from the window's start, and each one's first escape in it, or -1.  A
    window holds at most ``WINDOW`` states (steps x live seeds), in whole
    samples, and at least one sample.  The one rule: a state is an escape
    when a step is taken from it outside the domain (see `propagate`), a
    last state when it is not finite.  An escaped seed is dropped, so the
    windows after it grow; no view of a window outlives it.  The engine
    reads ``first`` only when it is resumed, so a consumer that writes an
    exit index (>= 0) into a seed's entry before resuming it drops that seed
    as well.  No seed takes no step: one window of the orbit's shape."""
    stride, sign, done = abs(every), -1 if every < 0 else 1, 0
    total = count * stride
    live, x = np.arange(len(x0)), x0
    if not len(x0) and total:
        yield live, np.empty((total + 1,) + x0.shape), np.full(0, -1)
        return
    while done < total:
        per = max(1, WINDOW // (len(x) * stride)) * stride
        xs, first = propagate(model, x, sign * min(per, total - done))
        end = len(xs) - 1
        done, x = done + end, xs[end]
        if done == total and not np.isfinite(x).all():
            first[(first < 0) & ~np.isfinite(x).all(-1)] = end
        yield live, xs, first
        keep = first < 0
        if done == total or not keep.any():  # last window, or all escaped
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
    its one-point call.  Implicit differentiation of the generating system
    at the new action that `_step` solves for, bit for bit the one `apply`
    steps to; at eps > 0 a model without the second derivatives of s raises
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
    if any(f is None for f in (model.s_II, model.s_Iphi, model.s_phiphi)):
        raise FormMismatch("the Jacobian needs the second derivatives of s")
    e, In = model.eps, _step(model, I, x[..., d:])[0]  # I' by the step's own solve
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


_identity_omega = _inexact  # omega(I) = I of h0 = |I|^2/2


def _identity_hess(I):
    I = np.asarray(I)
    return np.zeros(I.shape[:-1] + (1, 1)) + np.eye(I.shape[-1])


def _minus_one(I, phi):
    """s_I = s_phi = -1 of `nonexact_shear`."""
    return -np.ones_like(I)


def _zero_matrix(I, phi):
    I = np.asarray(I)
    d = I.shape[-1]
    return np.zeros(I.shape[:-1] + (d, d))


@dataclass(frozen=True, eq=False)
class TrigTerm:
    """An action-independent trigonometric generating term, held as data::

        s(phi) = -sum_j c_j cos(2 pi k_j . phi) / (2 pi)^2

    with integer modes k_j (the rows of ``modes``, shape (J, d)) and real
    coefficients c_j (``coeffs``, shape (J,)), J >= 0: with no modes, s = 0
    and the term is the twist's.  The callbacks `s`, `s_I`, `s_phi`,
    `s_phiphi` and the sup norms derive from (K, c).  Phases
    k_j . phi and the sums over modes run left to right over the nonzero
    entries, by `_dot`'s rule.  The kick plan and the step bodies compiled
    from it are built with the term and never change; a copy or an
    unpickled term builds its own from (K, c).
    """

    modes: np.ndarray
    coeffs: np.ndarray

    def __post_init__(self):
        K = np.asarray(self.modes, dtype=float)
        c = np.asarray(self.coeffs, dtype=float)
        if K.ndim != 2 or K.shape[1] == 0 or c.shape != K.shape[:1]:
            raise ValueError("modes must have shape (J, d) and coeffs (J,), J >= 0, d >= 1")
        if not (np.all(K == np.round(K)) and np.all(np.any(K != 0, axis=1))
                and np.all(np.isfinite(c))):
            raise ValueError("modes must be nonzero integer vectors and coeffs finite")
        object.__setattr__(self, "modes", K.astype(np.int64))
        object.__setattr__(self, "coeffs", c)
        plan = _KickPlan.of(self.modes, c)
        object.__setattr__(self, "_plan", plan)
        # the compiled step bodies (`_kick_body`), forward and backward
        object.__setattr__(self, "_point", (_kick_body(plan, False, False),
                                            _kick_body(plan, True, False)))
        object.__setattr__(self, "_batch", (_kick_body(plan, False, True),
                                            _kick_body(plan, True, True)))

    def __reduce__(self):
        # the compiled bodies do not pickle; a copy compiles its own
        return TrigTerm, (self.modes, self.coeffs)

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
        angles = np.moveaxis(phi, -1, 0)
        return [np.cos(TWO_PI * _dot(angles, [(i, k[i]) for i in np.flatnonzero(k)]))
                for k in self.modes]

    def s(self, I, phi):
        phi = _inexact(phi)
        return -_dot(self._cosines(phi), list(enumerate(self.coeffs))) / TWO_PI**2

    def s_I(self, I, phi):
        return np.zeros_like(np.asarray(I, dtype=float))

    def s_phi(self, I, phi):
        """The kick of the step bodies on arrays: the plan's phases and sums
        by `_dot`, and the sines of its ``sines`` rows."""
        phi = _inexact(phi)
        plan = self._plan
        y = list(np.moveaxis(phi, -1, 0))
        y += [_dot(y, terms) for _, terms in plan.phases]
        for r in plan.sines:
            y[r] = np.sin(y[r] * TWO_PI)
        y += [y[src] * c for src, c, _ in plan.scales]
        out = np.empty(phi.shape, phi.dtype)
        for i in range(self.d):
            out[..., i] = (y[i] if plan.sums is None else _dot(y, plan.sums[i])) / TWO_PI
        return out

    def s_phiphi(self, I, phi):
        phi = _inexact(phi)
        cos = [x if cj == 1 else cj * x for x, cj in zip(self._cosines(phi), self.coeffs)]
        out = np.zeros(phi.shape[:-1] + (self.d, self.d), phi.dtype)
        for i in range(self.d):
            for l in range(self.d):
                out[..., i, l] = _dot(cos, [(j, k[i] * k[l]) for j, k in enumerate(self.modes)
                                              if k[i] * k[l]])
        return out


class _KickPlan(NamedTuple):
    """Row indices of the kick and its weights as Python floats, fixed per
    term: `_kick_body` compiles them into the term's step bodies, and
    `TrigTerm.s_phi` evaluates them.

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
    sines: list                 # the angle and phase rows that a scale or a sum reads

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
        read = {src for src, _, _ in scales} | {j for s in sums for j, _ in s}
        sines = sorted(r for r in read if r < top)
        if all(s_i == [(i, 1)] for i, s_i in enumerate(sums)):
            sums = None  # s_phi_i is the sine of angle i alone
        return cls(d, top + len(scaled), top, phases, scales, sums, sines)


def _catalog_domain(d: int, norm_a: float = 0.0, norm_b: float = 0.0,
                    norm_s: float = 0.0) -> DomainSpec:
    """B(0, 1) widened by sigma = 0.5, strip r = 1, and the bounds of
    h0 = |I|^2/2, whose Hessian is the identity."""
    return DomainSpec(center=np.zeros(d), R=1.0, sigma=0.5, r=1.0, nu=1.0, nu2=float(d),
                      norm_a=norm_a, norm_b=norm_b, norm_omega_prime=1.0, norm_s=norm_s,
                      norm_h0pp=1.0)


def _trig_model(name: str, eps: float, modes, coeffs) -> MapModel:
    """A map with h0 = |I|^2/2 and the `TrigTerm` of (modes, coeffs).  With no modes, s = None:
    the twist has no perturbation for `resonant_average`, `nucleus` or gen-recover to read."""
    term = TrigTerm(np.array(modes), np.array(coeffs))
    d = term.d
    # omega is the identity, so the angle kick -eps s_phi has the action kick's norm
    dom = _catalog_domain(d, norm_a=term.norm_a, norm_b=term.norm_a, norm_s=term.norm_s)
    return MapModel(d=d, eps=float(eps), h0=_quad_h0,
                    omega=_identity_omega, hess=_identity_hess, domain=dom,
                    s=term.s if len(term.coeffs) else None, s_I=term.s_I, s_phi=term.s_phi,
                    s_II=_zero_matrix, s_Iphi=_zero_matrix, s_phiphi=term.s_phiphi,
                    s_action_independent=True, name=name)


CATALOG = ("twist", "standard", "froeschle2")


def catalog(name: str, eps: float, **params) -> MapModel:
    """Construct the catalog map of a name in CATALOG: "twist", "standard" or "froeschle2".

    Every catalog map is a `_trig_model`: h0 = |I|^2/2 (so omega is the
    identity), the Euclidean action ball B(0, 1) widened by sigma = 0.5,
    angle strip r = 1, and a `TrigTerm` from which the callbacks and
    sup-norm bounds derive.  The twist (parameter ``d``, default 1) is the
    term with no modes; "standard" has the one mode k = 1, and "froeschle2"
    (parameter ``eta``, default 0.3) the modes (1, 0), (0, 1) and (1, 1)
    with coefficients 1, 1 and eta.
    """
    if name == "twist":
        d = params.pop("d", 1)
        if d != int(d):
            raise ValueError(f"twist dimension d={d!r} is not an integer")
        modes, coeffs = np.zeros((0, int(d))), []
    elif name == "standard":
        modes, coeffs = [[1]], [1.0]
    elif name == "froeschle2":
        modes, coeffs = [[1, 0], [0, 1], [1, 1]], [1.0, 1.0, float(params.pop("eta", 0.3))]
    else:
        raise ValueError(f"unknown catalog map {name!r}")
    if params:
        raise ValueError(f"unknown {name} parameters {sorted(params)}")
    return _trig_model(name, eps, modes, coeffs)


def nonexact_shear(eps: float) -> MapModel:
    """Test map (I, phi) -> (I + eps, phi + I): symplectic but not exact.

    Its generating term s = -I' - phi (s_I = s_phi = -1) is not periodic in
    phi, which is why the map is not exact; the angle step is
    phi + (I + eps) - eps, equal to phi + I up to rounding.  Its loop-action
    defect on a phi-winding loop equals eps per winding turn, which makes it
    the reference counterexample for exactness diagnostics.
    """
    d = 1
    return MapModel(d=d, eps=float(eps), h0=_quad_h0, omega=_identity_omega,
                    hess=_identity_hess, domain=_catalog_domain(d, norm_a=1.0),
                    s_I=_minus_one, s_phi=_minus_one, s_II=_zero_matrix,
                    s_Iphi=_zero_matrix, s_phiphi=_zero_matrix, name="nonexact_shear")


def near_identity_family(model: MapModel) -> Callable[[float], MapModel]:
    """Embed a map into the family tangent to the identity at parameter 0.

    The member at parameter mu has generating data mu * (h0 + eps * s): both
    the rotation and the perturbation scale with mu, so the family's distance
    to the identity is O(mu) on a fixed domain.  At mu = 1 the original map
    is recovered.  This is the family under which the interpolating field has
    a genuine order-(m+1) scaling; the raw eps-family is quasi-integrable but
    not near-identity, and its finite differences are only O(eps).
    """
    if model.s_phi is None or model.s_I is None:
        raise FormMismatch("near_identity_family needs the derivatives of s (s_I, s_phi)")
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
