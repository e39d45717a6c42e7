"""Embedding maps into flows and reconstructing slow observables.

The flow side integrates an interpolating field X_m with a high-order
adaptive Runge-Kutta pair and compares the time-one map against the map
itself.  The observable side integrates the 1-form

    dH = X_phi . dI - X_I . dphi

along staircase paths (actions first, then angles) to produce a Hamiltonian
whose periodicity in the angles is restored by subtracting a small linear
correction.  Generating functions are recovered the same way from the
cross-form fields u = p - pbar, v = qbar - q.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.integrate import quad, solve_ivp

from .errors import (
    DomainEscape,
    FormMismatch,
    PathExit,
    QuadratureFailure,
    StepFailure,
)
from .interp import M_MAX, _as_flat_map, interpolating_vf
from .maps import MapModel, PhasePoint, _frac, _picard, jacobian, symplectic_matrix

SIX_E = 6.0 * math.e


@dataclass(frozen=True)
class FieldEvaluator:
    """A deterministic vector field on phase space R^{2d}."""

    dim: int
    eval: Callable[[np.ndarray], np.ndarray]

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.eval(x)


def interpolating_field(map_like, m: int, scheme: str = "newton") -> FieldEvaluator:
    """Wrap X_m of a map as a reusable field evaluator."""
    dim = getattr(map_like, "dim", None)
    if dim is None:
        raise ValueError("map must expose its phase-space dimension")

    def ev(x):
        return interpolating_vf(map_like, x, m, scheme)

    return FieldEvaluator(dim=dim, eval=ev)


@dataclass(frozen=True)
class Box:
    """Axis-aligned test region: action block times angle fundamental domain.

    Axes 0..d-1 are actions (endpoints included when gridded); axes d..2d-1
    are angles, gridded over the half-open fundamental domain.
    """

    lo: np.ndarray
    hi: np.ndarray
    d: int

    def __post_init__(self):
        object.__setattr__(self, "lo", np.asarray(self.lo, dtype=float))
        object.__setattr__(self, "hi", np.asarray(self.hi, dtype=float))
        if self.lo.shape != self.hi.shape or self.lo.shape[0] != 2 * self.d:
            raise ValueError("box bounds must have shape (2d,)")
        if np.any(self.hi <= self.lo):
            raise ValueError("box must have positive extent")

    def grid(self, n: int) -> np.ndarray:
        """Deterministic tensor grid with n points per axis, shape (n^{2d}, 2d)."""
        if n < 2:
            raise ValueError("grid_n must be at least 2 per axis")
        axes = []
        for j in range(2 * self.d):
            if j < self.d:
                axes.append(np.linspace(self.lo[j], self.hi[j], n))
            else:
                axes.append(np.linspace(self.lo[j], self.hi[j], n, endpoint=False))
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=-1)


def unit_box(d: int, J_radius: float = 1.0) -> Box:
    """The standard test region |J|_inf <= J_radius, phi in [0,1)^d."""
    lo = np.concatenate([-J_radius * np.ones(d), np.zeros(d)])
    hi = np.concatenate([J_radius * np.ones(d), np.ones(d)])
    return Box(lo=lo, hi=hi, d=d)


def flow_map(X, x: np.ndarray, t: float, tol: float = 1e-12) -> np.ndarray:
    """Time-t flow of the field X from x, adaptive RK with local error tol."""
    x = np.asarray(x, dtype=float)
    if t == 0.0:
        return x.copy()
    rtol = max(tol, 1e-13)
    sol = solve_ivp(lambda _, y: X(y), (0.0, t), x, method="DOP853",
                    rtol=rtol, atol=tol)
    if sol.status != 0:
        raise StepFailure(f"flow integration failed: {sol.message}")
    return sol.y[:, -1]


def distance_to_identity(map_like, box: Box, grid_n: int) -> float:
    """Sup over a grid of the per-step displacement max(|dI|_inf, |dphi|_inf).

    For scaled resonance blocks the displacement is measured directly in the
    block's own (J, phi) units.
    """
    fwd, _ = _as_flat_map(map_like)
    pts = box.grid(grid_n)
    try:
        img = fwd(pts)
        if img.shape != pts.shape:
            raise TypeError
        disp = np.max(np.abs(img - pts))
    except Exception:
        disp = max(float(np.max(np.abs(fwd(p) - p))) for p in pts)
    return float(disp)


def default_delta(r: float) -> float:
    """Default bound parameter: half of min(1, angle strip width r)."""
    return 0.5 * min(1.0, r)


@dataclass(frozen=True)
class OptimalOrder:
    m: int
    clamped: bool


def optimal_order(delta: float, eps_hat: float, d: int, m_max: int = M_MAX) -> OptimalOrder:
    """Error-minimizing interpolation order floor(delta/(6 e eps_hat) - d).

    Clamped to [1, m_max]; the flag records whether clamping happened.
    """
    if eps_hat <= 0:
        raise ValueError("eps_hat must be positive")
    raw = delta / (SIX_E * eps_hat) - d
    # relative slack keeps floor() stable when raw lands on an integer
    m = math.floor(raw + 1e-12 * (1.0 + abs(raw)))
    if m < 1:
        return OptimalOrder(m=1, clamped=True)
    if m > m_max:
        return OptimalOrder(m=m_max, clamped=True)
    return OptimalOrder(m=m, clamped=False)


@dataclass(frozen=True)
class EmbeddingReport:
    """Measured distance between the time-one flow of X_m and the map."""

    m: int
    eps_hat: float
    max_error: float
    bound: float
    delta: float
    precondition_ok: bool
    bound_satisfied: Optional[bool]
    errors: np.ndarray = field(repr=False)
    points: np.ndarray = field(repr=False)
    failures: tuple = ()

    @property
    def C_m(self) -> float:
        return 6.0 * (self.m + self._d_from_points()) / self.delta

    def _d_from_points(self) -> int:
        return self.points.shape[-1] // 2


def embedding_error(map_like, m: int, box: Box, grid_n: int,
                    tol: float = 1e-12, delta: float = 0.5,
                    scheme: str = "newton") -> EmbeddingReport:
    """Sup over a grid of |Phi^1_{X_m}(x) - f(x)|_inf with bound comparison.

    The reported bound is 3 C_m^m eps_hat^{m+1} with C_m = 6(m+d)/delta; it
    is checked (pass/fail) only when the order precondition
    m < delta/(6 eps_hat) - d holds, and never clipped in either case.
    Per-point flow failures are collected instead of aborting the sweep.
    """
    fwd, _ = _as_flat_map(map_like)
    pts = box.grid(grid_n)
    d = box.d
    X = interpolating_field(map_like, m, scheme)
    errors = np.full(pts.shape[0], np.nan)
    failures = []
    eps_hat = 0.0
    for i, x in enumerate(pts):
        try:
            fx = fwd(x)
            eps_hat = max(eps_hat, float(np.max(np.abs(fx - x))))
            y = flow_map(X, x, 1.0, tol)
            errors[i] = float(np.max(np.abs(y - fx)))
        except (StepFailure, DomainEscape) as exc:
            failures.append((i, str(exc)))
    if np.all(np.isnan(errors)):
        raise StepFailure("flow failed at every grid point")
    max_error = float(np.nanmax(errors))
    C_m = 6.0 * (m + d) / delta
    bound = 3.0 * C_m**m * eps_hat ** (m + 1)
    precondition_ok = eps_hat > 0 and m < delta / (6.0 * eps_hat) - d
    bound_satisfied = bool(max_error <= bound) if precondition_ok else None
    return EmbeddingReport(m=m, eps_hat=eps_hat, max_error=max_error, bound=bound,
                           delta=delta, precondition_ok=precondition_ok,
                           bound_satisfied=bound_satisfied, errors=errors, points=pts,
                           failures=tuple(failures))


def symmetry_defect(X, x: np.ndarray, h_fd: float = 1e-5) -> float:
    """How far the field X is from Hamiltonian at x.

    Computes M = J^{-1} DX(x) with central differences and returns the
    largest entry of |M - M^T|; Hamiltonian fields give zero up to the
    finite-difference floor.
    """
    DX = _fd_jacobian(X, x, h_fd)
    M = -symplectic_matrix(DX.shape[0] // 2) @ DX  # J^{-1} = -J
    return float(np.max(np.abs(M - M.T)))


def _fd_jacobian(fn, x: np.ndarray, h: float) -> np.ndarray:
    """Central-difference Jacobian of fn at x, step h * max(1, |x_j|) per axis."""
    x = np.asarray(x, dtype=float)
    n = x.shape[0]
    J = np.empty((n, n))
    for j in range(n):
        e = np.zeros(n)
        e[j] = h * max(1.0, abs(x[j]))
        J[:, j] = (fn(x + e) - fn(x - e)) / (2.0 * e[j])
    return J


def _quad_segment(scalar_fn, quad_tol: float) -> float:
    val, err = quad(scalar_fn, 0.0, 1.0, epsabs=0.1 * quad_tol, epsrel=0.0, limit=200)
    if err > 10.0 * quad_tol:
        raise QuadratureFailure(f"quadrature error estimate {err:.3g} exceeds tolerance")
    return val


def _staircase(a, b, start: np.ndarray, stop: np.ndarray, quad_tol: float) -> float:
    """Integral of the 1-form a(x) . dI + b(x) . dphi along the axis staircase.

    The path runs from start to stop one axis at a time in index order,
    actions first, then angles; a fixed order keeps the periodicity
    correction well-defined.  ``a`` and ``b`` map a point of R^{2d} to d
    components.  A DomainEscape on the path is raised as PathExit.
    """
    cur = np.array(start, dtype=float)
    stop = np.asarray(stop, dtype=float)
    d = cur.shape[0] // 2
    total = 0.0
    for axis in range(2 * d):
        a0, a1 = cur[axis], stop[axis]
        if a1 == a0:
            continue
        base = cur.copy()
        form, k = (a, axis) if axis < d else (b, axis - d)

        def integrand(t):
            p = base.copy()
            p[axis] = a0 + t * (a1 - a0)
            return form(p)[k] * (a1 - a0)

        try:
            total += _quad_segment(integrand, quad_tol)
        except DomainEscape as exc:
            raise PathExit(f"integration path left the evaluable region: {exc}") from exc
        cur[axis] = a1
    return total


def _staircase_integral(X, start: np.ndarray, stop: np.ndarray, d: int,
                        quad_tol: float) -> float:
    """Integral of dH = X_phi . dI - X_I . dphi along the staircase start -> stop."""
    return _staircase(lambda x: X(x)[d:], lambda x: -X(x)[:d], start, stop, quad_tol)


@dataclass
class HamiltonianField:
    """Path-integral reconstruction of the Hamiltonian of a field.

    ``correction`` holds the linear-in-angle coefficients subtracted to make
    the raw line integral periodic; after correction the value at
    base + e_l (unit angle shift) matches the base value to quadrature
    tolerance by construction.
    """

    base_point: np.ndarray
    correction: np.ndarray
    quad_tol: float
    X: object
    d: int

    def raw(self, x: np.ndarray) -> float:
        return _staircase_integral(self.X, self.base_point, np.asarray(x, dtype=float),
                                   self.d, self.quad_tol)

    def evaluate(self, x: np.ndarray) -> float:
        x = np.asarray(x, dtype=float)
        lin = float(np.dot(self.correction, x[self.d:] - self.base_point[self.d:]))
        return self.raw(x) - lin

    def __call__(self, x) -> float:
        return self.evaluate(x)

    def induced_field(self) -> FieldEvaluator:
        """The Hamiltonian field J grad H implied by the reconstruction.

        Equals the underlying X with the angle-linear correction folded into
        the action components: (X_I + c, X_phi).
        """
        X, c, d = self.X, self.correction, self.d

        def ev(x):
            v = np.array(X(x), dtype=float)
            v[:d] = v[:d] + c
            return v

        return FieldEvaluator(dim=2 * d, eval=ev)


def reconstruct_hamiltonian(X, base: np.ndarray, queries: Sequence[np.ndarray],
                            quad_tol: float = 1e-11) -> HamiltonianField:
    """Reconstruct H with H(base) = 0 from line integrals of the field X.

    H(x) = int (X_phi . dI - X_I . dphi) along base -> (x_I, base_phi) -> x,
    then the linear-in-angle part l(phi) = c . (phi - base_phi) with
    c_l = H_raw(base + e_l) is subtracted to restore periodicity.

    Values are not stored: each query is evaluated once only to check that
    it is reachable, so an unreachable query raises PathExit or
    QuadratureFailure here rather than at a later ``evaluate``.
    """
    base = np.asarray(base, dtype=float)
    dim = base.shape[0]
    d = dim // 2
    hf = HamiltonianField(base_point=base, correction=np.zeros(d), quad_tol=quad_tol,
                          X=X, d=d)
    c = np.empty(d)
    for l in range(d):
        shifted = base.copy()
        shifted[d + l] += 1.0
        c[l] = hf.raw(shifted)
    hf.correction = c
    for q in queries:
        hf.evaluate(q)
    return hf


def h2_closed_form(S: Callable, grad_S: Callable, x: np.ndarray) -> float:
    """Second-order interpolating Hamiltonian of a generating function.

    For a map generated by P.q + S(P, q) the order-2 Hamiltonian is
    S - (dS/dp . dS/dq)/2, all evaluated at the given point (p, q).
    """
    x = np.asarray(x, dtype=float)
    d = x.shape[0] // 2
    g = np.asarray(grad_S(x), dtype=float)
    return float(S(x)) - 0.5 * float(np.dot(g[:d], g[d:]))


def cross_form_fields(model: MapModel):
    """The fields u = p - pbar, v = qbar - q parametrized by (pbar, q).

    Generating-form maps give them in closed form from the derivatives of s;
    explicit-form maps require a contraction solve for the old action.
    """
    d = model.d
    e = model.eps

    if model.form == "generating" or e == 0.0:
        def u(pbar, q):
            if e == 0.0:
                return np.zeros_like(np.asarray(pbar, dtype=float))
            return e * model.s_phi(pbar, _frac(q))

        def v(pbar, q):
            out = model.omega(pbar)
            if e != 0.0:
                out = out + e * model.s_I(pbar, _frac(q))
            return out
    else:
        def _old_action(pbar, q):
            # pbar = p + e a(p, q)  solved for p
            return _picard(lambda y: -e * model.a(y, _frac(q)), pbar)

        def u(pbar, q):
            return _old_action(pbar, q) - pbar

        def v(pbar, q):
            p = _old_action(pbar, q)
            return model.omega(p) + e * model.b(p, _frac(q))

    return u, v


def recover_generating(model: MapModel, base: np.ndarray, query: np.ndarray,
                       quad_tol: float = 1e-11) -> float:
    """Generating-function value s(pbar, q) = int (u . dq + v . dpbar).

    Integration runs along the staircase from base, action axes first.  The
    result is normalized to s(base) = 0; path independence holds exactly when
    the map is symplectic, and periodicity in q certifies exactness.
    """
    d = model.d
    u, v = cross_form_fields(model)
    return _staircase(lambda x: v(x[:d], x[d:]), lambda x: u(x[:d], x[d:]),
                      base, query, quad_tol)


@dataclass(frozen=True)
class Loop:
    """A parametrized curve t in [0,1] -> phase space with integer winding.

    ``point`` and ``velocity`` must be smooth; phi(1) = phi(0) + winding.
    """

    point: Callable[[float], np.ndarray]
    velocity: Callable[[float], np.ndarray]
    winding: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "winding", np.atleast_1d(np.asarray(self.winding)))


def circle_loop(I0: np.ndarray, phi0: Optional[np.ndarray] = None,
                winding: Optional[np.ndarray] = None) -> Loop:
    """The basic non-contractible loop I = const, phi = phi0 + t * winding."""
    I0 = np.atleast_1d(np.asarray(I0, dtype=float))
    d = I0.shape[0]
    phi0 = np.zeros(d) if phi0 is None else np.atleast_1d(np.asarray(phi0, dtype=float))
    w = np.zeros(d)
    if winding is None:
        w[0] = 1.0
    else:
        w = np.atleast_1d(np.asarray(winding, dtype=float))

    def point(t):
        return np.concatenate([I0, phi0 + t * w])

    def velocity(t):
        return np.concatenate([np.zeros(d), w])

    return Loop(point=point, velocity=velocity, winding=w)


def _map_jacobian_fn(map_like, h: float = 1e-6):
    if isinstance(map_like, MapModel):
        model = map_like

        def jac(x):
            return jacobian(model, PhasePoint.from_flat(x))

        try:
            jac(np.zeros(2 * model.d))
            return jac
        except FormMismatch:
            pass
    fwd, _ = _as_flat_map(map_like)
    return lambda x: _fd_jacobian(fwd, x, h)


def loop_action(map_like, loop: Loop, quad_tol: float = 1e-11) -> tuple[float, float]:
    """Loop actions (A(gamma), A(f o gamma)) with A = closed-int p . dq.

    The image-loop derivative uses the map Jacobian: analytic for models that
    carry derivative callbacks, central finite differences otherwise.  Equal
    values certify exactness of the map on this homotopy class.
    """
    fwd, _ = _as_flat_map(map_like)
    jac = _map_jacobian_fn(map_like)
    probe = loop.point(0.0)
    d = probe.shape[0] // 2

    def base_integrand(t):
        x = loop.point(t)
        vel = loop.velocity(t)
        return float(np.dot(x[:d], vel[d:]))

    def image_integrand(t):
        x = loop.point(t)
        vel = loop.velocity(t)
        z = fwd(x)
        dz = jac(x) @ vel
        return float(np.dot(z[:d], dz[d:]))

    A0 = _quad_segment(base_integrand, quad_tol)
    A1 = _quad_segment(image_integrand, quad_tol)
    return A0, A1
