"""Embedding maps into flows and reconstructing slow observables.

Fields, like maps, act on phase vectors of shape (..., 2d), so that a whole
batch of points costs one field evaluation.

The flow side integrates an interpolating field X_m with the adaptive
Dormand-Prince 8(5,3) pair, every point with its own step size, and compares
the time-one map against the map itself.  The observable side integrates
the 1-form

    dH = X_phi . dI - X_I . dphi

along staircase paths (actions first, then angles), with a Gauss-Kronrod
(10, 21) pair on every segment of every path at once, to produce a
Hamiltonian whose periodicity in the angles is restored by subtracting a
small linear correction.  Generating functions are recovered the same way
from the cross-form fields u = p - pbar, v = qbar - q.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import (
    DomainEscape,
    FormMismatch,
    MapflowError,
    PathExit,
    QuadratureFailure,
    StepFailure,
)
from .interp import M_MAX, as_map, interpolating_vf
from .maps import MapModel, _frac, _picard, jacobian, symplectic_matrix

SIX_E = 6.0 * math.e
#: relative central-difference steps of `symmetry_defect` and of a map Jacobian
SYMMETRY_FD_STEP = 1e-5
JACOBIAN_FD_STEP = 1e-6


def interpolating_field(map_like, m: int, scheme: str = "newton") -> Callable:
    """X_m of a map as a function of x (2d,) or (..., 2d): one `interpolating_vf` call per x."""
    return lambda x: interpolating_vf(map_like, x, m, scheme)


@dataclass(frozen=True, eq=False)
class Box:
    """Axis-aligned test region: action block times angle fundamental domain.

    Axes 0..d-1 are actions (endpoints included when gridded); axes d..2d-1
    are angles, gridded over the half-open fundamental domain.
    """

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "lo", np.asarray(self.lo, dtype=float))
        object.__setattr__(self, "hi", np.asarray(self.hi, dtype=float))
        if self.lo.ndim != 1 or self.lo.shape != self.hi.shape or self.lo.shape[0] % 2:
            raise ValueError("box bounds must have shape (2d,)")
        if np.any(self.hi <= self.lo):
            raise ValueError("box must have positive extent")

    @property
    def d(self) -> int:
        return self.lo.shape[0] // 2

    def grid(self, n: int) -> np.ndarray:
        """Deterministic tensor grid with n points per axis, shape (n^{2d}, 2d)."""
        if n < 2:
            raise ValueError("grid_n must be at least 2 per axis")
        axes = [np.linspace(self.lo[j], self.hi[j], n, endpoint=j < self.d)
                for j in range(2 * self.d)]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=-1)


def unit_box(d: int, J_radius: float = 1.0) -> Box:
    """The standard test region |J|_inf <= J_radius, phi in [0,1)^d."""
    lo = np.concatenate([-J_radius * np.ones(d), np.zeros(d)])
    hi = np.concatenate([J_radius * np.ones(d), np.ones(d)])
    return Box(lo=lo, hi=hi)


# Dormand-Prince 8(5,3) pair (Hairer, Norsett & Wanner, Solving Ordinary
# Differential Equations I, Sec. II.5), with the 30-digit coefficients of
# Hairer's DOP853 code, without the dense-output rows.  The fields are
# autonomous, so the stage times C are not needed.  Each row lists its
# nonzero coefficients as (stage, coefficient) pairs.
_DOP853_A = (
    (),
    ((0, 5.26001519587677318785587544488e-2),),
    ((0, 1.97250569845378994544595329183e-2), (1, 5.91751709536136983633785987549e-2)),
    ((0, 2.95875854768068491816892993775e-2), (2, 8.87627564304205475450678981324e-2)),
    ((0, 2.41365134159266685502369798665e-1), (2, -8.84549479328286085344864962717e-1),
     (3, 9.24834003261792003115737966543e-1)),
    ((0, 3.7037037037037037037037037037e-2), (3, 1.70828608729473871279604482173e-1),
     (4, 1.25467687566822425016691814123e-1)),
    ((0, 3.7109375e-2), (3, 1.70252211019544039314978060272e-1),
     (4, 6.02165389804559606850219397283e-2), (5, -1.7578125e-2)),
    ((0, 3.70920001185047927108779319836e-2), (3, 1.70383925712239993810214054705e-1),
     (4, 1.07262030446373284651809199168e-1), (5, -1.53194377486244017527936158236e-2),
     (6, 8.27378916381402288758473766002e-3)),
    ((0, 6.24110958716075717114429577812e-1), (3, -3.36089262944694129406857109825),
     (4, -8.68219346841726006818189891453e-1), (5, 2.75920996994467083049415600797e1),
     (6, 2.01540675504778934086186788979e1), (7, -4.34898841810699588477366255144e1)),
    ((0, 4.77662536438264365890433908527e-1), (3, -2.48811461997166764192642586468),
     (4, -5.90290826836842996371446475743e-1), (5, 2.12300514481811942347288949897e1),
     (6, 1.52792336328824235832596922938e1), (7, -3.32882109689848629194453265587e1),
     (8, -2.03312017085086261358222928593e-2)),
    ((0, -9.3714243008598732571704021658e-1), (3, 5.18637242884406370830023853209),
     (4, 1.09143734899672957818500254654), (5, -8.14978701074692612513997267357),
     (6, -1.85200656599969598641566180701e1), (7, 2.27394870993505042818970056734e1),
     (8, 2.49360555267965238987089396762), (9, -3.0467644718982195003823669022)),
    ((0, 2.27331014751653820792359768449), (3, -1.05344954667372501984066689879e1),
     (4, -2.00087205822486249909675718444), (5, -1.79589318631187989172765950534e1),
     (6, 2.79488845294199600508499808837e1), (7, -2.85899827713502369474065508674),
     (8, -8.87285693353062954433549289258), (9, 1.23605671757943030647266201528e1),
     (10, 6.43392746015763530355970484046e-1)),
)
#: the 8th-order solution weights
_DOP853_B = (
    (0, 5.42937341165687622380535766363e-2), (5, 4.45031289275240888144113950566),
    (6, 1.89151789931450038304281599044), (7, -5.8012039600105847814672114227),
    (8, 3.1116436695781989440891606237e-1), (9, -1.52160949662516078556178806805e-1),
    (10, 2.01365400804030348374776537501e-1), (11, 4.47106157277725905176885569043e-2),
)
#: 5th-order error weights
_DOP853_E5 = (
    (0, 0.1312004499419488073250102996e-1), (5, -0.1225156446376204440720569753e+1),
    (6, -0.4957589496572501915214079952), (7, 0.1664377182454986536961530415e+1),
    (8, -0.3503288487499736816886487290), (9, 0.3341791187130174790297318841),
    (10, 0.8192320648511571246570742613e-1), (11, -0.2235530786388629525884427845e-1),
)
#: 3rd-order error weights: B less three corrections
_DOP853_E3 = tuple(sorted({**dict(_DOP853_B),
                           0: _DOP853_B[0][1] - 0.244094488188976377952755905512,
                           8: _DOP853_B[4][1] - 0.733846688281611857341361741547,
                           11: _DOP853_B[7][1] - 0.220588235294117647058823529412e-1}.items()))
#: step-size controller: safety factor and the bounds of one step-size change
SAFETY, MIN_FACTOR, MAX_FACTOR = 0.9, 0.2, 10.0
_ERROR_EXPONENT = -1.0 / 8.0


def _combine(K, coeffs):
    """sum_j c_j K_j over (j, c_j) pairs, element-wise in a fixed order.

    No dot product over the stages, so a row's value never depends on the
    other rows of the batch.
    """
    (j, c), *rest = coeffs
    acc = c * K[j]
    for j, c in rest:
        acc += c * K[j]
    return acc


def _rms(v):
    return np.sqrt(np.sum(v * v, axis=-1)) / math.sqrt(v.shape[-1])


def _rowwise(fn, z, out) -> dict:
    """fn on the rows of z, written into ``out``: the package's one rule for
    a failing point.  One batched call, and each row alone only when that
    call raises a MapflowError.  Rows that raise alone read NaN in ``out``,
    which the caller allocates, (P,) for a scalar fn or (P, ...) otherwise.
    Returns {row: exception} of those rows."""
    if len(z) == 0:
        return {}
    try:
        out[...] = fn(z)
        return {}
    except MapflowError:
        pass
    failed = {}
    for i, row in enumerate(z):
        try:
            out[i] = fn(row)
        except MapflowError as exc:
            out[i], failed[i] = np.nan, exc
    return failed


class _FlowRows:
    """The rows of a batched integration that are still running.

    ``rows`` maps the current rows to the caller's, ``live`` marks those
    that have not failed during the current step attempt, and ``failures``
    collects {caller's row: message}.
    """

    def __init__(self, X, n_rows: int, errstate: dict):
        self.X, self.errstate = X, errstate
        self.rows = np.arange(n_rows)
        self.live = np.ones(n_rows, dtype=bool)
        self.failures: dict[int, str] = {}

    def retire(self, idx, message: str) -> None:
        for i in idx:
            if self.live[i]:
                self.failures[int(self.rows[i])] = f"flow integration failed: {message}"
                self.live[i] = False

    def field(self, z, where=None):
        """X at the live rows of z (restricted to ``where``), in one call.

        A row that fails under `_rowwise` or gets a non-finite value fails;
        failed and skipped rows read zero.
        """
        sel = self.live if where is None else self.live & where
        idx = np.flatnonzero(sel)
        vals = np.empty((idx.size, z.shape[-1]))
        with np.errstate(**self.errstate):
            raised = _rowwise(self.X, z[idx], vals)
        for i, exc in raised.items():
            self.retire([idx[i]], f"the field raised {type(exc).__name__}: {exc}")
        self.retire(idx[~np.isfinite(vals).all(axis=-1)], "non-finite stage")
        out = np.zeros_like(z)
        out[idx] = vals
        out[~self.live] = 0.0
        return out

    def keep(self, mask, *arrays):
        self.rows, self.live = self.rows[mask], self.live[mask]
        return [a[mask] for a in arrays]


def _initial_step(batch: _FlowRows, y0, f0, span: float, sign: float, rtol: float,
                  atol: float):
    """Per-row first step size (Hairer, Norsett & Wanner, Sec. II.4), one field call."""
    scale = atol + np.abs(y0) * rtol
    d0, d1 = _rms(y0 / scale), _rms(f0 / scale)
    h0 = np.minimum(np.where((d0 < 1e-5) | (d1 < 1e-5), 1e-6, 0.01 * d0 / d1), span)
    f1 = batch.field(y0 + (h0 * sign)[:, None] * f0)
    d2 = _rms((f1 - f0) / scale) / h0
    h1 = np.where((d1 <= 1e-15) & (d2 <= 1e-15), np.maximum(1e-6, h0 * 1e-3),
                  (0.01 / np.maximum(d1, d2)) ** (1.0 / 8.0))
    return np.minimum(np.minimum(100.0 * h0, h1), span)


def _error_norm(K, h, y, y_new, rtol: float, atol: float):
    """The DOP853 error norm of one step per row: 5th- and 3rd-order estimates, RMS."""
    scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
    e5 = np.sum((_combine(K, _DOP853_E5) / scale) ** 2, axis=-1)
    e3 = np.sum((_combine(K, _DOP853_E3) / scale) ** 2, axis=-1)
    norm = np.abs(h) * e5 / np.sqrt((e5 + 0.01 * e3) * y.shape[-1])
    return np.where((e5 == 0.0) & (e3 == 0.0), 0.0, norm)


def _dop853(X, x: np.ndarray, t_end: float, tol: float):
    """Time-t_end flow of X from every row of x (N, n), each row stepped alone.

    Every row keeps its own time, step size and accept/reject decision
    under the usual controller (safety 0.9, step factor in [0.2, 10], RMS
    error norm), with rtol = max(tol, 1e-13) and atol = tol.  All live rows
    share one field call per stage.  A row fails on its own when its step
    falls below 10 ulp of its time, when a stage is not finite, or when the
    field raises a MapflowError for it alone (`_rowwise`).  Returns y (N, n),
    NaN in failed rows, and {row: message} of the failures.
    """
    rtol, atol = max(tol, 1e-13), tol
    sign = 1.0 if t_end > 0 else -1.0
    span = abs(t_end)
    y_out = np.full(x.shape, np.nan)
    errstate = np.geterr()
    with np.errstate(all="ignore"):      # overflow in failing rows is caught per row
        batch = _FlowRows(X, x.shape[0], errstate)
        y = x.copy()
        f = batch.field(y)
        h = _initial_step(batch, y, f, span, sign, rtol, atol)
        t = np.zeros(x.shape[0])
        rejected = np.zeros(x.shape[0], dtype=bool)
        while True:
            done = batch.live & (t == t_end)
            y_out[batch.rows[done]] = y[done]
            running = batch.live & ~done
            if not running.any():
                break
            t, y, f, h, rejected = batch.keep(running, t, y, f, h, rejected)
            min_step = 10.0 * np.abs(np.nextafter(t, sign * np.inf) - t)
            h = np.where(rejected, h, np.maximum(h, min_step))
            batch.retire(np.flatnonzero(~(h >= min_step)), "step size fell below 10 ulp of t")
            t_new = t + sign * h
            t_new = np.where(sign * (t_new - t_end) > 0, t_end, t_new)
            hs = (t_new - t)[:, None]
            K = [f]
            for a in _DOP853_A[1:]:
                K.append(batch.field(y + _combine(K, a) * hs))
            y_new = y + hs * _combine(K, _DOP853_B)
            err = _error_norm(K, hs[:, 0], y, y_new, rtol, atol)
            accept = err < 1.0
            grow = np.minimum(MAX_FACTOR, SAFETY * err ** _ERROR_EXPONENT)
            grow = np.where(rejected, np.minimum(1.0, grow), grow)
            shrink = np.fmax(MIN_FACTOR, SAFETY * err ** _ERROR_EXPONENT)
            h = np.abs(hs[:, 0]) * np.where(accept, grow, shrink)
            f_new = batch.field(y_new, where=accept)
            accept &= batch.live
            t = np.where(accept, t_new, t)
            y = np.where(accept[:, None], y_new, y)
            f = np.where(accept[:, None], f_new, f)
            rejected = ~accept
    return y_out, batch.failures


def flow_map(X, x: np.ndarray, t: float, tol: float = 1e-12) -> np.ndarray:
    """Time-t flow of the field X from x of shape (..., 2d), DOP853 with local error tol.

    Every point is integrated on its own (see `_dop853`), so its result does
    not depend on the rest of the batch, but all points share each field
    call.  Raises StepFailure if any point fails; the exception carries the
    results ``y`` (NaN at failed points) and the per-point ``failures``,
    ((flat index, message), ...).
    """
    x = np.asarray(x, dtype=float)
    if t == 0.0:
        return x.copy()
    y, failures = _dop853(X, x.reshape(-1, x.shape[-1]), float(t), tol)
    y = y.reshape(x.shape)
    if failures:
        first = min(failures)
        raise StepFailure(f"{failures[first]} (point {first}; {len(failures)} of "
                          f"{y.size // x.shape[-1]} points failed)",
                          failures=tuple(sorted(failures.items())), y=y)
    return y


def distance_to_identity(map_like, box: Box, grid_n: int) -> float:
    """Sup over a grid of the per-step displacement max(|dI|_inf, |dphi|_inf).

    For scaled resonance blocks the displacement is measured directly in the
    block's own (J, phi) units.
    """
    pts = box.grid(grid_n)
    return float(np.max(np.abs(as_map(map_like).apply(pts) - pts)))


def default_delta(r: float) -> float:
    """Default bound parameter: half of min(1, angle strip width r)."""
    return 0.5 * min(1.0, r)


@dataclass(frozen=True)
class OptimalOrder:
    m: int
    clamped: bool


def optimal_order(delta: float, eps_hat: float, d: int) -> OptimalOrder:
    """Error-minimizing interpolation order floor(delta/(6 e eps_hat) - d).

    Clamped to [1, M_MAX]; the flag records whether clamping happened.
    """
    if eps_hat <= 0:
        raise ValueError("eps_hat must be positive")
    raw = delta / (SIX_E * eps_hat) - d
    # relative slack keeps floor() stable when raw lands on an integer
    m = math.floor(raw + 1e-12 * (1.0 + abs(raw)))
    if m < 1:
        return OptimalOrder(m=1, clamped=True)
    if m > M_MAX:
        return OptimalOrder(m=M_MAX, clamped=True)
    return OptimalOrder(m=m, clamped=False)


@dataclass(frozen=True, eq=False)
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


def embedding_error(map_like, m: int, box: Box, grid_n: int,
                    tol: float = 1e-12, delta: float = 0.5,
                    scheme: str = "newton") -> EmbeddingReport:
    """Sup over a grid of |Phi^1_{X_m}(x) - f(x)|_inf with bound comparison.

    The reported bound is 3 C_m^m eps_hat^{m+1} with C_m = 6(m+d)/delta; it
    is checked (pass/fail) only when the order precondition
    m < delta/(6 eps_hat) - d holds, and never clipped in either case.
    The map is applied to the whole grid in one call and the grid is flowed
    in one `flow_map` call; per-point failures are collected instead of
    aborting the sweep.
    """
    pts = box.grid(grid_n)
    d = box.d
    X = interpolating_field(map_like, m, scheme)
    errors = np.full(pts.shape[0], np.nan)
    fx = np.empty_like(pts)
    raised = _rowwise(as_map(map_like).apply, pts, fx)
    failures = {i: str(exc) for i, exc in raised.items()}
    ok = np.ones(pts.shape[0], dtype=bool)
    ok[list(raised)] = False
    eps_hat = float(np.fmax.reduce(np.abs(fx[ok] - pts[ok]), axis=None, initial=0.0))
    try:
        y = flow_map(X, pts[ok], 1.0, tol)
    except StepFailure as exc:
        y = exc.y
        failures.update((int(np.flatnonzero(ok)[i]), msg) for i, msg in exc.failures)
    errors[ok] = np.max(np.abs(y - fx[ok]), axis=-1)
    failures = sorted(failures.items())
    if np.all(np.isnan(errors)):
        raise StepFailure("flow failed at every grid point")
    max_error = float(np.nanmax(errors))
    C_m = 6.0 * (m + d) / delta
    with np.errstate(over="ignore"):    # saturates at inf for absurd eps_hat
        bound = float(3.0 * np.float64(C_m) ** m * np.float64(eps_hat) ** (m + 1))
    precondition_ok = eps_hat > 0 and m < delta / (6.0 * eps_hat) - d
    bound_satisfied = bool(max_error <= bound) if precondition_ok else None
    return EmbeddingReport(m=m, eps_hat=eps_hat, max_error=max_error, bound=bound,
                           delta=delta, precondition_ok=precondition_ok,
                           bound_satisfied=bound_satisfied, errors=errors, points=pts,
                           failures=tuple(failures))


def symmetry_defect(X, x: np.ndarray):
    """How far the field X is from Hamiltonian at the points x (..., 2d).

    Computes M = J^{-1} DX(x) with central differences, from one call of X
    on the 4d shifted copies of every point, and returns the largest entry
    of |M - M^T|: a float for one point (2d,), else an array of shape (...,).
    Hamiltonian fields give zero up to the finite-difference floor.
    """
    DX = _fd_jacobian(X, x, SYMMETRY_FD_STEP)
    M = -symplectic_matrix(DX.shape[-1] // 2) @ DX  # J^{-1} = -J
    defect = np.max(np.abs(M - np.swapaxes(M, -1, -2)), axis=(-2, -1))
    return float(defect) if np.ndim(x) == 1 else defect


def _fd_jacobian(fn, x: np.ndarray, h: float) -> np.ndarray:
    """Central-difference Jacobian of fn at the points x (..., n), shape
    (..., m, n) for an fn with m outputs: step h * max(1, |x_j|) on axis j,
    and one call of fn on the 2n shifted copies of every point."""
    x = np.asarray(x, dtype=float)
    n = x.shape[-1]
    step = h * np.maximum(1.0, np.abs(x))
    e = step[..., None, :] * np.eye(n)                  # row j shifts axis j
    f = np.asarray(fn(np.concatenate([x[..., None, :] + e, x[..., None, :] - e], axis=-2)))
    D = (f[..., :n, :] - f[..., n:, :]) / (2.0 * step[..., None])
    return np.swapaxes(D, -1, -2)


# Gauss-Kronrod (10, 21) pair on [-1, 1], as in QUADPACK's qk21: the 21
# Kronrod nodes and weights, and the weights of the 10 Gauss nodes, which are
# the odd-indexed Kronrod nodes.
_GK21_X = np.array([
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
    0.0, -0.148874338981631210884826001129720,
    -0.294392862701460198131126603103866, -0.433395394129247190799265943165784,
    -0.562757134668604683339000099272694, -0.679409568299024406234327365114874,
    -0.780817726586416897063717578345042, -0.865063366688984510732096688423493,
    -0.930157491355708226001207180059508, -0.973906528517171720077964012084452,
    -0.995657163025808080735527280689003,
])
_GK21_K = np.array([
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077958109831074, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821, 0.147739104901338491374841515972068,
    0.142775938577060080797094273138717, 0.134709217311473325928054001771707,
    0.123491976262065851077958109831074, 0.109387158802297641899210590325805,
    0.093125454583697605535065465083366, 0.075039674810919952767043140916190,
    0.054755896574351996031381300244580, 0.032558162307964727478818972459390,
    0.011694638867371874278064396062192,
])
_GK21_G = np.array([
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338, 0.295524224714752870173892994651338,
    0.269266719309996355091226921569469, 0.219086362515982043995534934228163,
    0.149451349150580593145776339657697, 0.066671344308688137593568809893332,
])
#: panels per integral, as the ``limit`` of QUADPACK's adaptive routines
MAX_PANELS = 200


def _gauss_kronrod(integrand, n: int, quad_tol: float) -> np.ndarray:
    """Integrals over [0, 1] of n scalar integrands, adaptively and all at once.

    ``integrand(k, t)`` gets integrand indices k and parameters t, both of
    shape (P,), and returns the P values; it is called once per round, with
    the 21 nodes of every open panel of every integral.  A panel's error is
    estimated as in QUADPACK's qk21.  A panel is accepted when that estimate
    is at most 0.1 quad_tol times the panel's width, or at most twice its
    roundoff floor; the other panels are bisected.  Raises QuadratureFailure
    when a value is not finite, when an integral needs more than MAX_PANELS
    panels, or when its summed error estimate exceeds 10 quad_tol.
    """
    total, err_total = np.zeros(n), np.zeros(n)
    panels = np.ones(n, dtype=int)
    k, lo, width = np.arange(n), np.zeros(n), np.ones(n)
    eps = np.finfo(float).eps
    while k.size:
        half = 0.5 * width
        t = (lo + half)[:, None] + half[:, None] * _GK21_X
        f = np.asarray(integrand(np.repeat(k, _GK21_X.size), t.ravel()),
                       dtype=float).reshape(t.shape)
        if not np.isfinite(f).all():
            raise QuadratureFailure("integrand is not finite on the path")
        s_k = np.sum(f * _GK21_K, axis=-1)
        s_g = np.sum(f[:, 1::2] * _GK21_G, axis=-1)
        s_abs = np.sum(np.abs(f) * _GK21_K, axis=-1)
        s_dabs = np.sum(np.abs(f - 0.5 * s_k[:, None]) * _GK21_K, axis=-1)
        err, dabs = np.abs((s_k - s_g) * half), s_dabs * half
        with np.errstate(divide="ignore", invalid="ignore"):
            scaled = dabs * np.minimum(1.0, (200.0 * err / dabs) ** 1.5)
        err = np.where((dabs != 0.0) & (err != 0.0), scaled, err)
        round_err = 50.0 * eps * half * s_abs
        err = np.where(round_err > np.finfo(float).tiny, np.maximum(err, round_err), err)
        done = (err <= 0.1 * quad_tol * width) | (err <= 2.0 * round_err)
        np.add.at(total, k[done], half[done] * s_k[done])
        np.add.at(err_total, k[done], err[done])
        split = ~done
        np.add.at(panels, k[split], 1)
        if np.any(panels > MAX_PANELS):
            raise QuadratureFailure(f"quadrature needs more than {MAX_PANELS} panels")
        k, width = np.repeat(k[split], 2), np.repeat(half[split], 2)
        lo = np.stack([lo[split], lo[split] + half[split]], axis=-1).ravel()
    if np.any(err_total > 10.0 * quad_tol):
        raise QuadratureFailure(
            f"quadrature error estimate {float(np.max(err_total)):.3g} exceeds tolerance")
    return total


def _staircase(form, start: np.ndarray, stop: np.ndarray, quad_tol: float):
    """Integral of the 1-form a(x) . dI + b(x) . dphi along the axis staircase.

    The path runs from start to stop one axis at a time in index order,
    actions first, then angles; a fixed order keeps the periodicity
    correction well-defined.  ``form`` maps points (P, 2d) to (P, 2d): a(x)
    in the first d components, then b(x).  ``stop`` is one point (2d,) or a
    batch (N, 2d), and ``start`` one point or a batch like ``stop``.  Every
    segment of every path is integrated together by `_gauss_kronrod`, with
    one ``form`` call per round; zero-length segments are skipped.  Returns
    a float for one point, else shape (N,).  A DomainEscape on any path is
    raised as PathExit.
    """
    stop = np.asarray(stop, dtype=float)
    q = stop.reshape(-1, stop.shape[-1])
    s = np.broadcast_to(np.asarray(start, dtype=float), q.shape)
    n = q.shape[-1]
    i, j = np.nonzero(q != s)          # segment (path i, axis j)
    base = np.where(np.arange(n) < j[:, None], q[i], s[i])
    a0, length = s[i, j], q[i, j] - s[i, j]

    def integrand(k, t):
        p = base[k]
        rows = np.arange(k.size)
        p[rows, j[k]] = a0[k] + t * length[k]
        return form(p)[rows, j[k]] * length[k]

    try:
        seg = np.zeros(q.shape)
        seg[i, j] = _gauss_kronrod(integrand, i.size, quad_tol)
    except DomainEscape as exc:
        raise PathExit(f"integration path left the evaluable region: {exc}") from exc
    total = np.zeros(q.shape[0])
    for axis in range(n):
        total += seg[:, axis]
    return float(total[0]) if stop.ndim == 1 else total.reshape(stop.shape[:-1])


def _staircase_integral(X, start: np.ndarray, stop: np.ndarray, d: int,
                        quad_tol: float):
    """Integral of dH = X_phi . dI - X_I . dphi along the staircase start -> stop."""
    def form(x):
        v = X(x)
        return np.concatenate([v[..., d:], -v[..., :d]], axis=-1)

    return _staircase(form, start, stop, quad_tol)


@dataclass(eq=False)
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

    def raw(self, x: np.ndarray):
        """Uncorrected path integral from the base point to x (2d,) or (N, 2d)."""
        return _staircase_integral(self.X, self.base_point, np.asarray(x, dtype=float),
                                   self.d, self.quad_tol)

    def _angle_linear(self, x: np.ndarray):
        return np.sum((x[..., self.d:] - self.base_point[self.d:]) * self.correction, axis=-1)

    def evaluate(self, x: np.ndarray):
        """H at x (2d,) (a float) or at every row of x (N, 2d), in one path integral."""
        x = np.asarray(x, dtype=float)
        return self.raw(x) - self._angle_linear(x)

    def __call__(self, x) -> float:
        return self.evaluate(x)

    def induced_field(self) -> Callable:
        """The Hamiltonian field J grad H implied by the reconstruction.

        Equals the underlying X with the angle-linear correction folded into
        the action components: (X_I + c, X_phi).
        """
        X, c, d = self.X, self.correction, self.d

        def field(x):
            v = np.array(X(x), dtype=float)
            v[..., :d] = v[..., :d] + c
            return v

        return field


def reconstruct_hamiltonian(X, base: np.ndarray, quad_tol: float = 1e-11) -> HamiltonianField:
    """Reconstruct H with H(base) = 0 from line integrals of the field X.

    H(x) = int (X_phi . dI - X_I . dphi) along base -> (x_I, base_phi) -> x,
    then the linear-in-angle part l(phi) = c . (phi - base_phi) with
    c_l = H_raw(base + e_l) is subtracted to restore periodicity.
    """
    return _reconstruct(X, base, [], quad_tol)[0]


def _reconstruct(X, base: np.ndarray, queries, quad_tol: float):
    """`reconstruct_hamiltonian` and H at the queries (N, 2d), from one path integral."""
    base = np.asarray(base, dtype=float)
    d = base.shape[0] // 2
    queries = np.asarray(queries, dtype=float).reshape(-1, 2 * d)
    hf = HamiltonianField(base_point=base, correction=np.zeros(d), quad_tol=quad_tol,
                          X=X, d=d)
    shifted = base + np.eye(2 * d)[d:]          # base + e_l for every angle l
    raw = hf.raw(np.concatenate([shifted, queries]))
    hf.correction = raw[:d]
    return hf, raw[d:] - hf._angle_linear(queries)


def h2_closed_form(S: Callable, grad_S: Callable, x: np.ndarray) -> float:
    """Second-order interpolating Hamiltonian of a generating function.

    For a map generated by P.q + S(P, q) the order-2 Hamiltonian is
    S - (dS/dp . dS/dq)/2, all evaluated at the given point (p, q).
    """
    x = np.asarray(x, dtype=float)
    d = x.shape[0] // 2
    g = np.asarray(grad_S(x), dtype=float)
    return float(S(x)) - 0.5 * float(np.dot(g[:d], g[d:]))


def cross_form_fields(map_like):
    """The fields u = p - pbar and v = qbar - q of a map, parametrized by (pbar, q).

    Returns one function of points x = (pbar, q) of shape (..., 2d) that
    gives the pair (u, v), each (..., d).  Generating-form models (and any
    model at eps = 0) give them in closed form from the derivatives of s.
    For any other map, explicit models and block maps included, the old
    action p with F(p, q)_I = pbar is solved by Picard iteration through the
    map's ``apply``, once per evaluation, and qbar is read off F(p, q).
    """
    if isinstance(map_like, MapModel) and (map_like.form == "generating"
                                           or map_like.eps == 0.0):
        model, d, e = map_like, map_like.d, map_like.eps

        def closed(x):
            pbar, q = x[..., :d], x[..., d:]
            if e == 0.0:
                return np.zeros_like(pbar), model.omega(pbar)
            ph = _frac(q)
            return e * model.s_phi(pbar, ph), model.omega(pbar) + e * model.s_I(pbar, ph)

        return closed
    fwd = as_map(map_like).apply

    def solved(x):
        d = x.shape[-1] // 2
        pbar, q = x[..., :d], x[..., d:]
        last = {}  # F(y, q) at _picard's last call of g, which is at the y it returns

        def g(y):
            last["F"] = fwd(np.concatenate([y, q], axis=-1))
            return y - last["F"][..., :d]
        p = _picard(g, pbar)
        return p - pbar, last["F"][..., d:] - q

    return solved


def recover_generating(model: MapModel, base: np.ndarray, query: np.ndarray,
                       quad_tol: float = 1e-11) -> float:
    """Generating-function value s(pbar, q) = int (u . dq + v . dpbar).

    Integration runs along the staircase from base, action axes first.  The
    result is normalized to s(base) = 0; path independence holds exactly when
    the map is symplectic, and periodicity in q certifies exactness.
    """
    uv = cross_form_fields(model)

    def form(x):
        u, v = uv(x)
        return np.concatenate([v, u], axis=-1)

    return _staircase(form, base, query, quad_tol)


@dataclass(frozen=True, eq=False)
class Loop:
    """The non-contractible loop t in [0, 1] -> (I0, t * winding), held as
    its data, so a loop pickles like a model or a block.

    ``winding`` is an integer vector: phi(1) = phi(0) + winding.  `point`
    and `velocity` take parameters t of shape (P,) and return (P, 2d).
    """

    I0: np.ndarray
    winding: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "I0", np.atleast_1d(np.asarray(self.I0, dtype=float)))
        object.__setattr__(self, "winding",
                           np.atleast_1d(np.asarray(self.winding, dtype=float)))

    def point(self, t: np.ndarray) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        return np.concatenate([np.broadcast_to(self.I0, t.shape + self.I0.shape),
                               t[..., None] * self.winding], axis=-1)

    def velocity(self, t: np.ndarray) -> np.ndarray:
        v = np.concatenate([np.zeros_like(self.I0), self.winding])
        return np.broadcast_to(v, np.shape(t) + v.shape)


def circle_loop(I0: np.ndarray, winding: Optional[np.ndarray] = None) -> Loop:
    """The basic non-contractible loop I = I0, phi = t * winding, winding e_1 by default."""
    I0 = np.atleast_1d(np.asarray(I0, dtype=float))
    if winding is None:
        winding = np.eye(I0.shape[0])[0]
    return Loop(I0, winding)


def loop_action(map_like, loop: Loop, quad_tol: float = 1e-11) -> tuple[float, float]:
    """Loop actions (A(gamma), A(f o gamma)) with A = closed-int p . dq.

    Each quadrature round of the image loop makes one ``apply`` call and
    one Jacobian call on all its nodes: the analytic `jacobian` for models
    that carry derivative callbacks, else central finite differences
    (`_fd_jacobian`, one more map call).  Equal values certify exactness of
    the map on this homotopy class.
    """
    fwd = as_map(map_like).apply
    d = loop.I0.shape[0]

    def map_jacobian(x):
        if isinstance(map_like, MapModel):
            try:
                return jacobian(map_like, x)
            except FormMismatch:
                pass
        return _fd_jacobian(fwd, x, JACOBIAN_FD_STEP)

    def base_integrand(k, t):
        return np.sum(loop.point(t)[:, :d] * loop.velocity(t)[:, d:], axis=-1)

    def image_integrand(k, t):
        x = loop.point(t)
        dz = (map_jacobian(x) @ loop.velocity(t)[..., None])[..., 0]
        return np.sum(fwd(x)[:, :d] * dz[:, d:], axis=-1)

    A0 = float(_gauss_kronrod(base_integrand, 1, quad_tol)[0])
    A1 = float(_gauss_kronrod(image_integrand, 1, quad_tol)[0])
    return A0, A1
