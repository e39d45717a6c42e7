"""Discrete averaging: interpolating vector fields from orbit windows.

Given consecutive iterates x_0, ..., x_m of a map, the degree-m polynomial
through (k, x_k) has derivative at t=0

    X_m(x_0) = sum_{k=1}^m (-1)^(k-1)/k * D_k(x_0)
             = sum_{k=0}^m p_{mk} x_k,

where D_k are forward finite differences and the weights are

    p_{m0} = -H_m   (minus the m-th harmonic number),
    p_{mk} = (-1)^(k+1) (m+1-k)/(k(m+1)) binom(m+1, k)   for 1 <= k <= m.

The even-order symmetric variant uses the centered window x_{-j}, ..., x_j:

    X_{2j}(x_0) = sum_{k=1}^{j} (-1)^(k-1) [ ((k-1)!)^2/(2k-1)! D_{2k-1}(x_{-k+1})
                                           - (k-1)! k!/(2k)!  D_{2k}(x_{-k}) ].

Differences are computed by the recursive in-place scheme; the raw
binomial-sum form is kept in the test suite as an independent oracle.

Every map is stepped through one flat-map protocol on phase vectors of
shape (..., 2d): ``apply`` (one step), ``inverse`` (one inverse step) and
``orbit(x0, steps)`` (shape (steps+1, ..., 2d)).  `MapModel` and `BlockMap`
implement it; `as_map` wraps a plain function of one (2d,) vector.
Windows and fields take one point (2d,) or a batch (..., 2d): a batch is
stepped by one ``orbit`` call and checked by one ``apply`` call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence, Union

import numpy as np

from .errors import DegenerateFit, FitFailed, OrderTooLarge
from .maps import MapModel

M_MAX = 30
#: differences below this magnitude are considered numerically degenerate
DIFF_FLOOR = 1e-15

FlatMap = Callable[[np.ndarray], np.ndarray]


class _PointwiseMap:
    """Flat-map protocol for a plain function of one (2d,) phase vector.

    ``apply`` calls the function once per row, ``orbit`` steps one point at a
    time, and there is no ``inverse``.
    """

    inverse = None

    def __init__(self, fn: FlatMap):
        self.fn = fn

    def apply(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        rows = x.reshape(-1, x.shape[-1])
        return np.array([self.fn(row) for row in rows], dtype=float).reshape(x.shape)

    def orbit(self, x0: np.ndarray, steps: int) -> np.ndarray:
        pts = [np.asarray(x0, dtype=float)]
        for _ in range(steps):
            pts.append(self.apply(pts[-1]))
        return np.stack(pts)


def as_map(map_like):
    """The flat-map protocol of a map: ``apply``, ``inverse`` and ``orbit``.

    A `MapModel` or a `BlockMap` (anything with ``orbit``) is returned
    unchanged; any other callable is taken as a function of one (2d,) phase
    vector and wrapped pointwise.
    """
    if hasattr(map_like, "orbit"):
        return map_like
    if callable(map_like):
        return _PointwiseMap(map_like)
    raise TypeError(f"cannot interpret {type(map_like).__name__} as a map")


@dataclass(frozen=True)
class OrbitWindow:
    """Consecutive iterates used for finite-difference averaging.

    For the forward (newton) scheme ``points`` holds x_0..x_m; for the
    symmetric (gauss) scheme it holds x_{-j}..x_j with m = 2j even.
    """

    points: np.ndarray  # (len, ..., dim)
    scheme: str  # "newton" | "gauss"
    m: int

    def __post_init__(self):
        object.__setattr__(self, "points", np.asarray(self.points, dtype=float))
        if self.scheme not in ("newton", "gauss"):
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if self.scheme == "gauss" and self.m % 2 != 0:
            raise ValueError("gauss scheme needs even order m = 2j")
        # both schemes consume m+1 points: x_0..x_m forward, x_{-j}..x_j centered
        if self.points.shape[0] != self.m + 1:
            raise ValueError(f"window needs {self.m + 1} points, got {self.points.shape[0]}")

    @property
    def anchor_index(self) -> int:
        return 0 if self.scheme == "newton" else self.m // 2


def orbit_window(map_like, x0, m: int, scheme: str = "newton",
                 verify_tol: float = 1e-12) -> OrbitWindow:
    """Build a window of iterates around x0 and verify its consistency.

    ``x0`` is one phase vector (2d,) or a batch (..., 2d); the window
    points then have shape (m+1, ..., 2d).  The forward iterates come
    from one ``orbit`` call of the map's flat-map protocol (`as_map`):
    x_0..x_m for the newton scheme, x_0..x_j for the gauss scheme, whose
    backward iterates x_{-1}..x_{-j} come from the map's ``inverse``, one
    step at a time (generating-form maps are invertible by exchanging the
    roles of old and new coordinates in the implicit step).  The window is
    then checked with one ``apply`` call on all but its last point, F(x_k)
    against x_{k+1} for every k: per point, the residual must be at most
    ``verify_tol`` relative to the point's largest window entry, and a
    non-finite residual fails.  A block map's orbit is stepped unscaled while
    its ``apply`` rescales every block, so the check compares two
    computations.
    """
    if m < 1:
        raise OrderTooLarge("order must be at least 1")
    if m > M_MAX:
        raise OrderTooLarge(f"order {m} exceeds m_max = {M_MAX}")
    if scheme not in ("newton", "gauss"):
        raise ValueError(f"unknown scheme {scheme!r}")
    F = as_map(map_like)
    x0 = np.asarray(x0, dtype=float)
    back = []
    steps = m
    if scheme == "gauss":
        if m % 2 != 0:
            raise ValueError("gauss scheme needs even m")
        if F.inverse is None:
            raise ValueError("gauss scheme needs an invertible map")
        steps = m // 2
        x = x0
        for _ in range(steps):
            x = F.inverse(x)
            back.append(x)
    win = OrbitWindow(np.concatenate([*(x[None] for x in back[::-1]), F.orbit(x0, steps)]),
                      scheme, m)
    # consecutive points must be images under the same map, point by point
    pts = win.points
    axes = (0, pts.ndim - 1)
    res = np.max(np.abs(F.apply(pts[:-1]) - pts[1:]), axis=axes)
    ok = res <= verify_tol * np.maximum(1.0, np.max(np.abs(pts), axis=axes))
    if not np.all(ok):
        raise ValueError(f"window verification failed, residual {float(np.max(res[~ok])):.3g}")
    return win


def difference_table(points: np.ndarray) -> list[np.ndarray]:
    """Forward-difference table: table[k][i] = D_k at anchor index i.

    Row k has len(points) - k entries and is computed by the recursive
    scheme D_k = D_{k-1} shifted minus D_{k-1}.
    """
    pts = np.asarray(points, dtype=float)
    table = [pts]
    for _ in range(pts.shape[0] - 1):
        prev = table[-1]
        table.append(prev[1:] - prev[:-1])
    return table


def finite_differences(window: OrbitWindow) -> np.ndarray:
    """Differences D_0..D_m anchored at the window's first point, shape (m+1, ..., dim)."""
    table = difference_table(window.points)
    return np.array([table[k][0] for k in range(window.m + 1)])


@dataclass(frozen=True)
class WeightTable:
    """Closed-form averaging weights of the forward scheme."""

    m: int
    weights: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "weights", np.asarray(self.weights, dtype=float))


def newton_weights(m: int) -> WeightTable:
    """Weights p_{m0}..p_{mm} with sum(p) = 0 and sum(k p_k) = 1.

    p_{m0} = -H_m: expanding the difference form shows the x_0 coefficient is
    sum_{k=1}^m (-1)^(k-1)/k * (-1)^k = -H_m, which is also forced by
    exactness on constant orbits (sum of weights must vanish).
    """
    if m < 1:
        raise OrderTooLarge("order must be at least 1")
    if m > M_MAX:
        raise OrderTooLarge(f"order {m} exceeds m_max = {M_MAX}")
    w = np.empty(m + 1)
    w[0] = -sum(1.0 / k for k in range(1, m + 1))
    for k in range(1, m + 1):
        w[k] = (-1) ** (k + 1) * (m + 1 - k) / (k * (m + 1)) * math.comb(m + 1, k)
    return WeightTable(m=m, weights=w)


def _kahan_sum(terms) -> np.ndarray:
    """Compensated summation of a sequence of equally-shaped arrays."""
    it = iter(terms)
    total = np.array(next(it), dtype=float, copy=True)
    comp = np.zeros_like(total)
    for t in it:
        y = t - comp
        s = total + y
        comp = (s - total) - y
        total = s
    return total


def field_from_window(window: OrbitWindow) -> np.ndarray:
    """Evaluate the interpolating vector field from a prebuilt window."""
    table = difference_table(window.points)
    m = window.m
    if window.scheme == "newton":
        return _kahan_sum(((-1) ** (k - 1) / k) * table[k][0] for k in range(1, m + 1))
    j = m // 2
    # centered anchors: x_{-k+1} sits at index j-k+1, x_{-k} at index j-k
    terms = []
    for k in range(1, j + 1):
        c_odd = math.factorial(k - 1) ** 2 / math.factorial(2 * k - 1)
        c_even = math.factorial(k - 1) * math.factorial(k) / math.factorial(2 * k)
        terms.append((-1) ** (k - 1) * (c_odd * table[2 * k - 1][j - k + 1]
                                        - c_even * table[2 * k][j - k]))
    return _kahan_sum(terms)


def weighted_field(points: np.ndarray, m: int) -> np.ndarray:
    """Weight-form evaluation sum_k p_{mk} x_k (forward scheme)."""
    w = newton_weights(m).weights
    pts = np.asarray(points, dtype=float)
    return _kahan_sum(w[k] * pts[k] for k in range(m + 1))


def interpolating_vf(map_like, x0, m: int, scheme: str = "newton") -> np.ndarray:
    """Interpolating vector field X_m at x0, of shape (2d,) or (..., 2d).

    A batch is one window of shape (m+1, ..., 2d); for maps that step every
    point element-wise (the catalog maps and their blocks) each row equals
    the field of that point alone, bit for bit.
    """
    win = orbit_window(map_like, x0, m, scheme)
    return field_from_window(win)


@dataclass(frozen=True)
class OrderScalingFit:
    """Least-squares slope of log|X_{m+1} - X_m| against log(parameter)."""

    m: int
    slope: float
    intercept: float
    eps_grid: np.ndarray
    diffs: np.ndarray


def order_scaling_check(model_family: Callable[[float], Union[MapModel, FlatMap]],
                        x0, m: int, eps_grid: Sequence[float],
                        scheme: str = "newton") -> OrderScalingFit:
    """Fit the scaling exponent of |X_{m+1} - X_m| along a map family.

    ``model_family`` must map the grid parameter to a map that tends to the
    identity as the parameter goes to 0 (see
    `mapflow.maps.near_identity_family`); only then does the difference of
    consecutive interpolation orders scale like the (m+1)-st power.  For
    catalog families the fitted slope satisfies slope >= m + 1 - 0.2.

    Raises DegenerateFit when any difference underflows the 1e-15 floor
    (e.g. for integrable maps, whose windows are exactly polynomial).
    """
    eps_grid = np.asarray(list(eps_grid), dtype=float)
    if eps_grid.size < 4:
        raise FitFailed("need at least 4 grid points")
    x0 = np.asarray(x0, dtype=float)
    diffs = np.empty(eps_grid.size)
    for i, e in enumerate(eps_grid):
        mp = model_family(float(e))
        try:
            lo = interpolating_vf(mp, x0, m, scheme)
            hi = interpolating_vf(mp, x0, m + 1, scheme)
        except Exception as exc:  # noqa: BLE001 - re-raise with fit context
            raise FitFailed(f"field evaluation failed at eps={e:g}: {exc}") from exc
        diffs[i] = float(np.max(np.abs(hi - lo)))
    if np.any(diffs < DIFF_FLOOR):
        raise DegenerateFit("order differences at the numerical floor")
    slope, intercept = np.polyfit(np.log(eps_grid), np.log(diffs), 1)
    return OrderScalingFit(m=m, slope=float(slope), intercept=float(intercept),
                           eps_grid=eps_grid, diffs=diffs)
