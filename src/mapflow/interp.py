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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .errors import DegenerateFit, FitFailed, OrderTooLarge
from .maps import MapModel, orbit_arrays

M_MAX = 30
#: differences below this magnitude are considered numerically degenerate
DIFF_FLOOR = 1e-15

FlatMap = Callable[[np.ndarray], np.ndarray]


def _as_flat_map(map_like) -> tuple[FlatMap, Optional[FlatMap]]:
    """Normalize a MapModel / block / callable into (forward, inverse)."""
    if isinstance(map_like, MapModel):
        fwd = map_like.apply_flat
        inv = map_like.inverse_flat
        return fwd, inv
    if hasattr(map_like, "apply") and callable(map_like.apply):
        return map_like.apply, getattr(map_like, "inverse", None)
    if callable(map_like):
        return map_like, None
    raise TypeError(f"cannot interpret {type(map_like).__name__} as a map")


def _flat_orbit(map_like) -> Optional[Callable[[np.ndarray, int], np.ndarray]]:
    """One-call orbit ``(x0, steps) -> [x0, ..., F^steps(x0)]``, shape (steps+1, 2d).

    A MapModel steps through `maps.orbit_arrays`, a block map through its own
    ``orbit``.  Returns None for a plain callable, which may accept only one
    point and is stepped point by point.
    """
    if isinstance(map_like, MapModel):
        d = map_like.d

        def orbit(x0, steps):
            Is, ps = orbit_arrays(map_like, x0[:d], x0[d:], steps)
            return np.concatenate([Is, ps], axis=-1)

        return orbit
    return getattr(map_like, "orbit", None)


@dataclass(frozen=True)
class OrbitWindow:
    """Consecutive iterates used for finite-difference averaging.

    For the forward (newton) scheme ``points`` holds x_0..x_m; for the
    symmetric (gauss) scheme it holds x_{-j}..x_j with m = 2j even.
    """

    points: np.ndarray  # (len, dim)
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

    The forward iterates come from one orbit call (`_flat_orbit`): x_0..x_m
    for the newton scheme, x_0..x_j for the gauss scheme, whose backward
    iterates x_{-1}..x_{-j} come from the map's inverse, one step at a time
    (generating-form maps are invertible by exchanging the roles of old and
    new coordinates in the implicit step).  The window is then checked with
    one batched map call, F(x_k) against x_{k+1} for every k, so every
    window is verified at ``verify_tol`` relative to its largest entry.  A
    block map's orbit is stepped unscaled while its ``apply`` rescales every
    block, so the check compares two computations.  A plain callable is
    stepped and checked point by point.
    """
    if m < 1:
        raise OrderTooLarge("order must be at least 1")
    if m > M_MAX:
        raise OrderTooLarge(f"order {m} exceeds m_max = {M_MAX}")
    if scheme not in ("newton", "gauss"):
        raise ValueError(f"unknown scheme {scheme!r}")
    fwd, inv = _as_flat_map(map_like)
    orbit = _flat_orbit(map_like)
    x0 = np.asarray(x0, dtype=float)
    back = []
    steps = m
    if scheme == "gauss":
        if m % 2 != 0:
            raise ValueError("gauss scheme needs even m")
        if inv is None:
            raise ValueError("gauss scheme needs an invertible map")
        steps = m // 2
        x = x0
        for _ in range(steps):
            x = inv(x)
            back.append(x)
    if orbit is not None:
        ahead = orbit(x0, steps)
    else:
        ahead = [x0]
        for _ in range(steps):
            ahead.append(fwd(ahead[-1]))
    win = OrbitWindow(np.vstack([*back[::-1], ahead]), scheme, m)
    # consecutive points must be images under the same map
    pts = win.points
    if orbit is not None:
        res = float(np.max(np.abs(fwd(pts[:-1]) - pts[1:])))
    else:
        res = max(float(np.max(np.abs(fwd(pts[i]) - pts[i + 1])))
                  for i in range(pts.shape[0] - 1))
    if res > verify_tol * max(1.0, float(np.max(np.abs(pts)))):
        raise ValueError(f"window verification failed, residual {res:.3g}")
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
    """Differences D_0..D_m anchored at the window's first point, shape (m+1, dim)."""
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
    """Interpolating vector field X_m at x0, a vector in R^{2d}."""
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
