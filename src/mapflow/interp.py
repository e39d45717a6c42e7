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
shape (..., 2d): ``orbit(x0, steps)``, of shape (|steps|+1, ..., 2d), whose
negative counts step backward, and ``apply``, one forward step.  `MapModel`
and `BlockMap` implement it, with ``apply`` and ``inverse`` the one-step
cases of ``orbit``; `as_map` wraps a plain function of one (2d,) vector,
which steps forward only.  Windows and fields take one point (2d,) or a
batch (..., 2d): a batch is stepped by one ``orbit`` call per direction.

A window step is checked, F(x_k) against x_{k+1} at `VERIFY_TOL`, only
where its two sides are different code: the steps of a plain function's
orbit (user code) and the backward steps of a gauss window (inverse steps,
a second arithmetic).  A model's or a block's orbit, forward or backward,
is the orbit engine `maps.windows`, which decides every failure: an escape
and a non-finite state raise DomainEscape there.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .errors import OrderTooLarge
from .maps import _inexact

M_MAX = 30
#: a window step F(x_k) -> x_{k+1} may miss by this much, relative to the point's size
VERIFY_TOL = 1e-12

FlatMap = Callable[[np.ndarray], np.ndarray]


class _PointwiseMap:
    """Flat-map protocol for a plain function of one (2d,) phase vector.

    ``apply`` calls the function once per row; ``orbit`` steps one point at
    a time, forward only, and checks its steps with `_verify`.
    """

    def __init__(self, fn: FlatMap):
        self.fn = fn

    def apply(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        rows = x.reshape(-1, x.shape[-1])
        return np.array([self.fn(row) for row in rows], dtype=float).reshape(x.shape)

    def orbit(self, x0: np.ndarray, steps: int) -> np.ndarray:
        if steps < 0:
            raise ValueError("steps must be nonnegative: a plain function is not invertible")
        pts = [np.asarray(x0, dtype=float)]
        for _ in range(steps):
            pts.append(self.apply(pts[-1]))
        pts = np.stack(pts)
        _verify(self, pts, steps)  # the steps are the user's code: check them
        return pts


def as_map(map_like):
    """The flat-map protocol of a map: ``orbit`` and ``apply``.

    A `MapModel` or a `BlockMap` (anything with ``orbit``) is returned
    unchanged; any other callable is taken as a function of one (2d,) phase
    vector and wrapped pointwise, forward only.
    """
    if hasattr(map_like, "orbit"):
        return map_like
    if callable(map_like):
        return _PointwiseMap(map_like)
    raise TypeError(f"cannot interpret {type(map_like).__name__} as a map")


def _check_order(m: int) -> None:
    if m < 1:
        raise OrderTooLarge("order must be at least 1")
    if m > M_MAX:
        raise OrderTooLarge(f"order {m} exceeds m_max = {M_MAX}")


def _check_window(m: int, scheme: str) -> None:
    """The rules of a window of order m: a known scheme, and an even m for gauss."""
    if scheme not in ("newton", "gauss"):
        raise ValueError(f"unknown scheme {scheme!r}")
    if scheme == "gauss" and m % 2 != 0:
        raise ValueError("gauss scheme needs even order m = 2j")


def _verify(F, pts: np.ndarray, k: int) -> None:
    """Check the first k steps of a window: F(x_i) against x_{i+1}, i < k.

    One ``apply`` call on the k points.  Per point, the residual must be at
    most VERIFY_TOL relative to the point's largest window entry; a
    non-finite residual fails.
    """
    axes = (0, pts.ndim - 1)
    res = np.max(np.abs(F.apply(pts[:k]) - pts[1 : k + 1]), axis=axes, initial=0.0)
    ok = res <= VERIFY_TOL * np.maximum(1.0, np.max(np.abs(pts), axis=axes))
    if not np.all(ok):
        raise ValueError(f"window verification failed, residual {float(np.max(res[~ok])):.3g}")


def orbit_window(map_like, x0, m: int, scheme: str = "newton") -> np.ndarray:
    """Window of iterates around x0.

    ``x0`` is one phase vector (2d,) or a batch (..., 2d); the window has
    shape (m+1, ..., 2d): x_0..x_m for the newton scheme, x_{-j}..x_j with
    m = 2j for the gauss scheme.  Each half is one ``orbit`` call of the
    map's flat-map protocol (`as_map`): ``orbit(x0, m)`` for newton, and
    ``orbit(x0, -j)`` and ``orbit(x0, j)`` for gauss.  For a model or a
    block the backward half is one backward call of the orbit engine,
    whose inverse steps (the fused trig body of a catalog map, run
    backward, or `maps._step_back` of a callback model) exchange the roles
    of old and new coordinates in the implicit step; a plain function steps
    forward only.

    A step is checked (`_verify`) only where the two sides of it are
    different code.  A model's or a block's forward orbit is returned as it
    is: ``apply`` is the same kernel, so a check would compare it with
    itself; a plain function's orbit checks its own steps.  The backward
    iterates come from the inverse step, a second arithmetic, so their j
    steps x_{-k} -> x_{-k+1} are checked with one ``apply`` call.
    """
    _check_order(m)
    _check_window(m, scheme)
    F = as_map(map_like)
    x0 = np.asarray(x0, dtype=float)
    if scheme == "newton":
        return F.orbit(x0, m)
    j = m // 2
    pts = np.concatenate([F.orbit(x0, -j)[:0:-1], F.orbit(x0, j)])
    _verify(F, pts, j)
    return pts


def difference_table(points: np.ndarray) -> list[np.ndarray]:
    """Forward-difference table: table[k][i] = D_k at anchor index i.

    Row k has len(points) - k entries and is computed by the recursive
    scheme D_k = D_{k-1} shifted minus D_{k-1}.  Complex points stay complex.
    """
    pts = _inexact(points)
    table = [pts]
    for _ in range(pts.shape[0] - 1):
        prev = table[-1]
        table.append(prev[1:] - prev[:-1])
    return table


def finite_differences(points: np.ndarray) -> np.ndarray:
    """Differences D_0..D_m anchored at the first of m+1 window points, shape (m+1, ..., 2d)."""
    return np.array([row[0] for row in difference_table(points)])


def newton_weights(m: int) -> np.ndarray:
    """Weights p_{m0}..p_{mm}, shape (m+1,), with sum(p) = 0 and sum(k p_k) = 1.

    p_{m0} = -H_m: expanding the difference form shows the x_0 coefficient is
    sum_{k=1}^m (-1)^(k-1)/k * (-1)^k = -H_m, which is also forced by
    exactness on constant orbits (sum of weights must vanish).
    """
    _check_order(m)
    w = np.empty(m + 1)
    w[0] = -sum(1.0 / k for k in range(1, m + 1))
    for k in range(1, m + 1):
        w[k] = (-1) ** (k + 1) * (m + 1 - k) / (k * (m + 1)) * math.comb(m + 1, k)
    return w


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


def field_from_window(points: np.ndarray, scheme: str = "newton") -> np.ndarray:
    """X_m from a window of m+1 points (see `orbit_window`), shape (..., 2d)."""
    m = len(points) - 1
    _check_window(m, scheme)
    table = difference_table(points)
    if scheme == "newton":
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


def interpolating_vf(map_like, x0, m: int, scheme: str = "newton") -> np.ndarray:
    """Interpolating vector field X_m at x0, of shape (2d,) or (..., 2d).

    A batch is one window of shape (m+1, ..., 2d); for maps that step every
    point element-wise (the catalog maps and their blocks) each row equals
    the field of that point alone, bit for bit.
    """
    return field_from_window(orbit_window(map_like, x0, m, scheme), scheme)
