"""Independent oracles used by the test suite.

These deliberately avoid the library's own code paths: differences via raw
binomial sums, scalar root finding via bisection, and frozen values computed
by those oracles.
"""

import functools
import math
from fractions import Fraction
from typing import NamedTuple, Optional

import numpy as np


def binomial_difference(points, k):
    """D_k at the leading anchor by the raw binomial sum  sum_j C(k,j)(-1)^{k-j} x_j."""
    pts = np.asarray(points, dtype=float)
    return sum(math.comb(k, j) * (-1) ** (k - j) * pts[j] for j in range(k + 1))


def binomial_weights(m):
    """Averaging weights obtained by expanding sum_k (-1)^(k-1)/k D_k in x_j."""
    w = np.zeros(m + 1)
    for k in range(1, m + 1):
        c = (-1) ** (k - 1) / k
        for j in range(k + 1):
            w[j] += c * math.comb(k, j) * (-1) ** (k - j)
    return w


def bisect(f, lo, hi, tol=1e-15):
    """Plain bisection for a sign change of f on [lo, hi]."""
    flo = f(lo)
    if flo == 0:
        return lo
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if hi - lo <= tol:
            return mid
        fm = f(mid)
        if fm == 0:
            return mid
        if (fm > 0) == (flo > 0):
            lo, flo = mid, fm
        else:
            hi = mid
    return 0.5 * (lo + hi)


# Frozen oracle values (computed by the tools above; see the inline checks
# in the tests that re-derive them).

#: fixed point of y = 1 + 0.1 sin(y), bisection to 1e-15
FIXED_POINT_SIN = 1.0885977523978938

#: root of I + I^3/3 = 0.5, bisection to 1e-15
CUBIC_FREQ_ROOT = 0.46622052391077373

#: standard map, eps=0.1, (I, phi) = (0.3, 0.25): the kick is closed form
STD_STEP_I = 0.3 - 0.1 / (2 * math.pi)


# Frozen time-one flows, computed once with scipy 1.17.1:
#   solve_ivp(lambda t, y: X(y), (0.0, 1.0), x0, method="DOP853",
#             rtol=1e-13, atol=1e-14).y[:, -1]
# which is the controller of mapflow.flow_map at tol = 1e-14 (rtol is
# floored at 1e-13).  X is `pendulum_field` or `coupled_pendulum_field`.

def pendulum_field(y):
    """(p, q) -> (-sin(2 pi q) / 2 pi, p), on arrays (..., 2)."""
    return np.stack([-np.sin(2 * math.pi * y[..., 1]) / (2 * math.pi), y[..., 0]], axis=-1)


def coupled_pendulum_field(y):
    """The froeschle2-type field on (I1, I2, phi1, phi2), arrays (..., 4), eta = 0.3."""
    I1, I2, p1, p2 = np.moveaxis(y, -1, 0)
    cross = 0.3 * np.sin(2 * math.pi * (p1 + p2))
    return np.stack([-(np.sin(2 * math.pi * p1) + cross) / (2 * math.pi),
                     -(np.sin(2 * math.pi * p2) + cross) / (2 * math.pi), I1, I2], axis=-1)


#: (field, start points, time-one images)
DOP853_FLOWS = {
    "pendulum": (pendulum_field,
                 [[0.2, 0.1], [-0.35, 0.7], [0.05, 0.45]],
                 [[0.06056850769865993, 0.235358939621019],
                  [-0.3148711347140304, 0.38988420697622334],
                  [0.018731536999271083, 0.4818138503625585]]),
    "coupled": (coupled_pendulum_field,
                [[0.2, -0.1, 0.3, 0.8], [-0.25, 0.15, 0.05, 0.5]],
                [[0.05159638312235112, 0.02043052502101237, 0.42044980442371716,
                  0.7609741589448591],
                 [-0.18336646735994178, 0.22811568824587813, -0.18203440699041212,
                  0.6782868592964626]]),
}


# Closed forms of the catalog generating terms and their hand-entered sup
# norms, as the catalog wrote them before the terms were held as (modes,
# coefficients).  The derived callbacks and norms must reproduce them.

TWO_PI = 2.0 * math.pi


def standard_closed_forms():
    """(s, s_phi, s_phiphi) of the standard map, on (..., 1) phases."""
    def s(I, phi):
        return -np.cos(TWO_PI * phi[..., 0]) / TWO_PI**2

    def s_phi(I, phi):
        return np.sin(TWO_PI * phi) / TWO_PI

    def s_phiphi(I, phi):
        out = np.zeros(phi.shape[:-1] + (1, 1), np.result_type(phi, 1.0))
        out[..., 0, 0] = np.cos(TWO_PI * phi[..., 0])
        return out

    return s, s_phi, s_phiphi


def froeschle_closed_forms(eta):
    """(s, s_phi, s_phiphi) of froeschle2, on (..., 2) phases."""
    def s(I, phi):
        p1, p2 = phi[..., 0], phi[..., 1]
        return -(np.cos(TWO_PI * p1) + np.cos(TWO_PI * p2)
                 + eta * np.cos(TWO_PI * (p1 + p2))) / TWO_PI**2

    def s_phi(I, phi):
        p1, p2 = phi[..., 0], phi[..., 1]
        cross = eta * np.sin(TWO_PI * (p1 + p2))
        return np.stack([(np.sin(TWO_PI * p1) + cross) / TWO_PI,
                         (np.sin(TWO_PI * p2) + cross) / TWO_PI], axis=-1)

    def s_phiphi(I, phi):
        p1, p2 = phi[..., 0], phi[..., 1]
        cc = eta * np.cos(TWO_PI * (p1 + p2))
        out = np.zeros(phi.shape[:-1] + (2, 2), np.result_type(phi, 1.0))
        out[..., 0, 0] = np.cos(TWO_PI * p1) + cc
        out[..., 0, 1] = cc
        out[..., 1, 0] = cc
        out[..., 1, 1] = np.cos(TWO_PI * p2) + cc
        return out

    return s, s_phi, s_phiphi


def action_dependent_forms():
    """(s, s_I, s_phi, s_II, s_Iphi, s_phiphi) of a d = 1 generating term
    that depends on the new action, on (..., 1) arrays:

        s(I', phi) = -(1 + I'^2 / 2) cos(2 pi phi) / (2 pi)^2

    so the step's Picard solve for I' and the inverse step's solve for phi
    both take more than one iterate.  s is 1-periodic in phi: the map is
    exact."""
    def s(I, phi):
        return -(1 + I[..., 0] ** 2 / 2) * np.cos(TWO_PI * phi[..., 0]) / TWO_PI**2

    def s_I(I, phi):
        return -I * np.cos(TWO_PI * phi) / TWO_PI**2

    def s_phi(I, phi):
        return (1 + I**2 / 2) * np.sin(TWO_PI * phi) / TWO_PI

    def s_II(I, phi):
        return (-np.cos(TWO_PI * phi) / TWO_PI**2)[..., None]

    def s_Iphi(I, phi):
        return (I * np.sin(TWO_PI * phi) / TWO_PI)[..., None]

    def s_phiphi(I, phi):
        return ((1 + I**2 / 2) * np.cos(TWO_PI * phi))[..., None]

    return s, s_I, s_phi, s_II, s_Iphi, s_phiphi


def dirichlet_loop(omega, N, slack=1e-15):
    """`resonance.dirichlet`'s search as the one-candidate loop it was:
    (n, omega_*) of the first n < N with max|omega - round(n omega) / n|
    below 1 / (n N^(1/d)) + slack, or None."""
    omega = np.atleast_1d(np.asarray(omega, dtype=float))
    root = N ** (1.0 / omega.shape[0])
    for n in range(1, int(math.ceil(N))):
        omega_star = np.round(n * omega) / n
        if float(np.max(np.abs(omega - omega_star))) < 1.0 / (n * root) + slack:
            return n, omega_star
    return None


def catalog_norms(name, eta=None):
    """The hand-entered DomainSpec norms of a catalog trig map."""
    if name == "standard":
        return {"norm_a": 1.0 / TWO_PI, "norm_b": 1.0 / TWO_PI, "norm_s": 1.0 / TWO_PI**2,
                "norm_omega_prime": 1.0, "norm_h0pp": 1.0, "nu": 1.0, "nu2": 1.0}
    return {"norm_a": (1.0 + abs(eta)) / TWO_PI, "norm_b": (1.0 + abs(eta)) / TWO_PI,
            "norm_s": (2.0 + abs(eta)) / TWO_PI**2, "norm_omega_prime": 1.0,
            "norm_h0pp": 1.0, "nu": 1.0, "nu2": 2.0}


# The row-by-row CSV writer the CLI used before it wrote columns, frozen: the
# column writer must give the same bytes.

def row_fmt(x) -> str:
    """One value as the row writer formatted it: 17 significant digits."""
    if isinstance(x, (bool, np.bool_)):
        return "1" if x else "0"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return f"{float(x):.17g}"


def write_csv_rows(path, header, rows):
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(row_fmt(v) if not isinstance(v, str) else v for v in row) + "\n")
    return path


# The s_phi kick of a trigonometric term as the fused body ran it before its
# calls were recorded as a program, frozen: s_phi and the compiled step
# bodies must give the same bits.  s = -sum_j c_j cos(2 pi k_j . phi) / (2 pi)^2, so s_phi_i =
# sum_j k_ji c_j sin(2 pi k_j . phi) / 2 pi.

def _lincomb_rows(terms, like):
    """sum of w * x over (x, w), left to right; a weight of +-1 is an add or
    subtract, never a multiply, and an empty sum is zero."""
    acc = None
    for x, w in terms:
        if acc is None:
            acc = x if w == 1 else np.multiply(x, w)
            continue
        if abs(w) != 1:
            x = np.multiply(x, abs(w))
        acc = (np.add if w >= 0 else np.subtract)(acc, x)
    return np.zeros_like(like) if acc is None else acc


def kick_rows(modes, coeffs, angles):
    """s_phi on component-major rows: ``angles`` (d, n) holds reduced angles.

    Per mode: the phase k_j . angles (a unit mode e_i reads row i as is),
    times 2 pi, sin, times c_j unless c_j = 1; per component i the sum over
    the modes with k_ji != 0 of k_ji times those rows, then / 2 pi.
    """
    K, c = np.asarray(modes), np.asarray(coeffs, dtype=float)
    sines = []
    for k, cj in zip(K, c):
        used = np.flatnonzero(k)
        theta = _lincomb_rows([(angles[i], k[i]) for i in used], angles[0])
        sine = np.sin(np.multiply(theta, TWO_PI))
        sines.append(sine if cj == 1 else np.multiply(sine, cj))
    return np.stack([np.divide(_lincomb_rows([(sines[j], K[j, i]) for j in range(len(K))
                                               if K[j, i]], angles[0]), TWO_PI)
                     for i in range(K.shape[1])])


# s and s_phiphi of a trigonometric term as its callbacks computed them with
# recorded calls, frozen: s = -sum_j c_j cos(2 pi theta_j) / (2 pi)^2 with
# theta_j = k_j . phi, and s_phiphi_il = sum_j k_ji k_jl c_j cos(2 pi theta_j).

def _cosine_rows(K, phi):
    return [np.cos(TWO_PI * _lincomb_rows([(phi[..., i], k[i]) for i in np.flatnonzero(k)],
                                          phi[..., 0])) for k in K]


def s_rows(modes, coeffs, phi):
    """s at the angles phi (..., d)."""
    K, c = np.asarray(modes), np.asarray(coeffs, dtype=float)
    return -_lincomb_rows(list(zip(_cosine_rows(K, phi), c)), phi[..., 0]) / TWO_PI**2


def s_phiphi_rows(modes, coeffs, phi):
    """s_phiphi at the angles phi (..., d), of shape (..., d, d)."""
    K, c = np.asarray(modes), np.asarray(coeffs, dtype=float)
    cos = [x if cj == 1 else np.multiply(x, cj) for x, cj in zip(_cosine_rows(K, phi), c)]
    d = K.shape[1]
    return np.stack([np.stack([_lincomb_rows([(x, k[i] * k[l]) for x, k in zip(cos, K)
                                              if k[i] * k[l]], phi[..., 0])
                               for l in range(d)], axis=-1) for i in range(d)], axis=-2)


# The scan's per-window statistics as `stability_scan` took them state by
# state before it read them from per-seed extrema, frozen: the extrema must
# give the same bits.

def _max_abs_diff(A, B):
    out = np.abs(np.subtract(A[..., 0], B[..., 0]))
    for j in range(1, A.shape[-1]):
        np.maximum(out, np.abs(np.subtract(A[..., j], B[..., j])), out=out)
    return out


def scan_per_state(model, x0, horizon, radius=None):
    """(excursion, exit_index, max_step_drift, status) per seed of x0 (N, 2d),
    through the orbit engine `maps._orbits`, statistics taken per state."""
    from mapflow import maps

    x0 = np.atleast_2d(np.asarray(x0, dtype=float))
    n, d = len(x0), model.d
    exc, drift = np.zeros(n), np.zeros(n)
    exit_idx, escape_idx = np.full(n, -1), np.full(n, -1)
    done = 0
    for live, xs, first in maps._orbits(model, x0, horizon, 1):
        Is = xs[..., :d]
        dev = _max_abs_diff(Is[1:], x0[live, :d])
        dstep = _max_abs_diff(Is[1:], Is[:-1])
        stop = ~np.isfinite(dev)
        left = first >= 0
        for c in np.flatnonzero(left):
            stop[first[c]:, c] = True
        dev[stop] = dstep[stop] = -np.inf
        escape_idx[live[left]] = done + first[left]
        exc[live] = np.maximum(exc[live], dev.max(axis=0, initial=-np.inf))
        drift[live] = np.maximum(drift[live], dstep.max(axis=0, initial=-np.inf))
        if radius is not None:
            crossed = dev > radius
            newly = crossed.any(axis=0) & (exit_idx[live] < 0)
            exit_idx[live[newly]] = done + 1 + np.argmax(crossed[:, newly], axis=0)
        done += xs.shape[0] - 1
        del xs, Is
    return [(float(exc[i]), None if exit_idx[i] < 0 else int(exit_idx[i]), float(drift[i]),
             "ok" if escape_idx[i] < 0 else f"domain_escape@{escape_idx[i]}") for i in range(n)]


class SeedRow(NamedTuple):
    """One seed of a scan record, in `scan_per_state`'s tuple form."""

    excursion: float
    exit_index: Optional[int]
    max_step_drift: float
    status: str


def per_seed(rec):
    """A `StabilityRecord`'s per-seed arrays as `scan_per_state`'s tuples:
    exit None for -1, status "ok" or "domain_escape@k" from the escape."""
    return [SeedRow(e, None if k < 0 else k, s, "ok" if q < 0 else f"domain_escape@{q}")
            for e, k, s, q in zip(rec.excursion.tolist(), rec.exit_index.tolist(),
                                  rec.max_step_drift.tolist(), rec.escape_index.tolist())]


# The modified Hamiltonian of a kick-drift map in closed form, by the
# Baker-Campbell-Hausdorff series (Hairer, Lubich and Wanner, Geometric
# Numerical Integration, ch. IX).  The member of
# `near_identity_family(catalog(name, eps0))` at mu is F = drift(mu T) o
# kick(mu V), T = |I|^2/2 and V = eps0 s(phi), so for the Lie operators
# L_H f = {f, H}, with {f, g} = f_phi . g_I - f_I . g_phi, the pull-back by
# F is exp(mu L_V) exp(mu L_T) = exp(L_Htilde).  Since [L_A, L_B] = L_{B,A},
# Htilde is log(e^x e^y) with x -> mu V, y -> mu T and each bracket [a, b]
# read as br(A, B) = {B, A}.  Hamiltonians are dicts {(a, k): c} of
# monomials c I^a e^(2 pi i k . phi), on which the bracket is closed.

BCH_EPS0 = 0.5
BCH_ETA = 0.3
#: the degree at which the series is truncated, per catalog map
BCH_DEGREE = {"standard": 10, "froeschle2": 8}


def bch_words(K):
    """log(e^x e^y) in the free associative algebra on the letters 0 (x) and
    1 (y), truncated at degree K: {word: Fraction}.

    With W = e^x e^y - 1 = sum x^i y^j / (i! j!) over i + j >= 1, the
    coefficient of a word w in log(1 + W) = sum_k (-1)^(k+1) W^k / k needs
    P_k(w), its coefficient in W^k: w's last factor of W is a suffix of the
    form x^i y^j, so P_k(w) = sum over those suffixes of P_(k-1)(prefix) / (i! j!).
    """
    P = {(): [Fraction(1)]}
    coef = {}
    last = [()]
    for n in range(1, K + 1):
        level = [u + (letter,) for u in last for letter in (0, 1)]
        for w in level:
            pk = [Fraction(0)] * (n + 1)
            for i, j in _suffix_blocks(w):
                weight = Fraction(1, math.factorial(i) * math.factorial(j))
                for k, p in enumerate(P[w[:n - i - j]]):
                    pk[k + 1] += p * weight
            P[w] = pk
            c = sum(Fraction((-1) ** (k + 1), k) * pk[k] for k in range(1, n + 1))
            if c:
                coef[w] = c
        last = level
    return coef


def _suffix_blocks(w):
    """(i, j) of every suffix x^i y^j of the word w, i + j >= 1."""
    n, b, a = len(w), 0, 0
    while b < n and w[n - 1 - b] == 1:
        b += 1
    while a + b < n and w[n - 1 - b - a] == 0:
        a += 1
    return [(0, j) for j in range(1, b + 1)] + [(i, b) for i in range(1, a + 1)]


def poisson(F, G):
    """{F, G} = F_phi . G_I - F_I . G_phi of two monomial dicts:
    {c1 I^a e^(2 pi i k.phi), c2 I^b e^(2 pi i l.phi)}
    = 2 pi i c1 c2 sum_j (k_j b_j - a_j l_j) I^(a+b-e_j) e^(2 pi i (k+l).phi)."""
    out = {}
    for (a, k), c1 in F.items():
        for (b, l), c2 in G.items():
            kl = tuple(x + y for x, y in zip(k, l))
            for j in range(len(a)):
                f = k[j] * b[j] - a[j] * l[j]
                if f:
                    key = (tuple(x + y - (i == j) for i, (x, y) in enumerate(zip(a, b))), kl)
                    out[key] = out.get(key, 0.0) + 2j * math.pi * f * c1 * c2
    return out


def _kick_drift_letters(name):
    """(V, T) of the near-identity member at mu = 1, as monomial dicts."""
    if name == "standard":
        modes, coeffs = [(1,)], [1.0]
    else:
        modes, coeffs = [(1, 0), (0, 1), (1, 1)], [1.0, 1.0, BCH_ETA]
    d = len(modes[0])
    zero = (0,) * d
    V = {}
    for k, c in zip(modes, coeffs):  # -eps0 c cos(2 pi k.phi) / (2 pi)^2
        for sign in (1, -1):
            V[zero, tuple(sign * x for x in k)] = -BCH_EPS0 * c / (2 * TWO_PI**2)
    T = {(tuple(2 * (i == j) for i in range(d)), zero): 0.5 for j in range(d)}
    return V, T


@functools.cache
def bch_hamiltonian(name):
    """The degree parts (H_1, ..., H_K) of the modified Hamiltonian at mu = 1 of
    `near_identity_family(catalog(name, 0.5))` ("froeschle2" at eta = 0.3);
    at mu the Hamiltonian is sum_n mu^n H_n.  Degree n is the
    Dynkin-Specht-Wever image (1/n) sum c_w [w_1, [w_2, ... w_n]] of the
    words of `bch_words`."""
    letters = _kick_drift_letters(name)
    nested = {}

    def right_normed(w):  # [w_1, [w_2, ... w_n]] with [a, b] -> {B, A}
        if len(w) == 1:
            return letters[w[0]]
        if w not in nested:
            nested[w] = poisson(right_normed(w[1:]), letters[w[0]])
        return nested[w]

    K = BCH_DEGREE[name]
    parts = [{} for _ in range(K)]
    for w, c in bch_words(K).items():
        if len(w) > 1 and w[-1] == w[-2]:
            continue  # [x, x] = [y, y] = 0
        Hn = parts[len(w) - 1]
        for key, v in right_normed(w).items():
            Hn[key] = Hn.get(key, 0.0) + float(c / len(w)) * v
    return tuple(parts)


def _waves(H, x):
    """Per monomial c I^a e^(2 pi i k.phi) of H: a, k and c e^(2 pi i k.phi)
    at the points x (P, 2d)."""
    d = x.shape[-1] // 2
    for (a, k), c in H.items():
        yield np.array(a), np.array(k), c * np.exp(2j * math.pi * (x[:, d:] @ np.array(k)))


def bch_value(H, x):
    """H at the points x (P, 2d), real."""
    I = x[:, :x.shape[-1] // 2]
    return sum(w * np.prod(I**a, axis=-1) for a, _, w in _waves(H, x)).real


def bch_field(name, x, mu):
    """The field (-H_phi, H_I) of the modified Hamiltonian at mu, at the points x (P, 2d)."""
    d = x.shape[-1] // 2
    I = x[:, :d]
    out = np.zeros(x.shape, dtype=complex)
    for n, Hn in enumerate(bch_hamiltonian(name), start=1):
        for a, k, w in _waves(Hn, x):
            w = mu**n * w
            out[:, :d] -= 2j * math.pi * k * (w * np.prod(I**a, axis=-1))[:, None]
            for j in np.flatnonzero(a):
                out[:, d + j] += a[j] * w * np.prod(I ** (a - (np.arange(d) == j)), axis=-1)
    return out.real
