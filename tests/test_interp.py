"""Discrete averaging: weights, differences, exactness, order scaling."""

import time
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mapflow import (
    catalog,
    finite_differences,
    interpolating_vf,
    near_identity_family,
    newton_weights,
    nonexact_shear,
    orbit_window,
    order_scaling_check,
    stability_scan,
    trapped_orbit,
)
from mapflow import (ResonanceSite, distance_to_identity, fit_log_law, h2_closed_form, maps,
                     scaled_block)
from mapflow.errors import DegenerateFit, DomainEscape, OrderTooLarge
from mapflow.hamiltonian import Box, embedding_error, interpolating_field, unit_box
from mapflow.interp import M_MAX, VERIFY_TOL, as_map, field_from_window
from mapflow.maps import MapModel
from mapflow.resonance import BlockMap

from oracles import (BCH_EPS0, BCH_ETA, TWO_PI, bch_field, bch_hamiltonian, bch_value,
                     bch_words, binomial_difference, binomial_weights, per_seed)


class TestFiniteDifferences:
    def test_constant_orbit(self):
        pts = np.tile([2.0, -1.0], (4, 1))
        D = finite_differences(pts)
        assert np.allclose(D[0], [2.0, -1.0])
        assert np.allclose(D[1:], 0.0)

    def test_linear_orbit(self):
        v = np.array([0.3, -0.7])
        pts = np.array([k * v for k in range(5)])
        D = finite_differences(pts)
        assert np.allclose(D[1], v)
        assert np.allclose(D[2:], 0.0)

    def test_geometric_orbit(self):
        # k-th difference of 2^j collapses to (2-1)^k = 1 at the anchor
        pts = np.array([[1.0], [2.0], [4.0], [8.0]])
        D = finite_differences(pts)
        assert np.allclose(D.ravel(), [1.0, 1.0, 1.0, 1.0])
        # cross-check against the raw binomial oracle
        for k in range(4):
            assert np.allclose(D[k], binomial_difference(pts, k))

    @given(st.lists(st.floats(-10, 10), min_size=5, max_size=5))
    @settings(max_examples=100, deadline=None)
    def test_recursive_matches_binomial(self, vals):
        pts = np.array(vals)[:, None]
        D = finite_differences(pts)
        for k in range(5):
            assert np.allclose(D[k], binomial_difference(pts, k), atol=1e-9)


class TestWeights:
    def test_m1(self):
        assert np.allclose(newton_weights(1), [-1.0, 1.0])

    def test_m2(self):
        assert np.allclose(newton_weights(2), [-1.5, 2.0, -0.5])

    @pytest.mark.parametrize("m", range(1, 13))
    def test_matches_binomial_oracle(self, m):
        assert np.max(np.abs(newton_weights(m) - binomial_weights(m))) <= 1e-12

    @pytest.mark.parametrize("m", list(range(1, 31)))
    def test_sum_constraints(self, m):
        # binomial weights reach ~2^m, so the achievable cancellation floor
        # scales with their magnitude; below m=12 it sits under 1e-12
        w = newton_weights(m)
        scale = max(1.0, float(np.max(np.abs(w))))
        tol = 1e-12 if m <= 12 else 1e-12 * scale
        assert abs(w.sum()) <= tol
        assert abs(np.dot(np.arange(m + 1), w) - 1.0) <= tol

    def test_order_bounds(self):
        with pytest.raises(OrderTooLarge):
            newton_weights(0)
        with pytest.raises(OrderTooLarge):
            newton_weights(M_MAX + 1)

    def test_weight_and_difference_forms_agree(self, rng):
        for m in (1, 3, 7, 12, 20):
            for _ in range(5):
                pts = rng.uniform(-1, 1, (m + 1, 4))
                a = field_from_window(pts)
                b = newton_weights(m) @ pts  # the weight form sum_k p_mk x_k
                assert np.max(np.abs(a - b)) <= 1e-10 * max(1.0, np.max(np.abs(pts)))


def _poly_orbit(coeffs, ks):
    # coeffs shape (deg+1, dim); P(k) = sum_j coeffs[j] k^j
    return np.array([sum(c * k**j for j, c in enumerate(coeffs)) for k in ks])


class TestPolynomialExactness:
    def test_random_polynomials(self, rng):
        for _ in range(100):
            m = int(rng.integers(1, 11))
            deg = int(rng.integers(0, m + 1))
            coeffs = rng.uniform(-1, 1, (deg + 1, 2))
            pts = _poly_orbit(coeffs, range(m + 1))
            got = field_from_window(pts)
            want = coeffs[1] if deg >= 1 else np.zeros(2)
            # relative to the window magnitude: degree-10 samples reach 1e10,
            # which caps the recoverable derivative accuracy in float64
            scale = max(1.0, float(np.max(np.abs(pts))))
            assert np.max(np.abs(got - want)) <= 1e-9 * scale

    def test_gauss_equals_newton_on_polynomials(self, rng):
        for m in (2, 4, 6):
            coeffs = rng.uniform(-1, 1, (m + 1, 3))
            j = m // 2
            gauss_pts = _poly_orbit(coeffs, range(-j, j + 1))
            newton_pts = _poly_orbit(coeffs, range(m + 1))
            g = field_from_window(gauss_pts, "gauss")
            n = field_from_window(newton_pts)
            assert np.allclose(g, coeffs[1], atol=1e-10)
            assert np.allclose(n, coeffs[1], atol=1e-10)

    def test_gauss_m2_is_central_difference(self, rng):
        pts = rng.uniform(-1, 1, (3, 4))
        got = field_from_window(pts, "gauss")
        assert np.max(np.abs(got - 0.5 * (pts[2] - pts[0]))) <= 1e-14


class TestInterpolatingVF:
    def test_twist_exact_any_order(self, rng):
        m = catalog("twist", 0.0)
        for order in (1, 2, 5, 9):
            x = np.array([0.37, 0.11])
            X = interpolating_vf(m, x, order)
            assert np.allclose(X, [0.0, 0.37], atol=1e-12)

    def test_gauss_on_generating_map(self):
        m = catalog("standard", 1e-3)
        x = np.array([0.05, 0.21])
        Xg = interpolating_vf(m, x, 2, scheme="gauss")
        x_fwd = m.apply(x)
        x_back = m.inverse(x)
        assert np.allclose(Xg, 0.5 * (x_fwd - x_back), atol=1e-13)

    def test_norm_bounded_by_twice_distance(self):
        # |X_m| <= 2 eps_hat on a near-identity block, verified numerically
        from mapflow import distance_to_identity, scaled_block, unit_box
        from mapflow import ResonanceSite

        model = catalog("standard", 1e-3)
        site = ResonanceSite(n=1, omega_star=[0.0], I_star=[0.0], rho_n=0.1)
        blk = scaled_block(model, site, scaling="nucleus")
        box = unit_box(1)
        eh = distance_to_identity(blk, box, 5)
        for order in (1, 2, 3):
            worst = max(np.max(np.abs(interpolating_vf(blk, x, order)))
                        for x in box.grid(4))
            assert worst <= 2.0 * eh

    def test_window_verification_rejects_nondeterministic_map(self):
        calls = [0]

        def drifting(x):
            calls[0] += 1
            return x + 1e-6 * calls[0]

        with pytest.raises(ValueError):
            orbit_window(drifting, np.array([0.0, 0.0]), 3)

    def test_affine_equivariance(self, rng):
        # conjugating by an affine change maps X_m by the linear part
        model = catalog("standard", 0.05)
        A = rng.uniform(-1, 1, (2, 2))
        A += np.sign(np.linalg.det(A) or 1.0) * 2 * np.eye(2)
        shift = rng.uniform(-0.2, 0.2, 2)
        Ainv = np.linalg.inv(A)

        def conj(y):
            return A @ model.apply(Ainv @ (y - shift)) + shift

        x0 = np.array([0.21, 0.43])
        m_order = 4
        Xf = interpolating_vf(model, x0, m_order)
        Xg = interpolating_vf(conj, A @ x0 + shift, m_order)
        assert np.max(np.abs(Xg - A @ Xf)) <= 1e-10


def _blocks():
    """Block maps at both scalings, with sites of period 1, 2 and 3."""
    std = catalog("standard", 1e-4)
    fro = catalog("froeschle2", 1e-4, eta=0.3)
    return [
        scaled_block(std, ResonanceSite(n=1, omega_star=[0.0], I_star=[0.0], rho_n=0.2),
                     "nucleus"),
        scaled_block(std, ResonanceSite(n=2, omega_star=[0.5], I_star=[0.5], rho_n=0.1),
                     "lochak"),
        scaled_block(fro, ResonanceSite(n=3, omega_star=[1 / 3, 2 / 3],
                                        I_star=[1 / 3, 2 / 3], rho_n=0.05), "lochak"),
    ]


class TestOrbitWindow:
    @pytest.mark.parametrize("name, x0", [("standard", [0.31, 0.42]),
                                          ("froeschle2", [0.2, -0.3, 0.1, 0.7])])
    def test_map_model_window_bitwise_equals_repeated_steps(self, name, x0):
        model = catalog(name, 0.05)
        for m in (1, 2, 5, 9):
            pts = [np.array(x0)]
            for _ in range(m):
                pts.append(model.apply(pts[-1]))
            assert np.array_equal(orbit_window(model, x0, m), np.array(pts))

    @pytest.mark.parametrize("blk", _blocks(), ids=["nucleus_n1", "lochak_n2", "lochak_n3"])
    def test_block_window_matches_repeated_apply(self, blk, rng):
        for _ in range(3):
            x0 = np.concatenate([rng.uniform(-1, 1, blk.d), rng.uniform(0, 1, blk.d)])
            for m in (1, 4, 6):
                pts = [x0]
                for _ in range(m):
                    pts.append(blk.apply(pts[-1]))
                win = orbit_window(blk, x0, m)
                scale = max(1.0, float(np.max(np.abs(win))))
                assert np.max(np.abs(win - np.array(pts))) <= VERIFY_TOL * scale
            for m in (2, 4, 6):
                back = [x0]
                for _ in range(m // 2):
                    back.append(blk.inverse(back[-1]))
                pts = back[::-1]
                for _ in range(m // 2):
                    pts.append(blk.apply(pts[-1]))
                win = orbit_window(blk, x0, m, "gauss")
                scale = max(1.0, float(np.max(np.abs(win))))
                assert np.max(np.abs(win - np.array(pts))) <= VERIFY_TOL * scale

    def test_escaping_window_raises_and_is_recorded(self):
        # the kick at phi = 0.75 pushes the action across |I| = 1.5 within one step
        with pytest.raises(DomainEscape):
            orbit_window(catalog("standard", 0.1), np.array([1.499, 0.75]), 3)
        site = ResonanceSite(n=1, omega_star=[0.0], I_star=[0.0], rho_n=0.1)
        blk = scaled_block(catalog("standard", 0.01), site, "nucleus")
        x = np.array([14.99, 0.75])            # I = 1.499, inside the domain
        blk.apply(x)
        with pytest.raises(DomainEscape):
            orbit_window(blk, x, 3)
        # a gauss window's backward step leaves too: its inverse image is outside
        with pytest.raises(DomainEscape, match="inverse"):
            orbit_window(blk, x, 2, "gauss")
        rep = embedding_error(blk, 3, Box(lo=[14.0, 0.0], hi=[14.99, 1.0]), 3,
                              tol=1e-10)
        assert [i for i, _ in rep.failures] == [6, 7, 8]    # the J = 14.99 row
        assert np.all(np.isnan(rep.errors[6:])) and np.all(np.isfinite(rep.errors[:6]))

    def test_one_block_map_call_per_field(self, monkeypatch):
        # newton: the orbit engine alone; gauss: one apply checks the backward half
        calls = [0]
        apply = BlockMap.apply

        def counted(self, x):
            calls[0] += 1
            return apply(self, x)

        monkeypatch.setattr(BlockMap, "apply", counted)
        blk = _blocks()[1]
        x = np.array([0.3, 0.4])
        for m in range(1, 7):
            calls[0] = 0
            interpolating_vf(blk, x, m)
            assert calls[0] == 0
            if m % 2 == 0:
                calls[0] = 0
                interpolating_vf(blk, x, m, scheme="gauss")
                assert calls[0] == 1

    @pytest.mark.parametrize("case", ["standard", "lochak_n3"])
    def test_gauss_window_is_one_backward_and_one_forward_engine_call(self, case,
                                                                       monkeypatch):
        # plus the one apply that checks the backward half, and no inverse call
        if case == "standard":
            F, n = catalog("standard", 1e-3), 1
        else:
            site = ResonanceSite(n=3, omega_star=[1 / 3], I_star=[1 / 3], rho_n=0.05)
            F, n = scaled_block(catalog("standard", 1e-3), site, "lochak"), 3
        x = np.array([[0.3, 0.4], [-0.2, 0.7]])
        want = interpolating_vf(F, x, 6, "gauss")
        engine, inverses, applying = [], [], [False]
        windows, apply = maps.windows, type(F).apply

        def checking(self, y):
            applying[0] = True
            try:
                return apply(self, y)
            finally:
                applying[0] = False

        monkeypatch.setattr(maps, "windows",
                            lambda *a: engine.append((a[3], applying[0])) or windows(*a))
        monkeypatch.setattr(type(F), "apply", checking)
        for cls in (MapModel, BlockMap):
            monkeypatch.setattr(cls, "inverse", lambda self, y: inverses.append(y))
        got = interpolating_vf(F, x, 6, "gauss")
        assert engine == [(-n, False), (n, False), (n, True)]
        assert not inverses
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("case", ["standard", "froeschle2", "nucleus_n1"])
    def test_newton_field_makes_one_engine_call_and_no_apply(self, case, monkeypatch):
        if case == "nucleus_n1":
            F = _blocks()[0]
        else:
            F = catalog(case, 0.05) if case == "standard" else catalog(case, 0.05, eta=0.3)
        x = np.concatenate([np.full((5, F.d), 0.1), np.full((5, F.d), 0.3)], axis=-1)
        want = interpolating_vf(F, x, 6)
        applies, engine = [], []
        windows = maps.windows
        for cls in (MapModel, BlockMap):
            monkeypatch.setattr(cls, "apply", lambda self, y: applies.append(y))
        monkeypatch.setattr(maps, "windows", lambda *a: engine.append(a) or windows(*a))
        for m in (1, 6):
            engine.clear()
            got = interpolating_vf(F, x, m)
            assert len(engine) == 1 and not applies
        assert np.array_equal(got, want)


def _bad_standard():
    """Standard map, eps = 1, whose kick is NaN above I = 0.255: from
    (0.24, 0.2) the orbit reaches the first NaN state at step 16."""
    std = catalog("standard", 1.0)
    return replace(std, s_phi=lambda I, p: np.where(I > 0.255, np.nan, std.s_phi(I, p)))


class TestBatchedField:
    @pytest.mark.parametrize("scheme", ["newton", "gauss"])
    @pytest.mark.parametrize("case", ["standard", "froeschle2", "nucleus_n1", "lochak_n2",
                                      "lochak_n3"])
    def test_batch_bitwise_equals_one_point(self, case, scheme, rng):
        if case in ("standard", "froeschle2"):
            F = catalog(case, 0.05)
        else:
            F = _blocks()[["nucleus_n1", "lochak_n2", "lochak_n3"].index(case)]
        d = F.d
        x = np.concatenate([rng.uniform(-0.3, 0.3, (7, d)), rng.uniform(0, 1, (7, d))], axis=-1)
        for m in ((2, 4, 6) if scheme == "gauss" else (1, 3, 6)):
            got = interpolating_vf(F, x, m, scheme)
            assert got.shape == x.shape
            assert np.array_equal(got, np.array([interpolating_vf(F, p, m, scheme) for p in x]))

    def test_window_of_a_batch_is_checked_per_point(self):
        # residuals of about 1e-8 pass at points of size 1e6, not at one of size 1
        calls = [0]

        def drifting(x):
            calls[0] += 1
            return x + 1e-3 + 1e-9 * calls[0]

        orbit_window(drifting, np.array([[1e6, 0.2], [2e6, 0.3]]), 3)
        with pytest.raises(ValueError, match="verification"):
            orbit_window(drifting, np.array([[1e6, 0.2], [0.1, 0.3]]), 3)

    def test_non_finite_window_is_rejected(self):
        bad, x0 = _bad_standard(), np.array([0.24, 0.2])
        assert np.isfinite(bad.orbit(x0, 15)).all()
        with pytest.raises(DomainEscape):
            bad.orbit(x0, 16)
        with pytest.raises(DomainEscape):
            interpolating_vf(bad, x0, 16)
        # a plain function's NaN step reaches the window check: from (0.24, 0.2)
        # the standard map's state 15 is the first above I = 0.255
        std = catalog("standard", 1.0)

        def plain(x):
            return np.full_like(x, np.nan) if x[0] > 0.255 else std.apply(x)

        with pytest.raises(ValueError, match="verification"):
            interpolating_vf(plain, x0, 16)

    def test_non_finite_step_raises_on_models_and_blocks(self):
        # one failure rule, the orbit engine's: apply and inverse raise where
        # the step gives a non-finite state, as an orbit does
        bad = _bad_standard()
        blk = scaled_block(bad, ResonanceSite(n=1, omega_star=[0.0], I_star=[0.0],
                                              rho_n=0.2), "nucleus")   # rho = 1: J = I
        for F in (bad, blk):
            for x in (np.array([0.3, 0.2]), np.array([[0.1, 0.2], [0.3, 0.2]])):
                with pytest.raises(DomainEscape, match="non-finite"):
                    F.apply(x)
                with pytest.raises(DomainEscape, match="inverse"):
                    F.inverse(x)


class TestOneLastStateRule:
    """orbit, apply, the scan and trapped_orbit decide a last state alike:
    no step is taken from it, so it is an escape only when it is not finite."""

    @pytest.mark.parametrize("window", [1, 7, maps.WINDOW])
    def test_finite_last_state_outside_is_returned(self, window, monkeypatch):
        monkeypatch.setattr(maps, "WINDOW", window)
        m = nonexact_shear(0.01)
        x0 = np.array([1.455, 0.2])  # I_k = 1.455 + 0.01 k leaves |I| <= 1.5 at k = 5
        orb = m.orbit(x0, 5)
        assert not m.domain.contains_extended(orb[5, :1])
        assert np.array_equal(m.apply(orb[4]), orb[5])
        assert per_seed(stability_scan(m, x0, 5))[0].status == "ok"
        # the step from it is what escapes
        with pytest.raises(DomainEscape) as exc:
            m.orbit(x0, 6)
        assert exc.value.index == 6
        assert per_seed(stability_scan(m, x0, 6))[0].status == "domain_escape@5"

    @pytest.mark.parametrize("window", [1, 7, maps.WINDOW])
    def test_non_finite_last_state_is_an_escape(self, window, monkeypatch):
        monkeypatch.setattr(maps, "WINDOW", window)
        bad, x0 = _bad_standard(), np.array([0.24, 0.2])
        site = ResonanceSite(n=1, omega_star=[0.0], I_star=[0.0], rho_n=0.2)
        blk = scaled_block(bad, site, "nucleus")  # rho = 1: J = I, inside r1 = 0.50 up to step 16
        for F in (bad, blk):
            x15 = F.orbit(x0, 15)[15]
            assert np.isfinite(x15).all()
            with pytest.raises(DomainEscape, match="non-finite") as orbit_exc:
                F.orbit(x0, 16)
            with pytest.raises(DomainEscape, match="non-finite") as apply_exc:
                F.apply(x15)
            assert (orbit_exc.value.index, apply_exc.value.index) == (17, 2)
        # the NaN state and the step into it take no part in the statistics,
        # also where state 16 ends one window and escapes only in the next
        I = bad.orbit(x0, 15)[:, 0]
        stats = np.max(np.abs(I[1:] - I[0])), np.max(np.abs(np.diff(I)))
        for horizon in (16, 40):
            rec, = per_seed(stability_scan(bad, x0, horizon))
            assert (rec.status, rec.exit_index) == ("domain_escape@16", None)
            assert (rec.excursion, rec.max_step_drift) == stats
        assert trapped_orbit(bad, site, x0, 15).exit_index is None
        with pytest.raises(DomainEscape):
            trapped_orbit(bad, site, x0, 16)


def _one_point_only(model, calls):
    """A map that accepts exactly one (2d,) vector: a conjugate of ``model``."""
    A = np.array([[2.0, 0.3], [-0.4, 1.5]])
    Ainv = np.linalg.inv(A)
    shift = np.array([0.05, -0.1])

    def conj(y):
        assert y.shape == (2,)
        calls[0] += 1
        return A @ model.apply(Ainv @ (y - shift)) + shift

    return conj


class TestFlatMapProtocol:
    def test_models_and_blocks_pass_unchanged(self):
        model = catalog("standard", 0.05)
        assert as_map(model) is model
        for blk in _blocks():
            assert as_map(blk) is blk

    def test_pointwise_apply_calls_once_per_row(self, rng):
        calls = [0]
        F = as_map(_one_point_only(catalog("standard", 0.05), calls))
        x = np.column_stack([rng.uniform(-0.1, 0.1, 7), rng.uniform(0, 0.2, 7)])
        out = F.apply(x)
        assert calls[0] == 7 and out.shape == (7, 2)
        for row, img in zip(x, out):
            assert np.array_equal(img, F.apply(row))

    def test_distance_to_identity_of_one_point_map(self):
        calls = [0]
        conj = _one_point_only(catalog("standard", 0.05), calls)
        box = Box(lo=[-0.1, 0.0], hi=[0.1, 0.2])
        want = max(float(np.max(np.abs(conj(x) - x))) for x in box.grid(4))
        calls[0] = 0
        assert distance_to_identity(conj, box, 4) == want
        assert calls[0] == 16

    def test_gauss_needs_an_inverse(self):
        with pytest.raises(ValueError, match="invertible"):
            orbit_window(lambda x: x + 0.01, np.array([0.1, 0.2]), 2, "gauss")

    def test_plain_function_field_and_embedding(self, rng):
        # a plain function has no attributes: no dim, no orbit, no inverse
        model = catalog("standard", 1e-3)

        def f(x):
            return model.apply(x)

        x = np.column_stack([rng.uniform(-0.5, 0.5, 5), rng.uniform(0, 1, 5)])
        for m in (1, 3):
            X = interpolating_field(f, m)
            assert np.array_equal(X(x), interpolating_vf(f, x, m))
            assert np.array_equal(X(x[0]), interpolating_vf(f, x[0], m))
        # the model steps row by row, so the plain function gives its report bit for bit
        rep = embedding_error(f, 1, unit_box(1), 3)
        want = embedding_error(model, 1, unit_box(1), 3)
        assert rep.failures == () and np.array_equal(rep.errors, want.errors)


class TestWindowRules:
    def test_gauss_needs_an_odd_number_of_points(self, rng):
        with pytest.raises(ValueError, match="even order"):
            field_from_window(rng.uniform(-1, 1, (4, 2)), "gauss")

    def test_gauss_window_needs_an_even_order(self):
        with pytest.raises(ValueError, match="even order"):
            orbit_window(catalog("standard", 0.05), np.array([0.1, 0.2]), 3, "gauss")

    def test_unknown_scheme(self, rng):
        with pytest.raises(ValueError, match="unknown scheme"):
            field_from_window(rng.uniform(-1, 1, (3, 2)), "midpoint")
        with pytest.raises(ValueError, match="unknown scheme"):
            orbit_window(catalog("standard", 0.05), np.array([0.1, 0.2]), 2, "midpoint")


class TestOrderScaling:
    def test_standard_map_family_slopes(self):
        fam = near_identity_family(catalog("standard", 0.5))
        grid = [1e-2, 5e-3, 2.5e-3, 1.25e-3]
        x0 = np.array([0.3, 0.11])
        for m, want in ((1, 2.0), (2, 3.0)):
            fit = order_scaling_check(fam, x0, m, grid)
            assert fit.slope == pytest.approx(want, abs=0.2)

    def test_integrable_family_degenerate(self):
        def fam(eps):
            return catalog("twist", 0.0)

        with pytest.raises(DegenerateFit):
            order_scaling_check(fam, np.array([0.3, 0.11]), 1, [1e-2, 5e-3, 2.5e-3, 1.25e-3])

    def test_needs_four_points(self):
        from mapflow.errors import FitFailed

        fam = near_identity_family(catalog("standard", 0.5))
        with pytest.raises(FitFailed):
            order_scaling_check(fam, np.array([0.3, 0.11]), 1, [1e-2, 5e-3])


class TestModifiedHamiltonian:
    """X_m against the field of the map's modified Hamiltonian in closed form
    (the BCH series of `oracles.bch_hamiltonian`): the error falls as
    mu^(m+1) along the near-identity family."""

    MUS = np.array([0.04, 0.02, 0.01, 0.005])
    #: ten times newton's double floor (about 1e-15): every compared error
    #: must lie above it, so that the slopes measure truncation, not roundoff
    FLOOR = 1e-14

    def test_words_of_degree_two_and_three(self):
        """log(e^x e^y) = x + y + [x, y]/2 + ([x, [x, y]] + [y, [y, x]])/12 + ..."""
        assert bch_words(3) == {(0,): 1, (1,): 1, (0, 1): Fraction(1, 2),
                                 (1, 0): Fraction(-1, 2),
                                 (0, 0, 1): Fraction(1, 12), (0, 1, 0): Fraction(-1, 6),
                                 (1, 0, 0): Fraction(1, 12), (1, 1, 0): Fraction(1, 12),
                                 (1, 0, 1): Fraction(-1, 6), (0, 1, 1): Fraction(1, 12)}

    def test_order_two_part_is_h2_closed_form(self, rng):
        """mu H_1 + mu^2 H_2 is `h2_closed_form` of the member's generating
        function mu (I^2/2 - eps0 cos(2 pi phi)/4 pi^2): H_2 = -eps0 I sin(2 pi phi)/4 pi."""
        H1, H2 = bch_hamiltonian("standard")[:2]
        x = np.stack([rng.uniform(-0.5, 0.5, 8), rng.uniform(0.0, 1.0, 8)], axis=-1)
        eps0, mu = 0.5, 0.02

        def S(p):
            return mu * (p[0] ** 2 / 2 - eps0 * np.cos(TWO_PI * p[1]) / TWO_PI**2)

        def grad(p):
            return np.array([mu * p[0], mu * eps0 * np.sin(TWO_PI * p[1]) / TWO_PI])

        want = [h2_closed_form(S, grad, p) for p in x]
        got = mu * bch_value(H1, x) + mu**2 * bch_value(H2, x)
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-17)
        np.testing.assert_allclose(bch_value(H2, x), -eps0 * x[:, 0] * np.sin(TWO_PI * x[:, 1])
                                   / (2 * TWO_PI), rtol=1e-13, atol=1e-17)

    def test_field_slopes(self, rng):
        t0 = time.perf_counter()
        cases = [("standard", {}, "newton", range(1, 6)), ("standard", {}, "gauss", (2, 4)),
                 ("froeschle2", {"eta": BCH_ETA}, "newton", range(1, 6))]
        for name, params, scheme, orders in cases:
            fam = near_identity_family(catalog(name, BCH_EPS0, **params))
            d = 1 if name == "standard" else 2
            x = np.concatenate([rng.uniform(-0.5, 0.5, (16, d)),
                                rng.uniform(0.0, 1.0, (16, d))], axis=-1)
            fields = [bch_field(name, x, mu) for mu in self.MUS]
            for m in orders:
                errs = [np.max(np.abs(interpolating_vf(fam(mu), x, m, scheme) - X))
                        for mu, X in zip(self.MUS, fields)]
                fit = fit_log_law(np.log(self.MUS), errs, "vs_log_mu", floor=self.FLOOR)
                assert fit.n_excluded == 0, (name, scheme, m, errs)
                assert fit.slope == pytest.approx(m + 1, abs=0.2), (name, scheme, m)
        assert time.perf_counter() - t0 < 2.0
