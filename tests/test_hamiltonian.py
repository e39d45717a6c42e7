"""Flow embedding, Hamiltonian reconstruction, generating-function recovery."""

import math

import numpy as np
import pytest

from mapflow import (
    Box,
    ResonanceSite,
    catalog,
    circle_loop,
    distance_to_identity,
    embedding_error,
    flow_map,
    h2_closed_form,
    interpolating_field,
    loop_action,
    near_identity_family,
    nonexact_shear,
    optimal_order,
    reconstruct_hamiltonian,
    recover_generating,
    scaled_block,
    symmetry_defect,
    unit_box,
)
from mapflow.errors import DomainEscape, QuadratureFailure, StepFailure
from mapflow.hamiltonian import MAX_PANELS, _gauss_kronrod, cross_form_fields
from mapflow import experiments
from mapflow.experiments import SnDecomposition
from mapflow.maps import PICARD_TOL, _picard
from mapflow.resonance import BlockMap

from oracles import DOP853_FLOWS

TWO_PI = 2 * math.pi


def std_block(eps, scaling="nucleus"):
    model = catalog("standard", eps)
    site = ResonanceSite(n=1, omega_star=[0.0], I_star=[0.0],
                         rho_n=2.0 * eps**0.25)
    return scaled_block(model, site, scaling=scaling)


class TestFlowMap:
    def test_zero_field(self):
        X = lambda y: np.zeros_like(y)
        x = np.array([0.3, 0.4])
        assert np.array_equal(flow_map(X, x, 1.0), x)

    def test_constant_field(self):
        c = np.array([0.2, -0.1])
        X = lambda y: c
        y = flow_map(X, np.array([1.0, 1.0]), 1.0, tol=1e-12)
        assert np.max(np.abs(y - np.array([1.2, 0.9]))) <= 1e-12

    def test_rotation_quarter_turn(self):
        X = lambda y: np.stack([-y[..., 1], y[..., 0]], axis=-1)
        y = flow_map(X, np.array([1.0, 0.0]), math.pi / 2, tol=1e-12)
        assert np.max(np.abs(y - np.array([0.0, 1.0]))) <= 1e-11

    def test_tol_insensitivity(self):
        X = lambda y: np.stack([np.sin(y[..., 1]), np.cos(y[..., 0])], axis=-1)
        x = np.array([0.2, 0.4])
        a = flow_map(X, x, 1.0, tol=1e-10)
        b = flow_map(X, x, 1.0, tol=5e-11)
        assert np.max(np.abs(a - b)) <= 10 * 1e-10


class TestBox:
    def test_d_is_half_the_bounds(self):
        assert Box(lo=[-1.0, -1.0, 0.0, 0.0], hi=[1.0, 1.0, 1.0, 1.0]).d == 2
        assert unit_box(3).d == 3

    @pytest.mark.parametrize("lo, hi", [
        ([-1.0, 0.0, 0.0], [1.0, 1.0, 1.0]),                 # odd length
        ([-1.0, 0.0], [1.0, 1.0, 1.0, 1.0]),                 # mismatched shapes
        ([[-1.0, 0.0], [-1.0, 0.0]], [[1.0, 1.0], [1.0, 1.0]]),  # not one-dimensional
    ], ids=["odd", "mismatched", "2d"])
    def test_rejects_bounds_of_no_phase_space(self, lo, hi):
        with pytest.raises(ValueError, match="shape"):
            Box(lo=lo, hi=hi)


class TestDistanceToIdentity:
    def test_identity(self):
        box = unit_box(1)
        assert distance_to_identity(lambda x: x, box, 4) == 0.0

    def test_twist_ball(self):
        # on |I| <= rho the angle displacement dominates and equals rho
        rho = 0.37
        m = catalog("twist", 0.0)
        box = Box(lo=[-rho, 0.0], hi=[rho, 1.0])
        assert distance_to_identity(m, box, 5) == pytest.approx(rho, abs=1e-14)

    def test_block_bound_via_c4(self):
        from mapflow import c4_estimate

        eps, gamma = 1e-4, 2.0
        model = catalog("standard", eps)
        site = ResonanceSite(n=1, omega_star=[0.0], I_star=[0.0],
                             rho_n=gamma * eps**0.25)
        blk = scaled_block(model, site, scaling="lochak")
        box = Box(lo=[-1.0, 0.0], hi=[1.0, 1.0])
        eh = distance_to_identity(blk, box, 6)
        assert eh <= c4_estimate(model, eps, gamma) * site.n * site.rho_n


class TestOptimalOrder:
    def test_arithmetic(self):
        res = optimal_order(0.5, 0.5 / (6 * math.e * 3), 1)
        assert res.m == 2 and not res.clamped

    def test_clamp_low(self):
        res = optimal_order(0.5, 10.0, 1)
        assert res.m == 1 and res.clamped

    def test_d2_value(self):
        res = optimal_order(0.5, 1e-3, 2)
        assert res.m == 28 and not res.clamped


class TestEmbedding:
    def test_twist_flow_matches_exactly(self):
        m = catalog("twist", 0.0)
        box = Box(lo=[-0.3, 0.0], hi=[0.3, 1.0])
        rep = embedding_error(m, 3, box, 3, tol=1e-12)
        assert rep.max_error <= 10 * 1e-12

    def test_block_bound_and_decrease(self):
        blk = std_block(1e-4)
        box = unit_box(1)
        errs = []
        for m in (1, 2, 3):
            rep = embedding_error(blk, m, box, 3, tol=1e-12)
            if rep.precondition_ok:
                assert rep.bound_satisfied
            errs.append(rep.max_error)
        assert errs[1] < errs[0] and errs[2] < errs[1]

    def test_partial_failures_reported_per_point(self):
        from mapflow.errors import DomainEscape

        def guarded(x):
            if abs(x[0]) > 0.35:
                raise DomainEscape("outside the toy domain")
            return x + np.array([1e-3, 0.01 * (x[0] + 0.1)])

        box = Box(lo=[-0.5, 0.0], hi=[0.5, 1.0])
        rep = embedding_error(guarded, 1, box, 3, tol=1e-10)
        assert len(rep.failures) > 0            # corner points fail
        assert np.isfinite(rep.max_error)       # interior points still measured
        assert any(np.isnan(rep.errors))

    def test_path_exit_from_reconstruction(self):
        from mapflow.errors import DomainEscape, PathExit

        def guarded(x):
            if np.any(np.abs(x[..., 0]) > 0.2):
                raise DomainEscape("outside")
            return np.stack([np.zeros_like(x[..., 0]), x[..., 0]], axis=-1)

        X = guarded
        H = reconstruct_hamiltonian(X, np.zeros(2), quad_tol=1e-11)
        with pytest.raises(PathExit):
            H.evaluate(np.array([0.5, 0.1]))

    def test_exponential_bound_at_optimal_order(self):
        # at m = floor(delta/(6 e eps_hat) - d) the error obeys
        # 3 e^{d+1} eps_hat exp(-delta/(6 e eps_hat))
        blk = std_block(1e-4)
        box = unit_box(1)
        eh = distance_to_identity(blk, box, 4)
        mo = optimal_order(0.5, eh, 1)
        assert not mo.clamped
        rep = embedding_error(blk, mo.m, box, 4, tol=1e-12)
        exp_bound = 3 * math.e**2 * eh * math.exp(-0.5 / (6 * math.e * eh))
        assert rep.max_error <= exp_bound

    def test_field_distance_to_leading_hamiltonian(self):
        # |Xhat_m - J grad S| at the optimal order against c eps^2/delta with
        # c = 17 (d+3)^2; the reconstructed induced field stands in for the
        # Hamiltonian projection (measured ratio is far below 1)
        eps0, mu, delta = 0.5, 0.01, 0.5
        fam = near_identity_family(catalog("standard", eps0))
        fmu = fam(mu)
        box = Box(lo=[-0.5, 0.0], hi=[0.5, 1.0])
        eh = distance_to_identity(fmu, box, 4)
        m_opt = optimal_order(delta, eh, 1).m
        X = interpolating_field(fmu, m_opt)
        H = reconstruct_hamiltonian(X, np.zeros(2), quad_tol=1e-12)
        Xhat = H.induced_field()

        def JgradS(x):
            return np.array([-mu * eps0 * np.sin(TWO_PI * x[1]) / TWO_PI, mu * x[0]])

        worst = max(float(np.max(np.abs(Xhat(x) - JgradS(x)))) for x in box.grid(4))
        bound = 17.0 * (1 + 3) ** 2 * eh**2 / delta
        assert worst <= bound
        assert worst / bound < 0.05  # the paper-style constant is very loose here


class TestSymmetryDefect:
    def test_hamiltonian_field(self):
        # X = J grad H for H = (p^2 + q^2)/2 is (-q, p)
        X = lambda y: np.stack([-y[..., 1], y[..., 0]], axis=-1)
        assert symmetry_defect(X, np.array([0.3, 0.7])) <= 1e-9

    def test_non_hamiltonian_defect_two(self):
        X = lambda y: y.copy()
        assert symmetry_defect(X, np.array([0.3, 0.7])) == pytest.approx(2.0, abs=1e-8)

    def test_decreasing_in_order(self):
        blk = std_block(1e-4)
        x = np.array([0.37, 0.21])
        defects = [symmetry_defect(interpolating_field(blk, m), x) for m in (1, 2, 3)]
        assert defects[1] < defects[0] and defects[2] < defects[1]


class TestReconstruction:
    def test_quadratic_hamiltonian(self):
        # X = J grad H for H = p^2 / 2: X = (0, p)
        X = lambda y: np.stack([np.zeros_like(y[..., 0]), y[..., 0]], axis=-1)
        H = reconstruct_hamiltonian(X, np.array([0.0, 0.0]), quad_tol=1e-11)
        for p, q in ((0.5, 0.3), (-0.4, 0.9)):
            assert H.evaluate(np.array([p, q])) == pytest.approx(p * p / 2, abs=1e-11)
        assert np.max(np.abs(H.correction)) <= 1e-11

    def test_twist_field_action_only(self):
        m = catalog("twist", 0.0)
        X = interpolating_field(m, 3)
        H = reconstruct_hamiltonian(X, np.array([0.1, 0.0]), quad_tol=1e-11)
        vals = [H.evaluate(np.array([0.4, q])) for q in (0.0, 0.3, 0.7)]
        assert np.max(np.abs(np.diff(vals))) <= 10 * 1e-11
        assert vals[0] == pytest.approx(0.4**2 / 2 - 0.1**2 / 2, abs=1e-10)

    def test_path_independence_when_closed(self):
        blk = std_block(1e-4)
        X = interpolating_field(blk, 4)  # high order: defect near floor
        base = np.array([0.0, 0.0])
        H = reconstruct_hamiltonian(X, base, quad_tol=1e-11)
        # staircase angle-first instead of action-first
        from mapflow.hamiltonian import _staircase_integral

        x = np.array([0.31, 0.62])
        a = H.raw(x)
        mid = np.array([0.0, 0.62])
        b = (_staircase_integral(X, base, mid, 1, 1e-11)
             + _staircase_integral(X, mid, x, 1, 1e-11))
        assert abs(a - b) <= 10 * 1e-11 + 10 * symmetry_defect(X, x)

    def test_periodicity_after_correction(self):
        blk = std_block(1e-4)
        X = interpolating_field(blk, 2)
        H = reconstruct_hamiltonian(X, np.zeros(2), quad_tol=1e-12)
        for x in (np.array([0.2, 0.15]), np.array([-0.4, 0.55])):
            a = H.evaluate(x)
            b = H.evaluate(x + np.array([0.0, 1.0]))
            assert abs(a - b) <= 1e-9

    def test_energy_conservation_loop_closure(self):
        # pendulum field: reconstruction then flow of the induced field
        def pend(y):
            return np.stack([-np.sin(TWO_PI * y[..., 1]) / TWO_PI, y[..., 0]], axis=-1)

        X = pend
        H = reconstruct_hamiltonian(X, np.zeros(2), quad_tol=1e-12)
        Xhat = H.induced_field()
        x0 = np.array([0.2, 0.1])
        x1 = flow_map(Xhat, x0, 1.7, tol=1e-12)
        assert abs(H.evaluate(x1) - H.evaluate(x0)) <= 10 * (1e-12 + 1e-12) * 100

    def test_h2_closed_form_examples(self):
        # S independent of q: H2 = S
        S = lambda x: x[0] ** 2
        grad = lambda x: np.array([2 * x[0], 0.0])
        assert h2_closed_form(S, grad, np.array([0.7, 0.3])) == pytest.approx(0.49)
        # S = p q: H2 = pq - q p / 2 = pq/2
        S2 = lambda x: x[0] * x[1]
        grad2 = lambda x: np.array([x[1], x[0]])
        assert h2_closed_form(S2, grad2, np.array([0.6, 0.5])) == pytest.approx(0.15)

    def test_h2_matches_reconstruction_at_order2(self):
        # one point of the criterion-7 sweep
        eps0 = 0.5
        fam = near_identity_family(catalog("standard", eps0))
        mu = 0.01
        fmu = fam(mu)
        X2 = interpolating_field(fmu, 2)
        base = np.array([0.05, 0.0])
        H = reconstruct_hamiltonian(X2, base, quad_tol=1e-12)

        def S(x):
            return mu * (x[0] ** 2 / 2 - eps0 * np.cos(TWO_PI * x[1]) / TWO_PI**2)

        def grad(x):
            return np.array([mu * x[0], mu * eps0 * np.sin(TWO_PI * x[1]) / TWO_PI])

        q = np.array([0.3, 0.2])
        want = (h2_closed_form(S, grad, q) - h2_closed_form(S, grad, base))
        got = H.evaluate(q)
        assert abs(got - want) <= 50 * mu**3


def poly_F(x):
    # a polynomial mixing every action and angle coordinate, d = len(x) // 2
    d = x.shape[0] // 2
    I, phi = x[:d], x[d:]
    return float(I.sum() ** 3 - 2.0 * I.sum() * phi.prod() + (phi**2).sum() * I[0]
                 + phi[-1] * I[-1] ** 2)


def poly_F_grad(x):
    d = x.shape[0] // 2
    I, phi = x[:d], x[d:]
    gI = np.full(d, 3.0 * I.sum() ** 2 - 2.0 * phi.prod())
    gI[0] += (phi**2).sum()
    gI[-1] += 2.0 * phi[-1] * I[-1]
    gphi = np.array([-2.0 * I.sum() * np.prod(np.delete(phi, l)) for l in range(d)])
    gphi += 2.0 * phi * I[0]
    gphi[-1] += I[-1] ** 2
    return np.concatenate([gI, gphi])


class TestStaircase:
    @pytest.mark.parametrize("d", [1, 2])
    def test_gradient_form_gives_difference(self, d):
        from mapflow.hamiltonian import _staircase

        rng = np.random.default_rng(d)
        quad_tol = 1e-11
        for _ in range(3):
            start, stop = rng.uniform(-1.0, 1.0, (2, 2 * d))
            got = _staircase(lambda x: np.apply_along_axis(poly_F_grad, -1, x),
                             start, stop, quad_tol)
            want = poly_F(stop) - poly_F(start)
            assert abs(got - want) <= 2 * d * quad_tol


class TestGeneratingRecovery:
    def test_integrable_gives_h0(self):
        m = catalog("twist", 0.0)
        base = np.zeros(2)
        val = recover_generating(m, base, np.array([0.6, 0.4]), quad_tol=1e-12)
        assert val == pytest.approx(0.18, abs=1e-11)

    def test_standard_map_catalog_match(self):
        eps = 0.2
        m = catalog("standard", eps)
        base = np.zeros(2)
        for pbar, q in ((0.5, 0.3), (-0.3, 0.8), (0.2, 0.05)):
            got = recover_generating(m, base, np.array([pbar, q]), quad_tol=1e-12)
            want = (pbar**2 / 2 + eps * (-np.cos(TWO_PI * q) / TWO_PI**2)
                    - (0.0 + eps * (-1.0 / TWO_PI**2)))
            assert got == pytest.approx(want, abs=1e-8)

    def test_periodicity(self):
        m = catalog("standard", 0.15)
        base = np.zeros(2)
        a = recover_generating(m, base, np.array([0.3, 0.2]), quad_tol=1e-12)
        b = recover_generating(m, base, np.array([0.3, 1.2]), quad_tol=1e-12)
        assert abs(a - b) <= 10 * 1e-11


def lochak_n3_block():
    site = ResonanceSite(n=3, omega_star=[1.0 / 3.0], I_star=[1.0 / 3.0], rho_n=0.05)
    return scaled_block(catalog("standard", 1e-3), site, scaling="lochak")


FOUR_POINTS = np.array([[0.3, 0.2], [-0.5, 0.7], [0.9, 0.45], [0.0, 0.0]])


class TestCrossFormFields:
    @pytest.mark.parametrize("map_like, x", [(nonexact_shear(0.1), FOUR_POINTS),
                                             (std_block(1e-3), FOUR_POINTS),
                                             (lochak_n3_block(), unit_box(1).grid(6))],
                             ids=["nonexact_shear", "nucleus_block", "lochak_n3_block"])
    def test_solved_fields_reproduce_the_map(self, map_like, x):
        uv = cross_form_fields(map_like)
        u, v = uv(x)
        # F(pbar + u, q) = (pbar, q + v), to the Picard tolerance
        y = map_like.apply(np.concatenate([x[:, :1] + u, x[:, 1:]], axis=-1))
        want = np.concatenate([x[:, :1], x[:, 1:] + v], axis=-1)
        np.testing.assert_allclose(y, want, rtol=0, atol=10 * PICARD_TOL)
        for i in range(x.shape[0]):  # a batch row solves as its point alone, bit for bit
            ui, vi = uv(x[i])
            assert np.array_equal(ui, u[i]) and np.array_equal(vi, v[i])


    def test_solved_fields_reuse_the_last_picard_image(self, monkeypatch):
        # the Picard solve's last map call is at the action it returns, so
        # qbar is read off that image: w_n of a nucleus block costs 2 block
        # applies where a further apply for qbar cost 3, and is bit-identical
        blk = std_block(1e-3)
        calls = []
        apply = BlockMap.apply
        monkeypatch.setattr(BlockMap, "apply", lambda self, x: calls.append(x) or apply(self, x))
        got = SnDecomposition(block=blk).w_report(grid_n=4).values
        assert len(calls) == 2
        monkeypatch.setattr(experiments, "cross_form_fields", _reapplied_cross_form)
        want = SnDecomposition(block=blk).w_report(grid_n=4).values
        assert len(calls) == 2 + 3
        assert np.array_equal(got, want)


def _reapplied_cross_form(map_like):
    """The solved cross-form fields with qbar from one more apply after the solve."""
    def solved(x):
        d = x.shape[-1] // 2
        pbar, q = x[..., :d], x[..., d:]
        p = _picard(lambda y: y - map_like.apply(np.concatenate([y, q], axis=-1))[..., :d],
                    pbar)
        return p - pbar, map_like.apply(np.concatenate([p, q], axis=-1))[..., d:] - q

    return solved


class TestLoopAction:
    def test_identity_map(self):
        loop = circle_loop(np.array([0.3]))
        A0, A1 = loop_action(lambda x: x.copy(), loop, quad_tol=1e-12)
        assert A0 == pytest.approx(0.3, abs=1e-12)
        assert A1 == pytest.approx(A0, abs=1e-11)

    def test_standard_map_exact(self):
        m = catalog("standard", 0.2)
        loop = circle_loop(np.array([0.3]))
        A0, A1 = loop_action(m, loop, quad_tol=1e-11)
        assert abs(A1 - A0) <= 10 * 1e-11

    def test_standard_map_exact_at_eps_one(self):
        # the analytic Jacobian takes I' from the step, with no contraction probe
        loop = circle_loop(np.array([0.3]))
        A0, A1 = loop_action(catalog("standard", 1.0), loop, quad_tol=1e-11)
        assert abs(A1 - A0) <= 10 * 1e-11

    def test_froeschle_exact_both_classes(self):
        m = catalog("froeschle2", 0.1, eta=0.3)
        for w in (np.array([1.0, 0.0]), np.array([0.0, 1.0])):
            loop = circle_loop(np.array([0.2, -0.1]), winding=w)
            A0, A1 = loop_action(m, loop, quad_tol=1e-11)
            assert abs(A1 - A0) <= 10 * 1e-11

    def test_nonexact_defect_equals_eps(self):
        eps = 0.05
        m = nonexact_shear(eps)
        loop = circle_loop(np.array([0.3]))
        A0, A1 = loop_action(m, loop, quad_tol=1e-12)
        assert A1 - A0 == pytest.approx(eps, abs=1e-10)


def _one_point_flows(X, pts, t, tol):
    """flow_map point by point: the image, or None where it fails."""
    out = []
    for x in pts:
        try:
            out.append(flow_map(X, x, t, tol))
        except StepFailure:
            out.append(None)
    return out


class TestBatchedFlow:
    def test_grid_flow_bitwise_equals_point_flows(self):
        X = interpolating_field(std_block(1e-4), 3)
        pts = unit_box(1).grid(3)
        got = flow_map(X, pts, 1.0, tol=1e-12)
        assert got.shape == pts.shape
        assert np.array_equal(got, np.array(_one_point_flows(X, pts, 1.0, 1e-12)))

    def test_failing_points_fail_alone(self):
        # the action drifts upwards; the field leaves its domain at I > 0.6,
        # which the points starting at I = 0.3 and 0.5 reach within t = 1
        def drift(y):
            if np.any(y[..., 0] > 0.6):
                raise DomainEscape("outside the toy domain")
            return np.stack([0.5 + 0.3 * np.sin(TWO_PI * y[..., 1]), y[..., 0]], axis=-1)

        X = drift
        pts = np.array([[-0.3, 0.1], [0.3, 0.2], [0.0, 0.7], [0.5, 0.4], [-0.6, 0.9]])
        want = _one_point_flows(X, pts, 1.0, 1e-11)
        with pytest.raises(StepFailure) as exc:
            flow_map(X, pts, 1.0, tol=1e-11)
        failed = [i for i, y in enumerate(want) if y is None]
        assert failed == [1, 3]
        assert [i for i, _ in exc.value.failures] == failed
        assert np.all(np.isnan(exc.value.y[failed]))
        for i, y in enumerate(want):
            if y is not None:
                assert np.array_equal(exc.value.y[i], y)

    def test_non_finite_stage_fails_the_point(self):
        X = lambda y: np.stack([np.where(y[..., 0] > 0.0, np.nan, 1.0), y[..., 0]], axis=-1)
        with pytest.raises(StepFailure, match="non-finite") as exc:
            flow_map(X, np.array([[-2.0, 0.0], [-0.5, 0.0]]), 1.0)
        assert [i for i, _ in exc.value.failures] == [1]
        assert np.allclose(exc.value.y[0], [-1.0, -1.5], atol=1e-12)

    @pytest.mark.parametrize("d", [1, 2])
    def test_twist_and_linear_shear_closed_form(self, d, rng):
        x = np.concatenate([rng.uniform(-1, 1, (6, d)), rng.uniform(0, 1, (6, d))], axis=-1)
        a = np.linspace(-0.5, 0.5, d)
        twist = lambda y: np.concatenate([np.zeros_like(y[..., :d]), y[..., :d]], axis=-1)
        shear = lambda y: np.concatenate([np.broadcast_to(a, y[..., :d].shape), y[..., :d]],
                                         axis=-1)
        t = 1.3
        I, phi = x[:, :d], x[:, d:]
        got = flow_map(twist, x, t, tol=1e-12)
        assert np.max(np.abs(got - np.concatenate([I, phi + t * I], axis=-1))) <= 1e-14
        got = flow_map(shear, x, t, tol=1e-12)
        want = np.concatenate([I + t * a, phi + t * I + 0.5 * t * t * a], axis=-1)
        assert np.max(np.abs(got - want)) <= 1e-14

    def test_rotation_closed_form(self):
        X = lambda y: np.stack([-y[..., 1], y[..., 0]], axis=-1)
        ang = np.linspace(0.0, 2.0 * math.pi, 7, endpoint=False)
        r = np.linspace(0.5, 2.0, 7)
        x = np.column_stack([r * np.cos(ang), r * np.sin(ang)])
        t = 2.1
        want = np.column_stack([r * np.cos(ang + t), r * np.sin(ang + t)])
        assert np.max(np.abs(flow_map(X, x, t, tol=1e-12) - want)) <= 1e-10

    @pytest.mark.parametrize("name", sorted(DOP853_FLOWS))
    def test_matches_frozen_dop853(self, name):
        X, x, want = DOP853_FLOWS[name]
        x, want = np.array(x), np.array(want)
        tol = 1e-12
        # the frozen values use the controller of tol / 100, so the steps agree
        assert np.max(np.abs(flow_map(X, x, 1.0, tol=tol / 100) - want)) <= tol / 100
        assert np.max(np.abs(flow_map(X, x, 1.0, tol=tol) - want)) <= 10 * tol


class TestGaussKronrod:
    def test_bisects_only_where_needed(self):
        # a narrow peak at t = 0.3: int_0^1 dt / (a + (t - 0.3)^2)
        a = 1e-4
        nodes = []

        def peak(k, t):
            nodes.append(t.size)
            return 1.0 / (a + (t - 0.3) ** 2)

        want = (math.atan(0.7 / math.sqrt(a)) + math.atan(0.3 / math.sqrt(a))) / math.sqrt(a)
        got = _gauss_kronrod(peak, 1, 1e-11)[0]
        assert abs(got - want) <= 10 * 1e-11 * abs(want) + 1e-9
        assert len(nodes) > 2 and nodes[0] == 21
        assert sum(nodes) < 21 * 2 * MAX_PANELS

    def test_integrals_are_independent(self):
        # a smooth integrand next to the peak is accepted in the first round
        def two(k, t):
            return np.where(k == 0, np.cos(t), 1.0 / (1e-4 + (t - 0.3) ** 2))

        both = _gauss_kronrod(two, 2, 1e-11)
        assert both[0] == _gauss_kronrod(lambda k, t: np.cos(t), 1, 1e-11)[0]
        assert abs(both[0] - math.sin(1.0)) <= 1e-15

    def test_panel_limit(self):
        # 150 jumps: each needs panels of its own, down to the width of a double
        with pytest.raises(QuadratureFailure, match="panels"):
            _gauss_kronrod(lambda k, t: np.sign(np.sin(2 * math.pi * 150.3 * t)), 1, 1e-11)

    def test_non_finite_integrand(self):
        with pytest.raises(QuadratureFailure, match="not finite"):
            _gauss_kronrod(lambda k, t: np.where(t > 0.5, np.inf, 0.0), 1, 1e-11)

    def test_batched_evaluate_bitwise_equals_points(self):
        X = interpolating_field(std_block(1e-4), 2)
        H = reconstruct_hamiltonian(X, np.zeros(2), quad_tol=1e-12)
        pts = np.array([[0.2, 0.15], [-0.4, 0.55], [0.0, 0.3], [0.1, 0.0], [0.0, 0.0]])
        got = H.evaluate(pts)
        assert got.shape == (5,)
        assert np.array_equal(got, [H.evaluate(p) for p in pts])
