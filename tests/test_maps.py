"""Map kernel: stepping, lifts, implicit solver, catalog invariants."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mapflow import (
    PhasePoint,
    catalog,
    implicit_solve,
    iterate,
    jacobian,
    shifted_lift,
    stability_scan,
    step,
    symplectic_matrix,
)
from mapflow import maps
from mapflow.errors import (
    ContractionViolated,
    DomainEscape,
    NoConvergence,
    NotResonant,
)
from mapflow.maps import orbit_arrays, propagate, step_arrays

from oracles import FIXED_POINT_SIN, STD_STEP_I, bisect


class TestStep:
    def test_integrable_reduces_to_twist(self, rng):
        m = catalog("standard", 0.0)
        for _ in range(10):
            I = rng.uniform(-1, 1, 1)
            phi = rng.uniform(0, 1, 1)
            y = step(m, PhasePoint(I, phi))
            assert np.allclose(y.I, I)
            assert np.allclose(y.phi, phi + I)

    def test_standard_step_zero_phase(self, standard_map):
        y = step(standard_map, PhasePoint([0.3], [0.0]))
        assert y.I[0] == pytest.approx(0.3, abs=1e-15)
        assert y.phi[0] == pytest.approx(0.3, abs=1e-15)

    def test_standard_step_quarter_phase(self, standard_map):
        # sin(2 pi / 4) = 1 makes the implicit step closed form
        y = step(standard_map, PhasePoint([0.3], [0.25]))
        assert y.I[0] == pytest.approx(STD_STEP_I, abs=1e-14)
        assert y.phi[0] == pytest.approx(0.25 + STD_STEP_I, abs=1e-14)

    def test_domain_escape(self, standard_map):
        with pytest.raises(DomainEscape):
            step(standard_map, PhasePoint([1.7], [0.0]))

    def test_periodicity_of_coefficients(self, standard_map, froeschle_map):
        for m in (standard_map, froeschle_map):
            phi = np.full(m.d, 0.37)
            I = np.full(m.d, 0.2)
            a = step(m, PhasePoint(I, phi))
            b = step(m, PhasePoint(I, phi + 1.0))
            assert np.allclose(a.I, b.I, atol=1e-14)
            assert np.allclose(a.phi + 1.0, b.phi, atol=1e-14)


class TestIterate:
    def test_zero_steps(self, standard_map):
        x0 = PhasePoint([0.1], [0.2])
        orb = iterate(standard_map, x0, 0)
        assert len(orb) == 1 and orb[0] is x0

    def test_twist_angles(self):
        m = catalog("twist", 0.0)
        orb = iterate(m, PhasePoint([0.5], [0.0]), 3)
        assert [float(p.phi[0]) for p in orb] == pytest.approx([0.0, 0.5, 1.0, 1.5])

    def test_action_bound_along_orbit(self):
        m = catalog("standard", 0.05)
        orb = iterate(m, PhasePoint([0.3], [0.11]), 10)
        bound = m.domain.norm_a * 10 * 0.05
        dev = max(abs(float(p.I[0]) - 0.3) for p in orb)
        assert dev <= bound

    def test_escape_reports_index(self):
        from mapflow import nonexact_shear

        m = nonexact_shear(0.3)  # action grows by eps every step
        with pytest.raises(DomainEscape) as exc:
            iterate(m, PhasePoint([1.3], [0.23]), 2000)
        assert exc.value.index == 2  # I hits 1.6 > R + sigma on the second step

    def test_lift_consistency(self):
        # reducing after iterating equals reducing every step
        m = catalog("standard", 0.1)
        I, phi = np.array([0.23]), np.array([0.71])
        Ir, phir = I.copy(), phi.copy()
        Is, ps = orbit_arrays(m, I, phi, 1000)
        for _ in range(1000):
            Ir, phir = step_arrays(m, Ir, phir)
            phir -= np.floor(phir)
        gap = (ps[-1] - phir) - np.round(ps[-1] - phir)
        assert np.max(np.abs(gap)) <= 1e-10
        assert np.allclose(Is[-1], Ir, atol=1e-12)


class TestKernel:
    @pytest.mark.parametrize("name,eps,params", [
        ("twist", 0.01, {"d": 2}), ("standard", 0.1, {}), ("froeschle2", 0.05, {"eta": 0.3})])
    def test_iterate_orbit_arrays_scan_bitwise(self, name, eps, params, rng, monkeypatch):
        m = catalog(name, eps, **params)
        I0 = rng.uniform(-0.5, 0.5, (4, m.d))
        phi0 = rng.uniform(0, 1, (4, m.d))
        Is, ps = orbit_arrays(m, I0, phi0, 200)
        for i in range(4):
            orb = iterate(m, PhasePoint(I0[i], phi0[i]), 200)
            assert np.array_equal(np.array([p.I for p in orb]), Is[:, i])
            assert np.array_equal(np.array([p.phi for p in orb]), ps[:, i])
        monkeypatch.setattr(maps, "WINDOW", 7)  # the scan restarts 28 times
        recs = stability_scan(m, I0, phi0, 200)
        assert [r.excursion for r in recs] == list(np.max(np.abs(Is[1:] - Is[0]), axis=(0, 2)))
        assert ([r.max_step_drift for r in recs]
                == list(np.max(np.abs(np.diff(Is, axis=0)), axis=(0, 2))))

    def test_contains_extended_rejects_nan(self, standard_map):
        dom = standard_map.domain
        assert not dom.contains_extended(np.array([np.nan]))
        assert list(dom.contains_extended(np.array([[0.1], [np.nan], [1.5], [1.6]]))) == [
            True, False, True, False]
        with pytest.raises(DomainEscape):
            step_arrays(standard_map, np.array([np.nan]), np.array([0.2]))

    def test_propagate_reports_first_state_outside(self):
        from mapflow import nonexact_shear

        m = nonexact_shear(0.01)  # I_k = I_0 + 0.01 k leaves |I| <= 1.5 at k = 5
        Is, ps, first = propagate(m, np.array([[1.455], [0.0]]), np.array([[0.2], [0.3]]), 10)
        assert Is.shape == ps.shape == (11, 2, 1)
        assert list(first) == [5, -1]
        # the last state is not a step source, so it is never reported
        assert list(propagate(m, np.array([[1.455]]), np.array([[0.2]]), 5)[2]) == [-1]
        with pytest.raises(DomainEscape) as exc:
            orbit_arrays(m, np.array([1.455]), np.array([0.2]), 10)
        assert exc.value.index == 6

    def test_escape_reported_before_later_solver_failure(self):
        # Picard solve fails (NaN) once |I| >= 2, 50 steps after the escape
        def s_phi(I, phi):
            return np.where(np.abs(I) < 2.0, -1.0, np.nan)

        m = replace(catalog("standard", 0.01), s_phi=s_phi, s_action_independent=False)
        with pytest.raises(DomainEscape) as exc:
            orbit_arrays(m, np.array([1.455]), np.array([0.2]), 100)
        assert exc.value.index == 6
        with pytest.raises(NoConvergence):
            orbit_arrays(replace(m, s_phi=lambda I, p: np.full_like(I, np.nan)),
                         np.array([0.1]), np.array([0.2]), 5)


class TestShiftedLift:
    def test_fixed_point_on_resonant_torus(self):
        m = catalog("twist", 0.0)
        x = PhasePoint([0.5], [0.3])
        y = shifted_lift(m, x, 2, np.array([0.5]))
        assert np.allclose(y.I, x.I) and np.allclose(y.phi, x.phi)

    def test_n1_zero_frequency_is_plain_step(self, standard_map):
        x = PhasePoint([0.2], [0.4])
        y = shifted_lift(standard_map, x, 1, np.array([0.0]))
        z = step(standard_map, x)
        assert np.allclose(y.as_flat(), z.as_flat())

    def test_rejects_nonresonant(self, standard_map):
        with pytest.raises(NotResonant):
            shifted_lift(standard_map, PhasePoint([0.2], [0.0]), 3, np.array([0.4]))

    def test_near_identity_at_resonance(self):
        from mapflow import c4_estimate

        eps, gamma = 1e-4, 2.0
        m = catalog("standard", eps)
        x = PhasePoint([0.5 + 1e-3], [0.37])
        y = shifted_lift(m, x, 2, np.array([0.5]))
        rho_2 = gamma * eps**0.25 / 2
        bound = c4_estimate(m, eps, gamma) * 2 * rho_2
        disp = np.max(np.abs(y.as_flat() - x.as_flat()))
        assert disp <= bound


class TestImplicitSolve:
    def test_zero_rhs(self):
        y = implicit_solve(lambda y: np.zeros_like(y), np.array([1.0, 2.0]), R=1.0)
        assert np.array_equal(y, np.array([1.0, 2.0]))

    def test_constant_rhs(self):
        y = implicit_solve(lambda y: np.array([0.125]), np.array([1.0]), R=1.0)
        assert y[0] == pytest.approx(1.125, abs=1e-15)

    def test_sin_fixed_point_matches_bisection(self):
        y = implicit_solve(lambda y: 0.1 * np.sin(y), np.array([1.0]), R=1.0)
        assert y[0] == pytest.approx(FIXED_POINT_SIN, abs=1e-12)
        # re-derive the frozen oracle value
        root = bisect(lambda t: t - 1.0 - 0.1 * np.sin(t), 1.0, 1.2)
        assert root == pytest.approx(FIXED_POINT_SIN, abs=1e-12)

    def test_contraction_violation(self):
        with pytest.raises(ContractionViolated):
            implicit_solve(lambda y: 10.0 * np.ones_like(y), np.array([0.0]), R=1.0)

    def test_budget_exhaustion(self):
        # contraction factor close to 1 but probes pass: tiny budget fails
        with pytest.raises(NoConvergence):
            implicit_solve(lambda y: 0.2 * np.sin(7 * y), np.array([0.3]), R=2.0,
                           tol=1e-15, max_iter=2)

    @given(c=st.floats(-0.2, 0.2), y0=st.floats(-1.0, 1.0))
    @settings(max_examples=50, deadline=None)
    def test_residual_postcondition(self, c, y0):
        g = lambda y: c * np.cos(3.0 * y)
        y = implicit_solve(g, np.array([y0]), R=2.0, tol=1e-14)
        assert abs(y[0] - y0 - g(y)[0]) <= 1e-13

    def test_monotone_residuals(self):
        # residuals shrink geometrically once contraction holds
        g = lambda y: 0.1 * np.sin(y)
        y = np.array([1.0])
        res = []
        for _ in range(8):
            y_next = np.array([1.0]) + g(y)
            res.append(abs(y_next[0] - y[0]))
            y = y_next
        assert all(res[i + 1] <= res[i] for i in range(1, len(res) - 1))


class TestSymplecticity:
    def test_generating_form_jacobian_fd(self, rng):
        for name, eps, d in (("standard", 0.2, 1), ("froeschle2", 0.1, 2)):
            m = catalog(name, eps) if name == "standard" else catalog(name, eps, eta=0.3)
            J = symplectic_matrix(d)
            h = 1e-6
            for _ in range(100):
                x = np.concatenate([rng.uniform(-0.8, 0.8, d), rng.uniform(0, 1, d)])
                Df = np.empty((2 * d, 2 * d))
                for j in range(2 * d):
                    e = np.zeros(2 * d)
                    e[j] = h
                    Df[:, j] = (m.apply_flat(x + e) - m.apply_flat(x - e)) / (2 * h)
                assert np.max(np.abs(Df.T @ J @ Df - J)) <= 1e-6

    def test_analytic_jacobian_matches_fd(self, rng):
        m = catalog("froeschle2", 0.15, eta=0.4)
        for _ in range(10):
            x = np.concatenate([rng.uniform(-0.5, 0.5, 2), rng.uniform(0, 1, 2)])
            Ja = jacobian(m, PhasePoint.from_flat(x))
            h = 1e-6
            Jfd = np.empty((4, 4))
            for j in range(4):
                e = np.zeros(4)
                e[j] = h
                Jfd[:, j] = (m.apply_flat(x + e) - m.apply_flat(x - e)) / (2 * h)
            assert np.max(np.abs(Ja - Jfd)) <= 1e-8

    def test_inverse_roundtrip(self, rng):
        m = catalog("froeschle2", 0.1, eta=0.3)
        for _ in range(20):
            I = rng.uniform(-0.8, 0.8, 2)
            phi = rng.uniform(0, 3, 2)
            In, pn = m.apply_flat(np.concatenate([I, phi])), None
            back = m.inverse_flat(In)
            assert np.allclose(back, np.concatenate([I, phi]), atol=1e-12)


class TestCatalog:
    def test_convexity_lower_bound_sampled(self, rng):
        for name, kw in (("standard", {}), ("froeschle2", {"eta": 0.3}), ("twist", {})):
            m = catalog(name, 0.1, **kw)
            for _ in range(50):
                I = rng.uniform(-1, 1, m.d)
                eigs = np.linalg.eigvalsh(m.hess(I).reshape(m.d, m.d))
                assert eigs.min() >= m.domain.nu - 1e-12

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            catalog("unknown", 0.1)

    def test_unknown_param(self):
        with pytest.raises(ValueError):
            catalog("standard", 0.1, bogus=1.0)

    def test_nu_le_nu2(self):
        for name, kw in (("standard", {}), ("froeschle2", {"eta": 0.3})):
            m = catalog(name, 0.1, **kw)
            assert m.domain.nu <= m.domain.nu2

    def test_norm_a_is_sharp_for_standard(self, rng):
        m = catalog("standard", 1.0)
        phi = rng.uniform(0, 1, (1000, 1))
        I = np.zeros((1000, 1))
        vals = np.abs(m.s_phi(I, phi))
        assert np.max(vals) <= m.domain.norm_a + 1e-12
        assert np.max(vals) >= 0.99 * m.domain.norm_a
