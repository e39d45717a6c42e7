"""Map kernel: stepping, lifts, implicit solver, catalog invariants."""

import copy
import pickle
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mapflow import (
    catalog,
    implicit_solve,
    jacobian,
    near_identity_family,
    nonexact_shear,
    stability_scan,
    symplectic_matrix,
)
from mapflow import maps
from mapflow.errors import ContractionViolated, DomainEscape, FormMismatch, NoConvergence
from mapflow.maps import (
    DomainSpec,
    MapModel,
    TrigTerm,
    _fused_term,
    _step,
    _trig_model,
    propagate,
)
from mapflow.resonance import BlockMap, ResonanceSite

from oracles import (
    FIXED_POINT_SIN,
    STD_STEP_I,
    bisect,
    catalog_norms,
    froeschle_closed_forms,
    kick_rows,
    standard_closed_forms,
)


def _stepped(model, I, phi, steps):
    """The orbit by `_step` called once per step."""
    Is, ps = [I], [phi]
    for _ in range(steps):
        I, phi = _step(model, I, phi)
        Is.append(I)
        ps.append(phi)
    return np.stack(Is), np.stack(ps)


#: a term beyond the catalog: weights other than 1, a negative mode entry,
#: three entries in one phase and three terms in one sum
GENERAL_TERM = ([[2, -1, 0], [0, 3, 1], [1, 1, 1], [0, 0, 1]], [0.5, -1.2, 0.7, 1.0])
#: no mode uses the middle angle, so that component of s_phi is 0
UNUSED_ANGLE_TERM = ([[1, 0, 0], [2, 0, -1]], [1.0, 0.5])


@st.composite
def trig_terms(draw):
    """(modes, coeffs) of a term in d = 1..3: unit and non-unit modes,
    negative entries, angles no mode uses, and coefficients 1 and others."""
    d = draw(st.integers(1, 3))
    mode = st.lists(st.sampled_from([0, 0, 1, 1, -1, 2, -3]), min_size=d, max_size=d)
    modes = draw(st.lists(mode.filter(any), min_size=1, max_size=4))
    coeff = st.sampled_from([1.0, 1.0, -1.0, 0.3]) | st.floats(-3.0, 3.0)
    return modes, draw(st.lists(coeff, min_size=len(modes), max_size=len(modes)))


class TestStep:
    def test_integrable_reduces_to_twist(self, rng):
        m = catalog("standard", 0.0)
        for _ in range(10):
            I = rng.uniform(-1, 1, 1)
            phi = rng.uniform(0, 1, 1)
            y = m.apply(np.concatenate([I, phi]))
            assert np.allclose(y[:1], I)
            assert np.allclose(y[1:], phi + I)

    def test_standard_step_zero_phase(self, standard_map):
        y = standard_map.apply(np.array([0.3, 0.0]))
        assert y[0] == pytest.approx(0.3, abs=1e-15)
        assert y[1] == pytest.approx(0.3, abs=1e-15)

    def test_standard_step_quarter_phase(self, standard_map):
        # sin(2 pi / 4) = 1 makes the implicit step closed form
        y = standard_map.apply(np.array([0.3, 0.25]))
        assert y[0] == pytest.approx(STD_STEP_I, abs=1e-14)
        assert y[1] == pytest.approx(0.25 + STD_STEP_I, abs=1e-14)

    def test_domain_escape(self, standard_map):
        with pytest.raises(DomainEscape):
            standard_map.apply(np.array([1.7, 0.0]))

    def test_periodicity_of_coefficients(self, standard_map, froeschle_map):
        for m in (standard_map, froeschle_map):
            phi = np.full(m.d, 0.37)
            I = np.full(m.d, 0.2)
            a = m.apply(np.concatenate([I, phi]))
            b = m.apply(np.concatenate([I, phi + 1.0]))
            assert np.allclose(a[:m.d], b[:m.d], atol=1e-14)
            assert np.allclose(a[m.d:] + 1.0, b[m.d:], atol=1e-14)


class TestIterate:
    def test_zero_steps(self, standard_map):
        x0 = np.array([0.1, 0.2])
        orb = standard_map.orbit(x0, 0)
        assert orb.shape == (1, 2) and np.array_equal(orb[0], x0)
        with pytest.raises(ValueError):
            standard_map.orbit(x0, -1)

    def test_twist_angles(self):
        m = catalog("twist", 0.0)
        orb = m.orbit(np.array([0.5, 0.0]), 3)
        assert list(orb[:, 1]) == pytest.approx([0.0, 0.5, 1.0, 1.5])

    def test_action_bound_along_orbit(self):
        m = catalog("standard", 0.05)
        orb = m.orbit(np.array([0.3, 0.11]), 10)
        bound = m.domain.norm_a * 10 * 0.05
        dev = float(np.max(np.abs(orb[:, 0] - 0.3)))
        assert dev <= bound

    def test_escape_reports_index(self):
        m = nonexact_shear(0.3)  # action grows by eps every step
        with pytest.raises(DomainEscape) as exc:
            m.orbit(np.array([1.3, 0.23]), 2000)
        assert exc.value.index == 2  # I hits 1.6 > R + sigma on the second step
        # the single-step path refuses the same second step
        x = m.apply(np.array([1.3, 0.23]))
        with pytest.raises(DomainEscape):
            m.apply(x)

    def test_lift_consistency(self):
        # reducing after iterating equals reducing every step
        m = catalog("standard", 0.1)
        I, phi = np.array([0.23]), np.array([0.71])
        Ir, phir = I.copy(), phi.copy()
        orb = m.orbit(np.concatenate([I, phi]), 1000)
        Is, ps = orb[..., :1], orb[..., 1:]
        for _ in range(1000):
            y = m.apply(np.concatenate([Ir, phir]))
            Ir, phir = y[:1], y[1:]
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
        orb4 = m.orbit(np.concatenate([I0, phi0], axis=-1), 200)
        Is, ps = orb4[..., : m.d], orb4[..., m.d:]
        for i in range(4):  # one seed alone steps as it does in the batch
            orb = m.orbit(np.concatenate([I0[i], phi0[i]]), 200)
            assert np.array_equal(orb, np.concatenate([Is[:, i], ps[:, i]], axis=-1))
        monkeypatch.setattr(maps, "WINDOW", 7)  # the scan restarts 28 times
        recs = stability_scan(m, np.hstack([I0, phi0]), 200)
        assert [r.excursion for r in recs] == list(np.max(np.abs(Is[1:] - Is[0]), axis=(0, 2)))
        assert ([r.max_step_drift for r in recs]
                == list(np.max(np.abs(np.diff(Is, axis=0)), axis=(0, 2))))

    @pytest.mark.parametrize("name, x0", [("standard", [[0.31, 0.42], [-0.2, 0.9]]),
                                          ("froeschle2", [[0.2, -0.3, 0.1, 0.7]])])
    def test_flat_orbit_bitwise_equals_repeated_apply(self, name, x0):
        m = catalog(name, 0.05)
        x0 = np.array(x0)
        for x in (x0, x0[0]):  # a batch of points and one (2d,) point
            orb = m.orbit(x, 9)
            assert orb.shape == (10,) + x.shape
            y = x
            for k in range(1, 10):
                y = m.apply(y)
                assert np.array_equal(orb[k], y)

    @pytest.mark.parametrize("model", [
        catalog("standard", 0.3), catalog("froeschle2", 0.3, eta=-0.7),
        _trig_model("general", 0.2, *GENERAL_TERM), _trig_model("unused", 0.2, *UNUSED_ANGLE_TERM)],
        ids=["standard", "froeschle2", "general", "unused_angle"])
    def test_fused_body_bitwise_equals_step(self, model, rng):
        assert _fused_term(model) is model.s_phi.__self__
        for shape in [(1,), (10,), (50,), (100,), (), (2, 3)]:
            I0 = rng.uniform(-0.5, 0.5, shape + (model.d,))
            phi0 = rng.uniform(-2.0, 2.0, shape + (model.d,))
            Is, ps, first = propagate(model, I0, phi0, 60)
            want_I, want_p = _stepped(model, I0, phi0, 60)
            assert Is.shape == want_I.shape and first.shape == shape
            assert np.array_equal(Is, want_I) and np.array_equal(ps, want_p)
            assert not (Is.flags.owndata or ps.flags.owndata)  # views, no layout copy

    def test_replaced_callbacks_fall_back_to_step(self, rng):
        base = catalog("standard", 0.5)
        member = near_identity_family(base)(0.3)
        doubled = replace(base, s_phi=lambda I, p: 2.0 * base.s_phi(I, p))
        twisted = replace(base, omega=lambda I: 2.0 * np.asarray(I))
        I0, phi0 = rng.uniform(-0.5, 0.5, (5, 1)), rng.uniform(0.0, 1.0, (5, 1))
        fused = np.concatenate(propagate(base, I0, phi0, 40)[:2], axis=-1)
        for m in (member, doubled, twisted):
            assert _fused_term(m) is None
            Is, ps, _ = propagate(m, I0, phi0, 40)
            want_I, want_p = _stepped(m, I0, phi0, 40)
            assert np.array_equal(Is, want_I) and np.array_equal(ps, want_p)
            assert not np.array_equal(np.concatenate([Is, ps], axis=-1), fused)

    def test_contains_extended_rejects_nan(self, standard_map):
        dom = standard_map.domain
        assert not dom.contains_extended(np.array([np.nan]))
        assert list(dom.contains_extended(np.array([[0.1], [np.nan], [1.5], [1.6]]))) == [
            True, False, True, False]
        with pytest.raises(DomainEscape):
            standard_map.apply(np.array([np.nan, 0.2]))

    def test_propagate_reports_first_state_outside(self):
        m = nonexact_shear(0.01)  # I_k = I_0 + 0.01 k leaves |I| <= 1.5 at k = 5
        Is, ps, first = propagate(m, np.array([[1.455], [0.0]]), np.array([[0.2], [0.3]]), 10)
        assert Is.shape == ps.shape == (11, 2, 1)
        assert list(first) == [5, -1]
        # the last state is not a step source, so it is never reported
        assert list(propagate(m, np.array([[1.455]]), np.array([[0.2]]), 5)[2]) == [-1]
        with pytest.raises(DomainEscape) as exc:
            m.orbit(np.array([1.455, 0.2]), 10)
        assert exc.value.index == 6

    def test_non_finite_state_is_an_escape(self):
        # the step from I > 0.255 returns NaN (I_16 = 0.26); a NaN action is outside
        m = replace(catalog("standard", 0.01),
                    s_phi=lambda I, p: np.where(I > 0.255, np.nan, -1.0))
        with pytest.raises(DomainEscape) as exc:
            m.orbit(np.array([0.1, 0.2]), 30)
        assert exc.value.index == 18

    def test_non_finite_last_state_is_an_escape(self):
        # as above, but the orbit ends at the first NaN state, I_17
        m = replace(catalog("standard", 0.01),
                    s_phi=lambda I, p: np.where(I > 0.255, np.nan, -1.0))
        assert np.isfinite(m.orbit(np.array([0.1, 0.2]), 16)).all()
        with pytest.raises(DomainEscape) as exc:
            m.orbit(np.array([0.1, 0.2]), 17)
        assert exc.value.index == 18
        blk = BlockMap(m, ResonanceSite(n=1, omega_star=[0.0], I_star=[0.0], rho_n=0.1),
                       "nucleus")
        x = np.array([0.1 / blk.rho, 0.2])
        assert np.isfinite(blk.orbit(x, 16)).all()
        with pytest.raises(DomainEscape) as exc:
            blk.orbit(x, 17)
        assert exc.value.index == 18

    def test_escape_reported_before_later_solver_failure(self):
        # Picard solve fails (NaN) once |I| >= 2, 50 steps after the escape
        def s_phi(I, phi):
            return np.where(np.abs(I) < 2.0, -1.0, np.nan)

        m = replace(catalog("standard", 0.01), s_phi=s_phi, s_action_independent=False)
        with pytest.raises(DomainEscape) as exc:
            m.orbit(np.array([1.455, 0.2]), 100)
        assert exc.value.index == 6
        with pytest.raises(NoConvergence):
            replace(m, s_phi=lambda I, p: np.full_like(I, np.nan)).orbit(np.array([0.1, 0.2]), 5)


class TestTrigTerm:
    """The catalog's generating terms as (modes, coefficients) against the
    closed forms the catalog used to hold."""

    CASES = [("standard", {}, standard_closed_forms()),
             ("froeschle2", {"eta": 0.3}, froeschle_closed_forms(0.3)),
             ("froeschle2", {"eta": -0.7}, froeschle_closed_forms(-0.7))]

    @pytest.mark.parametrize("name, params, forms", CASES, ids=["std", "fro0.3", "fro-0.7"])
    def test_callbacks_and_norms_match_closed_forms(self, name, params, forms, rng):
        m = catalog(name, 0.1, **params)
        for shape in [(200,), ()]:
            I = rng.uniform(-1.0, 1.0, shape + (m.d,))
            phi = rng.uniform(-3.0, 3.0, shape + (m.d,))
            for derived, closed in zip((m.s, m.s_phi, m.s_phiphi), forms):
                assert np.array_equal(derived(I, phi), closed(I, phi))
        want = catalog_norms(name, params.get("eta"))
        assert {k: getattr(m.domain, k) for k in want} == want

    @pytest.mark.parametrize("name, params, forms", CASES, ids=["std", "fro0.3", "fro-0.7"])
    def test_jacobian_matches_closed_form_model(self, name, params, forms, rng):
        m = catalog(name, 0.15, **params)
        s, s_phi, s_phiphi = forms
        old = replace(m, s=s, s_phi=s_phi, s_phiphi=s_phiphi)
        for _ in range(10):
            x = np.concatenate([rng.uniform(-0.5, 0.5, m.d), rng.uniform(0.0, 1.0, m.d)])
            assert np.array_equal(jacobian(m, x), jacobian(old, x))

    @pytest.mark.parametrize("spec", [GENERAL_TERM, UNUSED_ANGLE_TERM], ids=["general", "unused"])
    def test_general_term_derivatives_and_norms(self, spec, rng):
        term = TrigTerm(*map(np.array, spec))
        phi = rng.uniform(0.0, 1.0, (50, 3))
        I = np.zeros_like(phi)
        h = 1e-6
        for j in range(3):
            e = np.zeros(3)
            e[j] = h
            fd = (term.s(I, phi + e) - term.s(I, phi - e)) / (2 * h)
            assert np.max(np.abs(fd - term.s_phi(I, phi)[:, j])) <= 1e-8
            fd2 = (term.s_phi(I, phi + e) - term.s_phi(I, phi - e)) / (2 * h)
            assert np.max(np.abs(fd2 - term.s_phiphi(I, phi)[:, :, j])) <= 1e-6
        grid = rng.uniform(0.0, 1.0, (20000, 3))
        assert np.max(np.abs(term.s(I[:1], grid))) <= term.norm_s
        assert np.max(np.abs(term.s_phi(I[:1], grid))) <= term.norm_a
        assert np.array_equal(term.s_I(I, phi), np.zeros_like(I))

    def test_s_phi_results_outlive_reused_work_rows(self, rng):
        term = TrigTerm(*map(np.array, GENERAL_TERM))
        phis = [rng.uniform(0.0, 1.0, shape) for shape in [(3,), (3,), (4, 3), (3,)]]
        got = [term.s_phi(None, p) for p in phis]  # rows reused, then rebuilt per batch
        fresh = [TrigTerm(*map(np.array, GENERAL_TERM)).s_phi(None, p) for p in phis]
        assert all(np.array_equal(a, b) for a, b in zip(got, fresh))
        # a copy rebuilds its work rows, which must keep aliasing one buffer
        for clone in (copy.deepcopy(term), pickle.loads(pickle.dumps(term))):
            assert all(np.array_equal(clone.s_phi(None, p), b) for p, b in zip(phis, fresh))

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(spec=trig_terms(), batch=st.sampled_from([1, 7, 100]), seed=st.integers(0, 2**32 - 1))
    @example(spec=GENERAL_TERM, batch=7, seed=0)
    @example(spec=UNUSED_ANGLE_TERM, batch=100, seed=1)
    @example(spec=([[1, 0], [0, 1], [1, 1]], [1.0, 1.0, 0.3]), batch=1, seed=2)
    def test_kick_program_equals_frozen_sequence(self, spec, batch, seed):
        term = TrigTerm(*map(np.array, spec))
        angles = np.random.default_rng(seed).uniform(0.0, 1.0, (term.d, batch))
        want = kick_rows(*spec, angles)
        work = term.work(batch)
        for out in (work.grad, np.empty((term.d, batch))):  # its own rows, or the caller's
            work.angles[...] = angles
            work.kick(out)
            assert np.array_equal(out, want)
        assert np.array_equal(term.s_phi(None, angles.T), want.T)

    def test_one_work_per_batch_size_serves_s_phi_and_propagate(self, rng):
        model = _trig_model("general", 0.2, *GENERAL_TERM)
        term = model.s_phi.__self__
        I5, p5 = rng.uniform(-0.5, 0.5, (5, 3)), rng.uniform(-2.0, 2.0, (5, 3))
        p1 = rng.uniform(-2.0, 2.0, 3)

        def fresh():
            return _trig_model("general", 0.2, *GENERAL_TERM)

        want_orbit = propagate(fresh(), I5, p5, 30)[:2]
        want_kick = fresh().s_phi(None, p1)
        # s_phi at batch 1, then propagate at batch 5 on the same term
        assert np.array_equal(term.s_phi(None, p1), want_kick)
        got = propagate(model, I5, p5, 30)[:2]
        assert term._work.n == 5  # propagate took the term's work
        assert all(np.array_equal(a, b) for a, b in zip(got, want_orbit))
        # and the reverse: s_phi at batch 1 after propagate at batch 5
        assert np.array_equal(term.s_phi(None, p1), want_kick)
        assert term._work.n == 1
        work = term.work(5)
        got = propagate(model, I5, p5, 30)[:2]
        assert term._work is work  # built once per batch size
        assert all(np.array_equal(a, b) for a, b in zip(got, want_orbit))

    @pytest.mark.parametrize("modes, coeffs", [([[1.5]], [1.0]), ([[0, 0]], [1.0]),
                                               ([[1], [2]], [1.0]), ([[1]], [np.nan])])
    def test_malformed_term_rejected(self, modes, coeffs):
        with pytest.raises(ValueError):
            TrigTerm(np.array(modes), np.array(coeffs))


class TestShiftedLift:
    """The n-step lift shifted by the resonant rotation, (I_n, phi_n - n omega_*),
    here with n = 2 and omega_* = 1/2."""

    def test_fixed_point_on_resonant_torus(self):
        m = catalog("twist", 0.0)
        x = np.array([0.5, 0.3])
        y = m.orbit(x, 2)[-1] - np.array([0.0, 2 * 0.5])
        assert np.allclose(y, x)

    def test_near_identity_at_resonance(self):
        from mapflow import c4_estimate

        eps, gamma = 1e-4, 2.0
        m = catalog("standard", eps)
        x = np.array([0.5 + 1e-3, 0.37])
        y = m.orbit(x, 2)[-1] - np.array([0.0, 2 * 0.5])
        rho_2 = gamma * eps**0.25 / 2
        bound = c4_estimate(m, eps, gamma) * 2 * rho_2
        disp = np.max(np.abs(y - x))
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
                    Df[:, j] = (m.apply(x + e) - m.apply(x - e)) / (2 * h)
                assert np.max(np.abs(Df.T @ J @ Df - J)) <= 1e-6

    def test_analytic_jacobian_matches_fd(self, rng):
        m = catalog("froeschle2", 0.15, eta=0.4)
        for _ in range(10):
            x = np.concatenate([rng.uniform(-0.5, 0.5, 2), rng.uniform(0, 1, 2)])
            Ja = jacobian(m, x)
            h = 1e-6
            Jfd = np.empty((4, 4))
            for j in range(4):
                e = np.zeros(4)
                e[j] = h
                Jfd[:, j] = (m.apply(x + e) - m.apply(x - e)) / (2 * h)
            assert np.max(np.abs(Ja - Jfd)) <= 1e-8

    def test_inverse_roundtrip(self, rng):
        m = catalog("froeschle2", 0.1, eta=0.3)
        for _ in range(20):
            I = rng.uniform(-0.8, 0.8, 2)
            phi = rng.uniform(0, 3, 2)
            In, pn = m.apply(np.concatenate([I, phi])), None
            back = m.inverse(In)
            assert np.allclose(back, np.concatenate([I, phi]), atol=1e-12)

    @pytest.mark.parametrize("name, params", [("standard", {}), ("froeschle2", {"eta": 0.3}),
                                              ("froeschle2", {"eta": -0.7})],
                             ids=["std", "fro0.3", "fro-0.7"])
    @pytest.mark.parametrize("batch", [1, 100])
    def test_action_independent_inverse_skips_the_solve(self, name, params, batch, rng):
        # s_I = 0, so the Picard solve for the old angle would return its start
        m = catalog(name, 0.1, **params)
        x = np.concatenate([rng.uniform(-0.5, 0.5, (batch, m.d)),
                            rng.uniform(-2.0, 2.0, (batch, m.d))], axis=-1)
        I, phi = x[:, : m.d], x[:, m.d:]
        ph_prev = maps._picard(lambda y: -m.eps * m.s_I(I, maps._frac(y)), phi - m.omega(I))
        want = np.concatenate([I + m.eps * m.s_phi(I, maps._frac(ph_prev)), ph_prev], axis=-1)
        assert np.array_equal(m.inverse(x), want)
        assert np.array_equal(m.inverse(x[0]), want[0])

    def test_action_dependent_inverse_takes_the_solve(self, monkeypatch):
        base = replace(catalog("standard", 0.5), s_action_independent=False)
        member = near_identity_family(base)(0.3)
        calls = []
        picard = maps._picard
        monkeypatch.setattr(maps, "_picard", lambda g, y0: calls.append(y0) or picard(g, y0))
        x = np.array([0.2, 0.3])
        back = member.inverse(member.apply(x))
        assert len(calls) == 2  # one solve per step, forward and back
        assert np.max(np.abs(back - x)) <= 1e-12
        calls.clear()
        near_identity_family(catalog("standard", 0.5))(0.3).inverse(x)
        assert not calls

    def test_inverse_of_explicit_map_is_decided_by_its_callbacks(self):
        # a kicked explicit map whose domain leaves norm_a = norm_b at their
        # default 0 is not integrable: it has no inverse step
        dom = DomainSpec(center=np.zeros(1), R=1.0, sigma=0.5, r=1.0, nu=1.0, nu2=1.0)
        m = MapModel(d=1, form="explicit", eps=0.1, h0=maps._quad_h0,
                     omega=maps._identity_omega, hess=maps._identity_hess_factory(1),
                     domain=dom, a=lambda I, p: np.sin(2 * np.pi * p),
                     b=lambda I, p: np.zeros_like(I))
        with pytest.raises(FormMismatch):
            m.inverse(m.apply(np.array([0.2, 0.3])))
        with pytest.raises(FormMismatch):
            nonexact_shear(0.1).inverse(np.array([0.2, 0.3]))
        twist = catalog("twist", 0.01, d=2)
        x = np.array([0.2, -0.3, 0.4, 0.9])
        assert np.max(np.abs(twist.inverse(twist.apply(x)) - x)) <= 1e-15


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
