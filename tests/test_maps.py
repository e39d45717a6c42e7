"""Map kernel: stepping, lifts, inverse steps, Picard solver, catalog invariants."""

import copy
import pickle
import sys
import threading
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mapflow import (
    catalog,
    interpolating_vf,
    jacobian,
    near_identity_family,
    nonexact_shear,
    stability_scan,
    symplectic_matrix,
    trapped_orbit,
)
from mapflow import maps
from mapflow.errors import DomainEscape, FormMismatch, NoConvergence
from mapflow.maps import (
    DomainSpec,
    MapModel,
    TrigTerm,
    _fused_term,
    _KickWork,
    _picard,
    _propagate_trig,
    _step,
    _step_back,
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
    """The flat orbit by `_step` called once per step, or by `_step_back`
    for a negative ``steps``."""
    body = _step_back if steps < 0 else _step
    xs = [np.concatenate([I, phi], axis=-1)]
    for _ in range(abs(steps)):
        I, phi = body(model, I, phi)
        xs.append(np.concatenate([I, phi], axis=-1))
    return np.stack(xs)


#: a term beyond the catalog: weights other than 1, a negative mode entry,
#: three entries in one phase and three terms in one sum
GENERAL_TERM = ([[2, -1, 0], [0, 3, 1], [1, 1, 1], [0, 0, 1]], [0.5, -1.2, 0.7, 1.0])
#: no mode uses the middle angle, so that component of s_phi is 0
UNUSED_ANGLE_TERM = ([[1, 0, 0], [2, 0, -1]], [1.0, 0.5])


def _same_bits(a, b) -> bool:
    """Equal shapes and bit patterns, except that any NaN matches any NaN."""
    nan = np.isnan(a)
    return (a.shape == b.shape and np.array_equal(nan, np.isnan(b))
            and np.array_equal(np.where(nan, 0.0, a).view(np.int64),
                               np.where(nan, 0.0, b).view(np.int64)))


#: angles where reducing by p % 1.0 and by p - floor(p) could part: signed
#: zero, integers, lifts beyond 2^53, tiny negatives and non-finite values
ODD_ANGLES = [-0.0, -3.0, 2.0**60, -1e-20, np.nan, np.inf, -np.inf]


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
        back = standard_map.orbit(x0, -1)  # a negative count steps backward
        assert back.shape == (2, 2) and np.array_equal(back[0], x0)
        assert np.allclose(standard_map.apply(back[1]), x0, atol=1e-14)

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

    @pytest.mark.parametrize("window", [1, 7, 2048])
    @pytest.mark.parametrize("name, x0", [("standard", [[0.31, 0.42], [-0.2, 0.9]]),
                                          ("froeschle2", [[0.2, -0.3, 0.1, 0.7]])])
    def test_flat_orbit_bitwise_equals_repeated_apply(self, name, x0, window, monkeypatch):
        monkeypatch.setattr(maps, "WINDOW", window)
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
        # forward against `_step`, backward against `_step_back`
        assert _fused_term(model) is model.s_phi.__self__
        for shape in [(1,), (10,), (50,), (100,), (), (2, 3)]:
            I0 = rng.uniform(-0.5, 0.5, shape + (model.d,))
            phi0 = rng.uniform(-2.0, 2.0, shape + (model.d,))
            for steps in (60, -60):
                xs, first = propagate(model, np.concatenate([I0, phi0], axis=-1), steps)
                want = _stepped(model, I0, phi0, steps)
                assert xs.shape == want.shape and first.shape == shape
                assert np.array_equal(xs, want)
                assert not xs.flags.owndata  # a view, no layout copy

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(spec=trig_terms(), eps=st.sampled_from([1e-3, 0.3, 2.0]),
           odd=st.permutations(ODD_ANGLES), seed=st.integers(0, 2**32 - 1))
    @example(spec=([[1]], [1.0]), eps=0.3, odd=ODD_ANGLES, seed=0)
    @example(spec=([[1, 0], [0, 1], [1, 1]], [1.0, 1.0, 0.3]), eps=0.3, odd=ODD_ANGLES, seed=1)
    @example(spec=GENERAL_TERM, eps=0.3, odd=ODD_ANGLES, seed=2)
    @example(spec=UNUSED_ANGLE_TERM, eps=0.3, odd=ODD_ANGLES, seed=3)
    def test_point_body_bitwise_equals_its_row_in_a_batch(self, spec, eps, odd, seed):
        """One point steps on Python floats, both ways; it must give the bits
        of its row in a batch of 7, which runs the row program, of `_step`
        (forward) or `_step_back` (backward), and of the frozen kick."""
        model = _trig_model("term", eps, *spec)
        term, d, steps = model.s_phi.__self__, model.d, 320
        rng = np.random.default_rng(seed)
        I0, phi0 = rng.uniform(-0.5, 0.5, (7, d)), rng.uniform(-2.0, 2.0, (7, d))
        phi0[np.arange(7), rng.integers(0, d, 7)] = odd  # one odd angle per point
        x0 = np.concatenate([I0, phi0], axis=-1)
        def refuse(*args):
            raise AssertionError("one point built a row program")

        for n in (steps, -steps):
            with pytest.MonkeyPatch.context() as mp:  # one point takes the float body
                mp.setattr(maps, "_KickWork", refuse)
                alone = [_propagate_trig(eps, term, x0[k], n) for k in range(7)]
            with np.errstate(all="ignore"):
                xs = _propagate_trig(eps, term, x0, n)
                want = _stepped(model, I0, phi0, n)
            for k, x1 in enumerate(alone):
                assert _same_bits(x1, xs[:, k]) and _same_bits(x1, want[:, k])
                I1, p1 = x1[:, :d], x1[:, d:]
                src = p1[:-1] if n > 0 else p1[1:]  # the angles each kick reads
                with np.errstate(all="ignore"):
                    kick = kick_rows(*spec, (src - np.floor(src)).T).T
                    if n > 0:
                        assert _same_bits(I1[1:], I1[:-1] - kick * eps)
                        assert _same_bits(p1[1:], p1[:-1] + I1[1:])
                    else:
                        assert _same_bits(p1[1:], p1[:-1] - I1[:-1])
                        assert _same_bits(I1[1:], I1[:-1] + kick * eps)

    @pytest.mark.parametrize("name, params, site", [
        ("standard", {}, ResonanceSite(n=1, omega_star=[0.0], I_star=[0.0], rho_n=0.2)),
        ("froeschle2", {"eta": 0.3},
         ResonanceSite(n=2, omega_star=[0.5, 0.0], I_star=[0.5, 0.0], rho_n=0.1))],
        ids=["standard", "froeschle2"])
    def test_catalog_maps_never_step_through_step(self, name, params, site, monkeypatch):
        def refuse(*args):
            raise AssertionError("a catalog map stepped through _step")

        monkeypatch.setattr(maps, "_step", refuse)
        m = catalog(name, 1e-3, **params)
        block = BlockMap(m, site, "nucleus")
        x = np.concatenate([np.full(m.d, 0.1), np.full(m.d, 0.3)])
        xb = np.concatenate([np.full(m.d, 0.2), np.full(m.d, 0.3)])
        assert np.array_equal(m.apply(x), m.orbit(x, 20)[1])
        assert stability_scan(m, np.stack([x, -x]), 20)[1].status == "ok"
        assert np.array_equal(block.apply(xb), block.orbit(xb, 5)[1])
        assert trapped_orbit(m, site, xb, 30).x.shape == (31, 2 * m.d)
        for F, y in ((m, x), (block, xb)):
            assert np.isfinite(interpolating_vf(F, y, 3)).all()

    def test_replaced_callbacks_fall_back_to_step(self, rng):
        base = catalog("standard", 0.5)
        member = near_identity_family(base)(0.3)
        doubled = replace(base, s_phi=lambda I, p: 2.0 * base.s_phi(I, p))
        twisted = replace(base, omega=lambda I: 2.0 * np.asarray(I))
        I0, phi0 = rng.uniform(-0.5, 0.5, (5, 1)), rng.uniform(0.0, 1.0, (5, 1))
        x0 = np.concatenate([I0, phi0], axis=-1)
        fused = propagate(base, x0, 40)[0]
        for m in (member, doubled, twisted):
            assert _fused_term(m) is None
            xs, _ = propagate(m, x0, 40)
            assert np.array_equal(xs, _stepped(m, I0, phi0, 40))
            assert not np.array_equal(xs, fused)

    def test_threads_sharing_one_model_step_like_one_thread(self):
        """A term keeps no state, so threads stepping one model at once get
        the orbits of one thread, bit for bit; frequent thread switches
        interleave their steps."""
        m, repeats = catalog("froeschle2", 1e-3, eta=0.3), 20
        rng = np.random.default_rng(4)
        seeds = [np.concatenate([rng.uniform(-0.5, 0.5, (10, 2)), rng.uniform(0.0, 1.0, (10, 2))],
                                axis=-1) for _ in range(4)]
        want = [(m.orbit(x, 300), m.orbit(x, -40)) for x in seeds]
        got = [[] for _ in seeds]

        def run(k):
            for _ in range(repeats):
                got[k].append((m.orbit(seeds[k], 300), m.orbit(seeds[k], -40)))

        threads = [threading.Thread(target=run, args=(k,)) for k in range(len(seeds))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for orbits, (fwd, back) in zip(got, want):
            assert len(orbits) == repeats  # a thread that raised stopped short
            assert all(np.array_equal(a, fwd) and np.array_equal(b, back) for a, b in orbits)

    def test_contains_extended_rejects_nan(self, standard_map):
        dom = standard_map.domain
        assert not dom.contains_extended(np.array([np.nan]))
        assert list(dom.contains_extended(np.array([[0.1], [np.nan], [1.5], [1.6]]))) == [
            True, False, True, False]
        with pytest.raises(DomainEscape):
            standard_map.apply(np.array([np.nan, 0.2]))

    @pytest.mark.parametrize("window", [1, 7, 2048])
    def test_propagate_reports_first_state_outside(self, window, monkeypatch):
        monkeypatch.setattr(maps, "WINDOW", window)
        m = nonexact_shear(0.01)  # I_k = I_0 + 0.01 k leaves |I| <= 1.5 at k = 5
        xs, first = propagate(m, np.array([[1.455, 0.2], [0.0, 0.3]]), 10)
        assert xs.shape == (11, 2, 2)
        assert list(first) == [5, -1]
        # the last state is not a step source, so it is never reported
        assert list(propagate(m, np.array([[1.455, 0.2]]), 5)[1]) == [-1]
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

    @pytest.mark.parametrize("window", [1, 7, 2048])
    def test_non_finite_last_state_is_an_escape(self, window, monkeypatch):
        monkeypatch.setattr(maps, "WINDOW", window)
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

    @pytest.mark.parametrize("window", [1, 7, 2048])
    def test_escape_reported_before_later_solver_failure(self, window, monkeypatch):
        monkeypatch.setattr(maps, "WINDOW", window)
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
        got = [term.s_phi(None, p) for p in phis]  # each result its own array
        fresh = [TrigTerm(*map(np.array, GENERAL_TERM)).s_phi(None, p) for p in phis]
        assert all(np.array_equal(a, b) for a, b in zip(got, fresh))
        # a copy of a term kicks as the term does
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
        work = _KickWork(term._plan, batch)
        for out in (work.grad, np.empty((term.d, batch))):  # its own rows, or the caller's
            work.angles[...] = angles
            work.kick(out)
            assert np.array_equal(out, want)
        assert np.array_equal(term.s_phi(None, angles.T), want.T)

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
    """The one implicit solve, `maps._picard`."""

    def test_zero_rhs(self):
        y = _picard(lambda y: np.zeros_like(y), np.array([1.0, 2.0]))
        assert np.array_equal(y, np.array([1.0, 2.0]))

    def test_constant_rhs(self):
        y = _picard(lambda y: np.array([0.125]), np.array([1.0]))
        assert y[0] == pytest.approx(1.125, abs=1e-15)

    def test_sin_fixed_point_matches_bisection(self):
        y = _picard(lambda y: 0.1 * np.sin(y), np.array([1.0]))
        assert y[0] == pytest.approx(FIXED_POINT_SIN, abs=1e-12)
        # re-derive the frozen oracle value
        root = bisect(lambda t: t - 1.0 - 0.1 * np.sin(t), 1.0, 1.2)
        assert root == pytest.approx(FIXED_POINT_SIN, abs=1e-12)

    def test_budget_exhaustion(self, monkeypatch):
        # the budget is read at call time: a solve that converges in the
        # default budget does not in two iterations
        g = lambda y: 0.1 * np.sin(y)
        _picard(g, np.array([1.0]))
        monkeypatch.setattr(maps, "MAX_PICARD_ITER", 2)
        with pytest.raises(NoConvergence):
            _picard(g, np.array([1.0]))

    @given(c=st.floats(-0.2, 0.2), y0=st.floats(-1.0, 1.0))
    @settings(max_examples=50, deadline=None)
    def test_residual_postcondition(self, c, y0):
        g = lambda y: c * np.cos(3.0 * y)
        y = _picard(g, np.array([y0]))
        assert abs(y[0] - y0 - g(y)[0]) <= 1e-13

    def test_rows_converge_on_their_own(self):
        # rows of different contraction factors converge at different
        # iterations; each is held there, at its one-row solve, bit for bit
        c = np.array([[0.0], [0.01], [0.2], [0.5], [-0.6]])
        y0 = np.array([[0.7], [1.0], [1.0], [0.2], [2.5]])
        batch = _picard(lambda y: c * np.sin(y), y0)
        calls = []
        for i in range(len(c)):
            def g(y, ci=c[i]):
                calls[-1] += 1
                return ci * np.sin(y)
            calls.append(0)
            assert np.array_equal(_picard(g, y0[i]), batch[i])
        assert len(set(calls)) == len(c)

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

    @pytest.mark.parametrize("m", [catalog("twist", 0.0, d=2), catalog("twist", 0.3, d=2),
                                   nonexact_shear(0.05), catalog("standard", 0.7),
                                   catalog("froeschle2", 0.15, eta=0.4)],
                             ids=["twist0", "twist", "shear", "std", "fro"])
    def test_batched_jacobian_is_its_one_point_calls(self, m, rng):
        x = np.concatenate([rng.uniform(-0.5, 0.5, (3, 4, m.d)),
                            rng.uniform(-2.0, 2.0, (3, 4, m.d))], axis=-1)
        J = jacobian(m, x)
        assert J.shape == (3, 4, 2 * m.d, 2 * m.d)
        assert np.array_equal(J, [[jacobian(m, p) for p in row] for row in x])

    def test_jacobian_of_an_explicit_step_needs_no_contraction(self):
        # at eps = 1 the step is explicit in I' (no contraction needed), and the
        # Jacobian takes the step's own I'
        m = catalog("standard", 1.0)
        x = np.array([0.2, 0.3])
        h = 1e-6
        Jfd = np.empty((2, 2))
        for j in range(2):
            e = np.zeros(2)
            e[j] = h
            Jfd[:, j] = (m.apply(x + e) - m.apply(x - e)) / (2 * h)
        assert np.max(np.abs(jacobian(m, x) - Jfd)) <= 1e-8

    def test_inverse_applies_the_domain_rule(self):
        # the inverse image (5.00015, -4.8) is a point apply refuses to step from
        m = catalog("standard", 1e-3)
        with pytest.raises(DomainEscape):
            m.apply(np.array([5.00015, -4.8]))
        with pytest.raises(DomainEscape, match="inverse"):
            m.inverse(np.array([5.0, 0.2]))
        with pytest.raises(DomainEscape, match="inverse"):
            m.inverse(np.array([[0.1, 0.2], [np.nan, 0.2]]))
        with pytest.raises(DomainEscape, match="inverse"):
            catalog("twist", 0.0).inverse(np.array([5.0, 0.2]))
        site = ResonanceSite(n=2, omega_star=[0.5], I_star=[0.5], rho_n=0.1)
        with pytest.raises(DomainEscape, match="inverse"):
            BlockMap(m, site).inverse(np.array([45.0, 0.2]))

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
                     omega=maps._identity_omega, hess=maps._identity_hess,
                     domain=dom, a=lambda I, p: np.sin(2 * np.pi * p),
                     b=lambda I, p: np.zeros_like(I))
        with pytest.raises(FormMismatch):
            m.inverse(m.apply(np.array([0.2, 0.3])))
        with pytest.raises(FormMismatch):
            nonexact_shear(0.1).inverse(np.array([0.2, 0.3]))
        twist = catalog("twist", 0.01, d=2)
        x = np.array([0.2, -0.3, 0.4, 0.9])
        assert np.max(np.abs(twist.inverse(twist.apply(x)) - x)) <= 1e-15


def _lochak_n3(eps: float) -> BlockMap:
    """The lochak block of the standard map at n = 3, omega_* = 1/3, rho = 0.05."""
    site = ResonanceSite(n=3, omega_star=[1.0 / 3.0], I_star=[1.0 / 3.0], rho_n=0.05)
    return BlockMap(catalog("standard", eps), site)


class TestInverseEngine:
    """Inverse steps run in the orbit engine: `propagate` with a negative step count."""

    def test_only_callback_inverses_reach_step_back(self, monkeypatch):
        def refuse(model, I, phi):
            raise RuntimeError("stepped back")

        monkeypatch.setattr(maps, "_step_back", refuse)
        x = np.array([0.2, 0.3])
        callback = replace(catalog("standard", 1e-3), s_action_independent=False)
        with pytest.raises(RuntimeError, match="stepped back"):
            callback.inverse(x)
        # catalog maps, their blocks and gauss windows step back in the fused body
        for name, params in (("standard", {}), ("froeschle2", {"eta": 0.3})):
            m = catalog(name, 1e-3, **params)
            y = np.concatenate([np.full(m.d, 0.2), np.full(m.d, 0.3)])
            block = BlockMap(m, ResonanceSite(n=1, omega_star=np.zeros(m.d),
                                              I_star=np.zeros(m.d), rho_n=0.2), "nucleus")
            for F in (m, block):
                assert np.array_equal(F.inverse(y), F.orbit(y, -4)[1])
                assert np.isfinite(interpolating_vf(F, y, 4, "gauss")).all()
        assert np.isfinite(_lochak_n3(1e-3).inverse(x)).all()

    def test_block_inverse_is_one_engine_call(self, monkeypatch):
        blk, calls, model_inverses = _lochak_n3(1e-3), [], []
        engine = maps.windows
        monkeypatch.setattr(maps, "windows", lambda *a: calls.append(a[2:]) or engine(*a))
        monkeypatch.setattr(MapModel, "inverse", lambda self, x: model_inverses.append(x))
        blk.inverse(np.array([[0.4, 0.23], [-0.7, 0.9]]))
        assert calls == [(1, -3)]  # one sample at stride -n
        assert not model_inverses

    @pytest.mark.parametrize("window", [1, 7, 2048])
    def test_escape_at_the_second_of_three_inverse_steps(self, monkeypatch, window):
        monkeypatch.setattr(maps, "WINDOW", window)
        blk = _lochak_n3(0.5)
        m, out = blk.model, np.array([23.0, 0.1])
        z = m.inverse(np.array([blk.site.I_star[0] + blk.rho * out[0], out[1] + 1.0]))
        with pytest.raises(DomainEscape, match="inverse"):  # the first step stayed inside
            m.inverse(z)
        for x in (out, np.array([[0.0, 0.2], out])):
            with pytest.raises(DomainEscape, match="inverse"):
                blk.inverse(x)

    def test_action_dependent_batch_rows_are_their_points(self, rng):
        # the forward and inverse steps take a Picard solve per row
        member = near_identity_family(
            replace(catalog("standard", 0.5), s_action_independent=False))(0.3)
        x = np.concatenate([rng.uniform(-0.5, 0.5, (20, 1)), rng.uniform(0, 1, (20, 1))],
                           axis=-1)
        for step in (member.apply, member.inverse):
            batch = step(x)
            for xi, yi in zip(x, batch):
                assert np.array_equal(step(xi), yi)


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

    def test_models_and_blocks_pickle(self, rng):
        # worker tasks carry the model or block the runner built
        nucleus = BlockMap(catalog("standard", 1e-4),
                           ResonanceSite(n=1, omega_star=[0.0], I_star=[0.0], rho_n=0.2),
                           "nucleus")
        for F in (catalog("twist", 0.0, d=2), catalog("standard", 1e-3),
                  catalog("froeschle2", 1e-3), nucleus, _lochak_n3(1e-3)):
            clone = pickle.loads(pickle.dumps(F))
            x = np.concatenate([rng.uniform(-0.3, 0.3, (4, F.d)), rng.uniform(0, 1, (4, F.d))],
                               axis=-1)
            for steps in (5, -5):
                assert _same_bits(clone.orbit(x, steps), F.orbit(x, steps))
