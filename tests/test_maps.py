"""Map kernel: stepping, lifts, inverse steps, Picard solver, catalog invariants."""

import copy
import gc
import math
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
    circle_loop,
    interpolating_vf,
    jacobian,
    loop_action,
    near_identity_family,
    nonexact_shear,
    stability_scan,
    symplectic_matrix,
    trapped_orbit,
)
from mapflow import maps
from mapflow.errors import DomainEscape, NoConvergence
from mapflow.hamiltonian import _fd_jacobian
from mapflow.interp import difference_table
from mapflow.maps import (
    DomainSpec,
    MapModel,
    TrigTerm,
    _fused_term,
    _dot,
    _orbits,
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
    _lincomb_rows,
    action_dependent_forms,
    bisect,
    catalog_norms,
    froeschle_closed_forms,
    kick_rows,
    per_seed,
    s_phiphi_rows,
    s_rows,
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
#: a negative weight other than -1 in a three-entry phase and in a
#: three-term sum, and a negative coefficient other than -1
NEGATIVE_WEIGHT_TERM = ([[3, -2, 1], [1, 0, -1], [0, 2, 1]], [-0.7, 2.5, 1.0])
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


#: weights of a weighted sum: +-1 (an add or a subtract in the frozen rule), others, integers
WEIGHTS = st.sampled_from([1.0, -1.0, 2.0, -2.0, 0.3, -0.7]) | st.integers(-4, 4)


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

    @pytest.mark.parametrize("name", ["froeschle2", "twist"])
    def test_empty_batch_takes_no_step(self, name, monkeypatch):
        """No seed: the orbits have their shapes, both ways, and the scan its
        records, without a call of `propagate`."""
        m, calls = catalog(name, 1e-3, **({"d": 2} if name == "twist" else {})), []
        monkeypatch.setattr(maps, "propagate", lambda *args: calls.append(args))
        for steps in (10**5, -7, 0):
            assert m.orbit(np.empty((0, 4)), steps).shape == (abs(steps) + 1, 0, 4)
        assert per_seed(stability_scan(m, np.empty((0, 4)), 10**5, 0.1)) == []
        assert calls == []

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
        monkeypatch.setattr(maps, "WINDOW", 28)  # 7 steps of 4 seeds: the scan restarts 28 times
        rec = stability_scan(m, np.hstack([I0, phi0]), 200)
        assert np.array_equal(rec.excursion, np.max(np.abs(Is[1:] - Is[0]), axis=(0, 2)))
        assert np.array_equal(rec.max_step_drift, np.max(np.abs(np.diff(Is, axis=0)), axis=(0, 2)))

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

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_twist_steps_in_the_fused_body(self, d, rng):
        """The twist is the term with no modes: at eps > 0 it steps in the
        compiled bodies, bit for bit as its callbacks step through `_step`
        and `_step_back` (a wrapped s_phi is not fused), signed zeros too."""
        twist = catalog("twist", 0.01, d=d)
        assert _fused_term(twist) is twist.s_phi.__self__
        callback = replace(twist, s_phi=lambda I, p: twist.s_phi(I, p))
        assert _fused_term(callback) is None
        for batch in (1, 100, 10**4):
            x = np.concatenate([rng.uniform(-0.5, 0.5, (batch, d)),
                                rng.uniform(-2.0, 2.0, (batch, d))], axis=-1)
            x[-1, :d], x[0] = 0.0, -0.0
            for steps in (7, -7):
                for start in (x, x[0]) if batch == 1 else (x,):
                    got, want = propagate(twist, start, steps), propagate(callback, start, steps)
                    assert _same_bits(got[0], want[0]) and np.array_equal(got[1], want[1])

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(spec=trig_terms(), eps=st.sampled_from([1e-3, 0.3, 2.0]),
           odd=st.permutations(ODD_ANGLES), seed=st.integers(0, 2**32 - 1))
    @example(spec=([[1]], [1.0]), eps=0.3, odd=ODD_ANGLES, seed=0)
    @example(spec=([[1, 0], [0, 1], [1, 1]], [1.0, 1.0, 0.3]), eps=0.3, odd=ODD_ANGLES, seed=1)
    @example(spec=GENERAL_TERM, eps=0.3, odd=ODD_ANGLES, seed=2)
    @example(spec=UNUSED_ANGLE_TERM, eps=0.3, odd=ODD_ANGLES, seed=3)
    @example(spec=NEGATIVE_WEIGHT_TERM, eps=2.0, odd=ODD_ANGLES, seed=4)
    def test_point_body_bitwise_equals_its_row_in_a_batch(self, spec, eps, odd, seed):
        """One point steps on Python floats, both ways; it must give the bits
        of its row in a batch of 7, which runs the batch body, of `_step`
        (forward) or `_step_back` (backward), and of the frozen kick."""
        model = _trig_model("term", eps, *spec)
        term, d, steps = model.s_phi.__self__, model.d, 320
        rng = np.random.default_rng(seed)
        I0, phi0 = rng.uniform(-0.5, 0.5, (7, d)), rng.uniform(-2.0, 2.0, (7, d))
        phi0[np.arange(7), rng.integers(0, d, 7)] = odd  # one odd angle per point
        x0 = np.concatenate([I0, phi0], axis=-1)
        def refuse(*args):
            raise AssertionError("one point ran a batch body")

        for n in (steps, -steps):
            with pytest.MonkeyPatch.context() as mp:  # one point takes the float body
                mp.setitem(term.__dict__, "_batch", (refuse, refuse))
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

    @pytest.mark.parametrize("model, sines, runs", [
        (catalog("standard", 0.3), 1, 1), (catalog("froeschle2", 0.3, eta=-0.7), 3, 1),
        (_trig_model("general", 0.2, *GENERAL_TERM), 4, 1),
        (_trig_model("unused", 0.2, *UNUSED_ANGLE_TERM), 2, 2)],
        ids=["standard", "froeschle2", "general", "unused_angle"])
    def test_point_body_takes_only_the_sines_it_reads(self, model, sines, runs):
        # general: angles 0 and 1 feed only its phases, so their own sines are
        # dead; unused_angle: angle 1 feeds nothing, angle 2 only a phase, so
        # its sine rows 0 and 3 are two runs.  The batch body takes a sine per
        # run of consecutive rows: one call per step for the catalog maps.
        term, steps = model.s_phi.__self__, 5
        x = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6][:2 * model.d]
        xs = np.empty((steps + 1, 2 * model.d, 3))
        xs[0] = np.array(x)[:, None] + [0.0, 0.1, 0.2]
        for back in (False, True):
            calls, rows = [], []

            def sin(v):
                calls.append(v)
                return math.sin(v)

            def sin_rows(v, out):
                rows.append(len(v))
                return np.sin(v, out)

            body = term._point[back]
            assert body(x, 0.2, steps, sin=sin) == body(x, 0.2, steps)
            assert len(calls) == sines * steps
            batch, plain = term._batch[back], xs.copy()
            batch(xs, 0.2, sin=sin_rows)
            batch(plain, 0.2)
            assert np.array_equal(xs, plain)
            assert sum(rows) == sines * steps and len(rows) == runs * steps

    def test_unused_angle_takes_no_dead_work(self, monkeypatch):
        # angle 1 of UNUSED_ANGLE_TERM feeds no phase, sine or sum: the point
        # bodies do not reduce it, and the batch bodies fill its empty sum's
        # row once per call.  Its kick line stays: I + 0.0 turns -0.0 into
        # +0.0, and a non-finite eps makes it NaN, as in `_step` and `_step_back`
        sources = []

        def spy(source, *args):
            sources.append(source)
            return compile(source, *args)

        monkeypatch.setattr(maps, "compile", spy, raising=False)
        TrigTerm(*map(np.array, UNUSED_ANGLE_TERM))
        point, batch = sources[:2], sources[2:]  # forward, then backward
        for source, op in zip(point, "-+"):
            loop = source.split("for _ in", 1)[1]
            assert "r0 = p0 % 1.0" in loop and "r2 = p2 % 1.0" in loop
            assert "p1 %" not in source and f"I1 {op}= (0.0) / " in loop
        for source in batch:
            head, loop = source.split("for I1, p1 in", 1)
            assert "b10.fill(0.0)" in head and "fill" not in loop

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
        assert per_seed(stability_scan(m, np.stack([x, -x]), 20))[1].status == "ok"
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

    def test_orbits_drops_a_seed_its_consumer_marks(self, monkeypatch):
        """A consumer that writes an exit index into a yielded ``first``
        before resuming the engine drops that seed; the others step on as
        in an undisturbed run, bit for bit, in the longer windows of fewer
        seeds."""
        monkeypatch.setattr(maps, "WINDOW", 8)  # 2 steps of 3 seeds, then 4 of 2
        m = catalog("froeschle2", 1e-3, eta=0.3)
        x0 = np.array([[0.1, -0.2, 0.3, 0.7], [0.2, 0.1, 0.5, 0.4], [-0.3, 0.2, 0.9, 0.1]])
        want = np.concatenate([xs[1:].copy() for _, xs, _ in _orbits(m, x0, 40, 1)])
        assert want.shape == (40, 3, 4)
        engine = _orbits(m, x0, 40, 1)
        live, xs, first = next(engine)
        assert list(live) == [0, 1, 2] and list(first) == [-1, -1, -1]
        got = [xs[1:, [0, 2]]]
        first[1] = 3
        for live, xs, first in engine:
            assert list(live) == [0, 2]
            got.append(xs[1:].copy())
        assert [len(g) for g in got] == [2] + [4] * 9 + [2]
        assert np.array_equal(np.concatenate(got), want[:, [0, 2]])

    @pytest.mark.parametrize("window", [1, 5, 8, 60, maps.WINDOW])
    @pytest.mark.parametrize("every", [1, 3, -2])
    def test_orbits_windows_are_bounded_in_states(self, window, every, monkeypatch):
        """Each window holds at most ``WINDOW`` states (steps x live seeds),
        in whole samples, or one sample where a sample alone exceeds that;
        and it is the longest such window, so the windows grow as seeds
        drop (here at steps 5 and 21 of the shear)."""
        monkeypatch.setattr(maps, "WINDOW", window)
        m, stride = nonexact_shear(0.01), abs(every)
        if every < 0:  # only the standard map steps backward
            m = catalog("standard", 0.5)
        x0 = np.array([[1.455, 0.2], [1.295, 0.3], [0.0, 0.4], [0.1, 0.5]])
        done, total = 0, 30 * stride
        for live, xs, first in _orbits(m, x0, 30, every):
            steps = len(xs) - 1
            assert steps % stride == 0 and steps >= stride
            assert steps * len(live) <= window or steps == stride
            assert done + steps == total or (steps + stride) * len(live) > window
            done += steps
        assert done == total

    def test_window_lengths_of_the_workloads(self):
        """25,600 states: a scan of 100 seeds steps 256 at a time, the
        pilot's 10 seeds 2,560 (8 windows of 2 * 10^4 steps) and one point
        25,600 (4 windows of 10^5 steps)."""
        m = catalog("standard", 1e-3)
        x0 = np.concatenate([np.linspace(-0.4, 0.4, 100)[:, None],
                             np.linspace(0.0, 1.0, 100)[:, None]], axis=-1)
        assert len(next(_orbits(m, x0, 1000, 1))[1]) == 257
        lengths = [[len(xs) - 1 for _, xs, _ in _orbits(m, x0[:n], steps, 1)]
                   for n, steps in ((10, 20_000), (1, 100_000))]
        assert lengths == [[2560] * 7 + [2080], [25_600] * 3 + [23_200]]

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


def _first_outside_per_state(domain, Is):
    """The domain rule at every state: per seed, the first index along axis 0
    of a state outside, or -1."""
    inside = domain.contains_extended(Is)
    return np.where(inside.all(axis=0), -1, inside.argmin(axis=0))


class TestFirstOutside:
    # (steps, seeds): 1, 7 and 25,600 states, and None for one point's (steps, d)
    SHAPES = [(1, 1), (7, 1), (1, 7), (7, 40), (40, 33), (256, 100), (25_600, None)]

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(d=st.sampled_from([1, 2, 3]), shape=st.sampled_from(SHAPES),
           corner_min=st.sampled_from([1, maps.CORNER_MIN]), specials=st.integers(0, 4),
           seed=st.integers(0, 2**32 - 1))
    def test_worst_corner_gives_the_per_state_rule(self, d, shape, corner_min, specials, seed):
        """Windows whose seeds reach dist = sigma within a few ulps, along an
        axis (the corner is a state) or any direction, with NaN, +-inf and
        1e200 entries and a centre off the origin; no RuntimeWarning."""
        rng = np.random.default_rng(seed)
        dom = DomainSpec(center=rng.uniform(-2.0, 2.0, d), R=rng.uniform(0.5, 2.0),
                         sigma=rng.uniform(0.1, 1.0), r=1.0, nu=1.0, nu2=1.0)
        steps, seeds = shape
        n = seeds or 1
        u = rng.normal(size=(steps, n, d))
        axis = rng.random(n) < 0.5  # these seeds move along one axis only
        u[:, axis] = 0.0
        u[:, axis, rng.integers(0, d)] = rng.choice([-1.0, 1.0], size=(steps, axis.sum()))
        u /= np.linalg.norm(u, axis=-1, keepdims=True)
        rim = (dom.R + dom.sigma) * (1.0 + rng.integers(-4, 5, (steps, n, 1)) * 2.0**-52)
        Is = dom.center + u * np.where(rng.random((steps, n, 1)) < 0.2, rim,
                                       rim * rng.random((steps, n, 1)))
        for _ in range(specials):
            Is[rng.integers(steps), rng.integers(n), rng.integers(d)] = rng.choice(
                [np.nan, np.inf, -np.inf, 1e200, -1e200])
        if seeds is None:
            Is = Is[:, 0]
        want = _first_outside_per_state(dom, Is)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(maps, "CORNER_MIN", corner_min)
            got = maps._first_outside(dom, Is)
        assert got.shape == want.shape and np.array_equal(got, want)

    @pytest.mark.parametrize("corner_min", [1, maps.CORNER_MIN])
    @pytest.mark.parametrize("steps", [256, -256])
    def test_propagate_escapes_both_ways(self, steps, corner_min, monkeypatch):
        """100 seeds of a chaotic standard map, 25,600 states, forward and
        backward: a forward escape is the first state outside a step is taken
        from, a backward one the first result outside, less one."""
        monkeypatch.setattr(maps, "CORNER_MIN", corner_min)
        m = catalog("standard", 1.5)
        x0 = np.column_stack([np.linspace(-1.49, 1.49, 100), np.linspace(0.0, 1.0, 100)])
        xs, first = maps.propagate(m, x0, steps)
        back = int(steps < 0)
        assert np.array_equal(first, _first_outside_per_state(
            m.domain, xs[back:abs(steps) + back, :, :1]))
        assert 20 < np.sum(first >= 0) < 30 and np.sum(first > 100) > 2


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

    def test_complex_points_stay_complex(self, rng):
        """At complex points the callbacks, the identity frequency map, the
        angle reduction and the difference table keep the imaginary part and
        match their closed forms (e.g. the standard kick sin(2 pi z)/2 pi)."""
        z = rng.uniform(-1.0, 1.0, (50, 2)) + 1j * rng.uniform(-0.5, 0.5, (50, 2))
        for name, params, forms in self.CASES:
            m = catalog(name, 0.1, **params)
            phi = z[:, :m.d]
            for derived, closed in zip((m.s, m.s_phi, m.s_phiphi), forms):
                got = derived(phi, phi)
                assert got.dtype == complex
                np.testing.assert_allclose(got, closed(phi, phi), rtol=1e-12, atol=1e-15)
        assert np.array_equal(maps._identity_omega(z), z)
        reduced = maps._frac(z + 3.0)
        assert np.array_equal(reduced.imag, z.imag)
        assert np.all((0.0 <= reduced.real) & (reduced.real < 1.0))
        np.testing.assert_allclose(reduced.real, np.mod(z.real, 1.0), rtol=0, atol=1e-15)
        # a quadratic orbit a + b k + c k^2: D_1 = b + c (2i + 1), D_2 = 2c, D_3 = 0
        a, b, c = z[:3]
        k = np.arange(5)[:, None]
        table = difference_table(a + b * k + c * k**2)
        np.testing.assert_allclose(table[1], b + c * (2 * k[:4] + 1), rtol=1e-12)
        np.testing.assert_allclose(table[2], np.broadcast_to(2 * c, (3, 2)), rtol=1e-12)
        np.testing.assert_allclose(table[3], 0.0, atol=1e-14)

    @pytest.mark.parametrize("name, params, forms", CASES, ids=["std", "fro0.3", "fro-0.7"])
    def test_jacobian_matches_closed_form_model(self, name, params, forms, rng):
        m = catalog(name, 0.15, **params)
        s, s_phi, s_phiphi = forms
        old = replace(m, s=s, s_phi=s_phi, s_phiphi=s_phiphi)
        for _ in range(10):
            x = np.concatenate([rng.uniform(-0.5, 0.5, m.d), rng.uniform(0.0, 1.0, m.d)])
            assert np.array_equal(jacobian(m, x), jacobian(old, x))

    @pytest.mark.parametrize("name, params", [("standard", {}), ("froeschle2", {"eta": 0.3})])
    def test_unpickled_model_steps_one_point_bit_for_bit(self, name, params, rng):
        """A model sent to a worker rebuilds its term from (modes, coeffs)
        and compiles its own step bodies: its orbits, both ways, are
        the original's bit for bit."""
        m = catalog(name, 0.3, **params)
        clone = pickle.loads(pickle.dumps(m))
        term, copied = m.s_phi.__self__, clone.s_phi.__self__
        assert copied is not term and copied._point is not term._point
        x = np.concatenate([rng.uniform(-0.5, 0.5, m.d), rng.uniform(0.0, 1.0, m.d)])
        for steps in (500, -500):
            assert np.array_equal(clone.orbit(x, steps), m.orbit(x, steps))

    def test_each_term_steps_with_its_own_body(self, rng):
        """Terms built and freed in turn in one process: each steps one point
        with the body compiled from its own plan, which `_step` (its s_phi
        on arrays) confirms bit for bit."""
        for name, params in [("standard", {}), ("froeschle2", {"eta": 0.3}), ("standard", {})]:
            m = catalog(name, 0.3, **params)
            I, phi = rng.uniform(-0.5, 0.5, m.d), rng.uniform(0.0, 1.0, m.d)
            for steps in (200, -200):
                got = m.orbit(np.concatenate([I, phi]), steps)
                assert np.array_equal(got, _stepped(m, I, phi, steps))
            del m
            gc.collect()

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
        """s_phi, and one step of each batch body, kick by the frozen rows."""
        term, d, eps = TrigTerm(*map(np.array, spec)), len(spec[0][0]), 0.3
        rng = np.random.default_rng(seed)
        angles = rng.uniform(0.0, 1.0, (d, batch))
        assert np.array_equal(term.s_phi(None, angles.T), kick_rows(*spec, angles).T)
        for back in (False, True):
            xs = np.empty((2, 2 * d, batch))
            xs[0] = np.concatenate([rng.uniform(-0.5, 0.5, (d, batch)), angles + 3.0])
            term._batch[back](xs, eps)
            (I0, I1), (p0, p1) = xs[:, :d], xs[:, d:]
            src = p0 - I0 if back else p0  # the angles the kick reads
            kick = kick_rows(*spec, src - np.floor(src)) * eps
            if back:
                assert np.array_equal(p1, src) and np.array_equal(I1, I0 + kick)
            else:
                assert np.array_equal(I1, I0 - kick) and np.array_equal(p1, p0 + I1)

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(terms=st.lists(st.tuples(st.integers(0, 3), WEIGHTS), max_size=6),
           n=st.integers(1, 9), seed=st.integers(0, 2**32 - 1))
    def test_dot_on_arrays_is_dot_on_floats(self, terms, n, seed):
        """One weighted-sum rule: on arrays, each element is the sum on its
        floats and the frozen `_lincomb_rows`, bit for bit."""
        rows = np.random.default_rng(seed).uniform(-3.0, 3.0, (4, n))
        rows[0, 0], rows[1, -1] = -0.0, 0.0
        got = np.broadcast_to(_dot(list(rows), terms), (n,))
        floats = np.array([_dot(col, terms) for col in rows.T.tolist()])
        frozen = np.broadcast_to(_lincomb_rows([(rows[i], w) for i, w in terms], rows[0]), (n,))
        assert _same_bits(got, floats) and _same_bits(got, frozen)

    @pytest.mark.parametrize("spec", [([[1]], [1.0]), ([[1, 0], [0, 1], [1, 1]], [1.0, 1.0, 0.3]),
                                      GENERAL_TERM], ids=["standard", "froeschle2", "general"])
    def test_s_and_s_phiphi_equal_frozen_rows(self, spec, rng):
        term = TrigTerm(*map(np.array, spec))
        for shape in [(), (7,), (4, 3)]:
            phi = rng.uniform(-2.0, 2.0, shape + (term.d,))
            for got, want in ((term.s(None, phi), s_rows(*spec, phi)),
                              (term.s_phiphi(None, phi), s_phiphi_rows(*spec, phi))):
                got, want = np.asarray(got), np.asarray(want)
                assert got.shape == want.shape and _same_bits(got, want)

    @pytest.mark.parametrize("modes, coeffs", [([[1.5]], [1.0]), ([[0, 0]], [1.0]),
                                               ([[1], [2]], [1.0]), ([[1]], [np.nan]),
                                               (np.zeros((0, 0)), [])])
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

    # twist and shear differentiate the generating system too, the shear
    # (s depends on the action) through the step's Picard solve
    @pytest.mark.parametrize("m", [catalog("froeschle2", 0.15, eta=0.4),
                                   catalog("twist", 0.3, d=2), nonexact_shear(0.05)],
                             ids=["fro", "twist", "shear"])
    def test_analytic_jacobian_matches_fd(self, m, rng):
        n = 2 * m.d
        for _ in range(10):
            x = np.concatenate([rng.uniform(-0.5, 0.5, m.d), rng.uniform(0, 1, m.d)])
            Ja = jacobian(m, x)
            h = 1e-6
            Jfd = np.empty((n, n))
            for j in range(n):
                e = np.zeros(n)
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

    @pytest.mark.parametrize("m, x", [(nonexact_shear(0.1), [0.2, 0.3]),
                                      (catalog("twist", 0.01, d=2), [0.2, -0.3, 0.4, 0.9])],
                             ids=["shear", "twist"])
    def test_inverse_undoes_apply(self, m, x):
        # every model is given by a generating function, so each has an inverse step
        x = np.array(x)
        assert np.max(np.abs(m.inverse(m.apply(x)) - x)) <= 1e-15

    def test_action_dependent_term_takes_the_solve(self, monkeypatch):
        """A term that depends on the new action: the solves iterate, the
        inverse undoes the step, the analytic Jacobian is the finite
        differences' and symplectic, and the map is exact."""
        s, s_I, s_phi, s_II, s_Iphi, s_phiphi = action_dependent_forms()
        m = replace(catalog("standard", 0.5), s=s, s_I=s_I, s_phi=s_phi, s_II=s_II,
                    s_Iphi=s_Iphi, s_phiphi=s_phiphi, s_action_independent=False)
        calls, picard = [], maps._picard  # calls of g per solve

        def counted(g, y0):
            calls.append(0)

            def g_counted(y):
                calls[-1] += 1
                return g(y)

            return picard(g_counted, y0)

        monkeypatch.setattr(maps, "_picard", counted)
        x = np.array([0.4, 0.3])
        back = m.inverse(m.apply(x))
        # one solve per step; a solve that stops at its first iterate calls g twice
        assert len(calls) == 2 and min(calls) > 2
        assert np.max(np.abs(back - x)) <= 1e-13
        Omega = symplectic_matrix(1)
        for x in (np.array([0.4, 0.3]), np.array([-0.6, 0.85])):
            J = jacobian(m, x)
            assert np.max(np.abs(J - _fd_jacobian(m.apply, x, 1e-6))) <= 1e-8
            assert np.max(np.abs(J.T @ Omega @ J - Omega)) <= 1e-12
        A0, A1 = loop_action(m, circle_loop(np.array([0.3])), quad_tol=1e-11)
        assert abs(A1 - A0) <= 10 * 1e-11


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

    @pytest.mark.parametrize("d", [2.5, 0.5])
    def test_non_integral_twist_dimension_rejected(self, d):
        with pytest.raises(ValueError, match="not an integer"):
            catalog("twist", 0.1, d=d)
        assert catalog("twist", 0.1, d=2.0).d == 2

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
