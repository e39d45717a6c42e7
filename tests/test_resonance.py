"""Dirichlet search, frequency inversion, covering scales, scaled blocks."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mapflow import (
    ResonanceSite,
    apriori_check,
    catalog,
    covering_params,
    dirichlet,
    locate_site,
    nonexact_shear,
    resonant_action,
    scaled_block,
    trapped_orbit,
)
from mapflow import maps
from mapflow.errors import DomainEscape, NotResonant, OutOfDomain
from mapflow.interp import VERIFY_TOL, as_map
from mapflow.maps import DomainSpec, MapModel, propagate

from oracles import CUBIC_FREQ_ROOT, bisect


class TestDirichlet:
    def test_integer_vector(self):
        n, ws = dirichlet(np.array([2.0, -3.0]), 10)
        assert n == 1 and np.allclose(ws, [2.0, -3.0])

    def test_golden_mean(self):
        n, ws = dirichlet(np.array([(math.sqrt(5) - 1) / 2]), 5)
        assert n == 3
        assert ws[0] == pytest.approx(2.0 / 3.0, abs=1e-15)
        err = abs((math.sqrt(5) - 1) / 2 - 2.0 / 3.0)
        assert err < 1.0 / (3 * 5.0)

    def test_exact_2d_resonance(self):
        n, ws = dirichlet(np.array([0.5, 1.0 / 3.0]), 10)
        assert n == 6 and np.allclose(ws, [0.5, 1.0 / 3.0], atol=1e-15)

    def test_budget_guard(self):
        with pytest.raises(ValueError):
            dirichlet(np.array([0.3]), 2e6)

    @given(st.integers(0, 2**32 - 1), st.integers(1, 3))
    @settings(max_examples=60, deadline=None)
    def test_certificate_always_holds(self, seed, d):
        rng = np.random.default_rng(seed)
        omega = rng.uniform(-2, 2, d)
        N = float(rng.uniform(2, 50))
        n, ws = dirichlet(omega, N)
        assert 1 <= n < N
        assert np.max(np.abs(n * ws - np.round(n * ws))) <= 1e-9
        # independent recomputation of the certificate
        assert np.max(np.abs(omega - ws)) < 1.0 / (n * N ** (1.0 / d)) + 1e-12

    def test_returns_smallest_qualifying_n(self):
        omega = np.array([(math.sqrt(5) - 1) / 2])
        N = 5.0
        n, _ = dirichlet(omega, N)
        for k in range(1, n):
            ws = np.round(k * omega) / k
            assert np.max(np.abs(omega - ws)) >= 1.0 / (k * N) - 1e-15


class TestResonantAction:
    def test_identity_frequency_map(self, standard_map):
        I = resonant_action(standard_map, np.array([0.5]), np.array([0.3]))
        assert I[0] == pytest.approx(0.5, abs=1e-13)

    def test_cubic_frequency_map(self):
        # h0 = I^2/2 + I^4/12 so omega = I + I^3/3
        d = 1
        dom = DomainSpec(center=np.zeros(1), R=1.0, sigma=0.5, r=1.0, nu=1.0, nu2=2.0,
                         norm_omega_prime=2.0, norm_h0pp=2.0)
        m = MapModel(d=d, form="explicit", eps=0.0,
                     h0=lambda I: 0.5 * I[..., 0] ** 2 + I[..., 0] ** 4 / 12.0,
                     omega=lambda I: I + I**3 / 3.0,
                     hess=lambda I: (1.0 + I[..., 0] ** 2)[..., None, None],
                     domain=dom)
        I = resonant_action(m, np.array([0.5]), np.array([0.2]))
        assert I[0] == pytest.approx(CUBIC_FREQ_ROOT, abs=1e-12)
        root = bisect(lambda t: t + t**3 / 3 - 0.5, 0.0, 1.0)
        assert I[0] == pytest.approx(root, abs=1e-12)

    def test_residual_postcondition(self, froeschle_map, rng):
        for _ in range(20):
            target = rng.uniform(-0.5, 0.5, 2)
            I = resonant_action(froeschle_map, target, rng.uniform(-0.5, 0.5, 2))
            assert np.max(np.abs(froeschle_map.omega(I) - target)) <= 1e-12

    def test_guess_outside_ball(self, standard_map):
        with pytest.raises(OutOfDomain):
            resonant_action(standard_map, np.array([0.1]), np.array([1.7]))


class TestCoveringParams:
    def test_d1_arithmetic(self, standard_map):
        cp = covering_params(standard_map, 1e-4, 2.0)
        assert cp.N_eps == pytest.approx(10.0)
        assert cp.rho_eps == pytest.approx(0.2)
        assert cp.rho_n(2) == pytest.approx(0.1)

    def test_standard_thresholds(self, standard_map):
        cp = covering_params(standard_map, 1e-4, 2.0)
        assert cp.gamma0 == pytest.approx(math.sqrt(18.0 / (2 * math.pi)), abs=1e-12)
        assert cp.gamma0 == pytest.approx(1.6926, abs=1e-4)
        assert cp.r0 == pytest.approx(math.sqrt(1.0 / 6.0), abs=1e-12)
        assert not cp.gamma_below_threshold
        assert covering_params(standard_map, 1e-4, 1.0).gamma_below_threshold

    def test_covering_property(self, rng):
        # Lemma-style check: |I0 - I*| < sqrt(d) / (nu n N^{1/d})
        m = catalog("standard", 1e-4)
        cp = covering_params(m, 1e-4, 2.0)
        for _ in range(100):
            I0 = rng.uniform(-0.9, 0.9, 1)
            site = locate_site(m, I0, gamma=2.0)
            bound = math.sqrt(1) / (m.domain.nu * site.n * cp.N_eps ** (1.0 / m.d))
            assert np.max(np.abs(I0 - site.I_star)) < bound


class TestSite:
    def test_integrality_enforced(self):
        with pytest.raises(NotResonant):
            ResonanceSite(n=2, omega_star=[0.26], I_star=[0.26], rho_n=0.1)

    def test_site_frequency_residual(self, standard_map):
        site = locate_site(standard_map, np.array([0.52]), gamma=2.0, N=10)
        assert np.max(np.abs(standard_map.omega(site.I_star) - site.omega_star)) <= 1e-10


class TestScaledBlock:
    def test_integrable_center_is_identity(self):
        m = catalog("standard", 0.0)
        site = ResonanceSite(n=2, omega_star=[0.5], I_star=[0.5], rho_n=0.05)
        blk = scaled_block(m, site, scaling="lochak")
        x = np.array([0.0, 0.37])
        assert np.allclose(blk.apply(x), x, atol=1e-14)

    def test_integrable_offset_twist(self):
        m = catalog("standard", 0.0)
        site = ResonanceSite(n=2, omega_star=[0.5], I_star=[0.5], rho_n=0.05)
        blk = scaled_block(m, site, scaling="lochak")
        J = 0.8
        x = np.array([J, 0.1])
        out = blk.apply(x)
        drift = 2 * (0.5 + 0.05 * J - 0.5)  # n (omega(I* + rho J) - omega*)
        assert out[0] == pytest.approx(J, abs=1e-14)
        assert out[1] == pytest.approx(0.1 + drift, abs=1e-13)

    def test_j_constant_at_eps_zero(self, rng):
        m = catalog("froeschle2", 0.0, eta=0.3)
        site = ResonanceSite(n=3, omega_star=[1.0 / 3.0, 2.0 / 3.0],
                             I_star=[1.0 / 3.0, 2.0 / 3.0], rho_n=0.04)
        blk = scaled_block(m, site, scaling="lochak")
        for _ in range(10):
            x = np.concatenate([rng.uniform(-1, 1, 2), rng.uniform(0, 1, 2)])
            assert np.allclose(blk.apply(x)[:2], x[:2], atol=1e-13)

    def test_inverse_roundtrip(self):
        m = catalog("standard", 1e-3)
        site = ResonanceSite(n=1, omega_star=[0.0], I_star=[0.0], rho_n=0.2)
        blk = scaled_block(m, site, scaling="nucleus")
        x = np.array([0.4, 0.23])
        assert np.allclose(blk.inverse(blk.apply(x)), x, atol=1e-12)

    @staticmethod
    def _n3_block():
        m = catalog("standard", 1e-3)
        site = ResonanceSite(n=3, omega_star=[1.0 / 3.0], I_star=[1.0 / 3.0], rho_n=0.05)
        return scaled_block(m, site, scaling="lochak")

    def test_apply_is_n_model_steps_bitwise(self):
        blk = self._n3_block()
        m, site = blk.model, blk.site
        x = np.array([[0.4, 0.23], [-0.7, 0.9], [0.0, 0.5]])
        for y in (x, x[0]):  # a batch of points and one (2d,) point
            z = np.concatenate([site.I_star + blk.rho * y[..., :1], y[..., 1:]], axis=-1)
            for _ in range(3):
                z = m.apply(z)
            want = np.concatenate([(z[..., :1] - site.I_star) / blk.rho,
                                   z[..., 1:] - 3 * site.omega_star], axis=-1)
            assert np.array_equal(blk.apply(y), want)

    def test_inverse_is_n_model_inverse_steps_bitwise(self):
        blk = self._n3_block()
        m, site = blk.model, blk.site
        x = np.array([[0.4, 0.23], [-0.7, 0.9], [0.0, 0.5]])
        for y in (x, x[0]):
            z = np.concatenate([site.I_star + blk.rho * y[..., :1], y[..., 1:]], axis=-1)
            for _ in range(3):
                z = m.inverse(z)
            want = np.concatenate([(z[..., :1] - site.I_star) / blk.rho,
                                   z[..., 1:] + 3 * site.omega_star], axis=-1)
            assert np.array_equal(blk.inverse(y), want)

    def test_escaping_block_raises_from_apply(self):
        # the action grows by 0.3 per step: from I = 1.3 the second step starts
        # outside |I| <= 1.5, inside the first block of three steps
        m = nonexact_shear(0.3)
        site = ResonanceSite(n=3, omega_star=[0.0], I_star=[0.0], rho_n=0.1)
        blk = scaled_block(m, site, scaling="lochak")
        out = np.array([1.3 / blk.rho, 0.2])
        for x in (out, np.array([[0.0, 0.2], out])):
            with pytest.raises(DomainEscape):
                blk.apply(x)

    def test_negative_counts_raise(self):
        m = catalog("standard", 1e-3)
        site = ResonanceSite(n=1, omega_star=[0.0], I_star=[0.0], rho_n=0.2)
        blk = scaled_block(m, site, scaling="nucleus")
        x = np.array([0.4, 0.23])
        for run in (lambda: trapped_orbit(m, site, x, -1), lambda: apriori_check(m, x, -3),
                    lambda: trapped_orbit(catalog("standard", 0.0), site, x, -1),
                    lambda: as_map(lambda y: y + 0.1).orbit(np.array([0.1, 0.2]), -3)):
            with pytest.raises(ValueError, match="nonnegative"):
                run()

    @pytest.mark.parametrize("window", [1, 7, 2048])
    def test_negative_counts_step_backward(self, window, monkeypatch):
        monkeypatch.setattr(maps, "WINDOW", window)
        m = catalog("standard", 1e-3)
        nucleus = scaled_block(m, ResonanceSite(n=1, omega_star=[0.0], I_star=[0.0],
                                                rho_n=0.2), scaling="nucleus")
        for x in (np.array([0.4, 0.23]), np.array([[0.4, 0.23], [-0.7, 0.9]])):
            for k in (1, 3, 10):
                want = [x]
                for _ in range(k):
                    want.append(propagate(m, want[-1], -1)[0][1])
                assert np.array_equal(m.orbit(x, -k), np.array(want))
                for blk in (nucleus, self._n3_block()):
                    want = [x]
                    for _ in range(k):
                        want.append(blk.inverse(want[-1]))
                    want = np.array(want)
                    got = blk.orbit(x, -k)
                    scale = max(1.0, float(np.max(np.abs(want))))
                    assert got.shape == want.shape
                    assert np.max(np.abs(got - want)) <= VERIFY_TOL * scale
                    assert np.array_equal(np.concatenate(list(blk.windows(x, -k))), got[1:])

    def test_nucleus_vs_lochak_scale(self):
        m = catalog("standard", 1e-4)
        site = ResonanceSite(n=1, omega_star=[0.0], I_star=[0.0], rho_n=0.2)
        assert scaled_block(m, site, "lochak").rho == pytest.approx(0.2)
        assert scaled_block(m, site, "nucleus").rho == pytest.approx(1e-2)
