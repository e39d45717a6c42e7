"""Nucleus pendulum model: averaged potential, radii, trapped orbits."""

import math
from dataclasses import replace

import numpy as np
import pytest

from mapflow import (
    ResonanceSite,
    maps,
    build_nucleus,
    catalog,
    is_resonant_mode,
    nucleus_energy,
    nucleus_radii,
    resonant_average,
    resonant_fourier_check,
    trapped_orbit,
)
from mapflow.errors import DomainEscape, FormMismatch

TWO_PI = 2 * math.pi


def std_site():
    return ResonanceSite(n=1, omega_star=[0.0], I_star=[0.0], rho_n=0.2)


def fro_site_n2():
    return ResonanceSite(n=2, omega_star=[0.5, 0.0], I_star=[0.5, 0.0], rho_n=0.1)


class TestResonantAverage:
    def test_n1_is_plain_s(self, rng):
        m = catalog("standard", 1e-3)
        site = std_site()
        for _ in range(10):
            phi = rng.uniform(0, 1, (1,))
            want = -np.cos(TWO_PI * phi[0]) / TWO_PI**2
            assert resonant_average(m, site, phi) == pytest.approx(want, abs=1e-15)

    def test_explicit_form_rejected(self):
        m = catalog("twist", 0.0)
        with pytest.raises(FormMismatch):
            resonant_average(m, std_site(), np.array([0.1]))

    def test_froeschle_two_term_average(self, rng):
        # shifting phi_1 by 1/2 kills the cos(2 pi phi_1) and coupling terms
        m = catalog("froeschle2", 1e-3, eta=0.3)
        site = fro_site_n2()
        for _ in range(10):
            phi = rng.uniform(0, 1, 2)
            got = resonant_average(m, site, phi)
            want = -np.cos(TWO_PI * phi[1]) / TWO_PI**2
            assert got == pytest.approx(want, abs=1e-14)

    def test_translation_invariance(self, rng):
        m = catalog("froeschle2", 1e-3, eta=0.3)
        site = fro_site_n2()
        phi = rng.uniform(0, 1, (1000, 2))
        a = resonant_average(m, site, phi)
        b = resonant_average(m, site, phi + site.omega_star)
        assert np.max(np.abs(a - b)) <= 1e-10

    def test_bounded_by_s_norm(self, rng):
        m = catalog("froeschle2", 1e-3, eta=0.3)
        site = fro_site_n2()
        phi = rng.uniform(0, 1, (500, 2))
        assert np.max(np.abs(resonant_average(m, site, phi))) <= m.domain.norm_s + 1e-14


class TestRadii:
    def test_standard_values(self):
        m = catalog("standard", 1e-4)
        r = nucleus_radii(m)
        assert r.r0_hat == pytest.approx(1.0 / (math.pi * math.sqrt(2)), abs=1e-12)
        assert r.r1 == pytest.approx(math.sqrt(10.0 / TWO_PI**2), abs=1e-12)
        assert r.R_star == pytest.approx(math.sqrt(11.0 / TWO_PI**2), abs=1e-12)

    def test_ordering_and_ratio(self):
        for name, kw in (("standard", {}), ("froeschle2", {"eta": 0.3})):
            m = catalog(name, 1e-4, **kw)
            r = nucleus_radii(m)
            assert r.r0_hat < r.r1 < r.R_star
            want = math.sqrt(5.0 * m.domain.nu2 / m.domain.nu)
            assert r.r1 / r.r0_hat == pytest.approx(want, rel=1e-12)
            assert r.r1 / r.r0_hat >= math.sqrt(5.0) - 1e-12


class TestEnergy:
    def test_pendulum_form(self):
        m = catalog("standard", 1e-4)
        nm = build_nucleus(m, std_site())
        J, phi = np.array([0.3]), np.array([0.2])
        want = 0.3**2 / 2 - np.cos(TWO_PI * 0.2) / TWO_PI**2
        assert nucleus_energy(nm, np.concatenate([J, phi])) == pytest.approx(want, abs=1e-14)

    def test_minimum_at_well_bottom(self):
        m = catalog("standard", 1e-4)
        nm = build_nucleus(m, std_site())
        e0 = nucleus_energy(nm, np.zeros(2))
        for J in (0.1, -0.2):
            for phi in (0.1, 0.4, 0.77):
                assert nucleus_energy(nm, np.array([J, phi])) > e0

    def test_level_set_inside_r1(self):
        # {E <= 2|s|} sits inside {|J|_2 <= r1}
        m = catalog("standard", 1e-4)
        nm = build_nucleus(m, std_site())
        r = nucleus_radii(m)
        Js = np.linspace(-1.2 * r.r1, 1.2 * r.r1, 61)
        phis = np.linspace(0, 1, 41, endpoint=False)
        JJ, PP = np.meshgrid(Js, phis, indexing="ij")
        E = 0.5 * JJ**2 - np.cos(TWO_PI * PP) / TWO_PI**2
        inside = E <= 2 * m.domain.norm_s
        assert np.all(np.abs(JJ[inside]) <= r.r1 + 1e-12)


class TestTrappedOrbit:
    def test_integrable_never_exits(self):
        # at eps = 0 the scaled block degenerates to the identity
        m = catalog("standard", 0.0)
        site = std_site()
        rec = trapped_orbit(m, site, np.array([0.1, 0.2]), 10)
        assert not rec.escaped
        assert rec.max_step_dE == 0.0
        want = 0.1**2 / 2 - np.cos(TWO_PI * 0.2) / TWO_PI**2
        assert np.allclose(rec.energy, want)

    def test_standard_no_exit_and_slow_energy(self):
        m = catalog("standard", 1e-4)
        rec = trapped_orbit(m, std_site(), np.array([0.1, 0.2]), 2000)
        assert not rec.escaped
        assert rec.max_abs_J <= nucleus_radii(m).r1
        # centered-phase sampling keeps the per-step drift at the eps^{3/2} scale
        assert rec.max_step_dE <= 50.0 * (1e-4) ** 1.5

    def test_drift_exponent_sweep(self):
        vals = []
        grid = [1e-3, 4e-4, 1.6e-4, 6.4e-5]
        for eps in grid:
            m = catalog("standard", eps)
            rec = trapped_orbit(m, std_site(), np.array([0.1, 0.2]), 4000)
            vals.append(rec.max_step_dE)
        slope = np.polyfit(np.log(grid), np.log(vals), 1)[0]
        assert slope >= 1.4

    def test_froeschle_no_exit(self):
        m = catalog("froeschle2", 1e-4, eta=0.3)
        site = ResonanceSite(n=1, omega_star=[0.0, 0.0], I_star=[0.0, 0.0], rho_n=0.2)
        rec = trapped_orbit(m, site, np.array([0.1, 0.05, 0.2, 0.7]), 5000)
        assert not rec.escaped

    def test_energy_excursion_bounded(self):
        m = catalog("standard", 1e-4)
        rec = trapped_orbit(m, std_site(), np.array([0.1, 0.2]), 5000)
        # bounded oscillation, linear-in-k worst case
        assert np.max(np.abs(rec.energy - rec.energy[0])) <= rec.max_step_dE * len(rec.energy)


def per_block_exit(model, site, J0, phi0, budget):
    """Exit index of a trapped orbit stepped block by block, guarded per step."""
    r1 = nucleus_radii(model).r1
    rho = math.sqrt(model.eps)
    J, phi = np.asarray(J0, dtype=float), np.asarray(phi0, dtype=float)
    d = model.d
    for k in range(budget):
        x = np.concatenate([site.I_star + rho * J, phi])
        for _ in range(site.n):
            x = model.apply(x)
        I, ph = x[:d], x[d:]
        J, phi = (I - site.I_star) / rho, ph - site.n * site.omega_star
        if J @ J > r1 * r1:
            return k + 1
    return None


# (model, site, J0, phi0, budget): a trapped orbit and two that leave the r1 ball
WINDOW_CASES = [
    (catalog("standard", 1e-4), std_site(), [0.1], [0.2], 300),
    (catalog("standard", 1e-4), std_site(), [0.4], [0.5], 300),
    (catalog("froeschle2", 1e-4, eta=0.3), fro_site_n2(), [0.7, 0.0], [0.5, 0.5], 700),
]


class TestTrappedOrbitWindows:
    @pytest.mark.parametrize("window", [1, 7, maps.WINDOW])
    def test_window_invariance(self, window, monkeypatch):
        want = [trapped_orbit(m, site, np.array(J0 + p0), b)
                for m, site, J0, p0, b in WINDOW_CASES]
        monkeypatch.setattr(maps, "WINDOW", window)
        for case, ref in zip(WINDOW_CASES, want):
            m, site, J0, p0, b = case
            rec = trapped_orbit(m, site, np.array(J0 + p0), b)
            assert rec.exit_index == ref.exit_index
            for f in ("x", "energy"):
                assert np.array_equal(getattr(rec, f), getattr(ref, f))
            assert (rec.max_step_dE, rec.max_abs_J) == (ref.max_step_dE, ref.max_abs_J)

    def test_exit_index_matches_per_block_loop(self):
        exits = []
        for m, site, J0, p0, b in WINDOW_CASES:
            rec = trapped_orbit(m, site, np.array(J0 + p0), b)
            assert rec.exit_index == per_block_exit(m, site, J0, p0, b)
            assert rec.x.shape[0] == (b if rec.exit_index is None else rec.exit_index) + 1
            exits.append(rec.exit_index)
        assert exits[0] is None and exits[1] > 1 and exits[2] > 1

    def test_exit_wins_over_later_escape_in_window(self):
        # the action drifts by eps per step: J crosses r1 in block 6 and the
        # orbit leaves the action domain near block 150, inside the same window
        m = replace(catalog("standard", 0.01), s_phi=lambda I, p: -np.ones_like(I))
        rec = trapped_orbit(m, std_site(), np.array([0.0, 0.2]), 1000)
        assert rec.exit_index == 6

    def test_escape_before_exit_raises(self):
        m = replace(catalog("standard", 0.01), s_phi=lambda I, p: -np.ones_like(I))
        # 100 steps per block from I = 1.49: the first block leaves the domain
        site = ResonanceSite(n=100, omega_star=[1.49], I_star=[1.49], rho_n=0.1)
        with pytest.raises(DomainEscape):
            trapped_orbit(m, site, np.array([0.0, 0.2]), 10)


class TestFourier:
    def test_standard_mode_one(self):
        # V_* = -cos(2 pi phi)/(4 pi^2): coefficient at j = +-1 is -1/(8 pi^2)
        m = catalog("standard", 1e-4)
        nm = build_nucleus(m, std_site())
        for j in (1, -1):
            mag = resonant_fourier_check(nm, np.array([j]), 64)
            assert mag == pytest.approx(1.0 / (8 * math.pi**2), abs=1e-12)

    def test_nonresonant_modes_vanish(self):
        m = catalog("froeschle2", 1e-3, eta=0.3)
        site = fro_site_n2()
        nm = build_nucleus(m, site)
        # j . omega_* = 1/2 not integer
        for j in ([1, 0], [1, 1], [3, 0]):
            assert not is_resonant_mode(np.array(j), site.omega_star)
            mag = resonant_fourier_check(nm, np.array(j), 32)
            assert mag <= 1e-10 * m.domain.norm_s

    def test_resonant_mode_survives(self):
        m = catalog("froeschle2", 1e-3, eta=0.3)
        site = fro_site_n2()
        nm = build_nucleus(m, site)
        assert is_resonant_mode(np.array([0, 1]), site.omega_star)
        mag = resonant_fourier_check(nm, np.array([0, 1]), 32)
        assert mag == pytest.approx(1.0 / (8 * math.pi**2), abs=1e-12)

    def test_rejects_zero_mode(self):
        m = catalog("standard", 1e-4)
        nm = build_nucleus(m, std_site())
        with pytest.raises(ValueError):
            resonant_fourier_check(nm, np.array([0]), 16)
