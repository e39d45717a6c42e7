"""Experiment layer: a-priori margins, S_n split, drifts, scans, fits."""

import copy
import dataclasses
from dataclasses import replace
import math

import numpy as np
import pytest

from mapflow import (
    ResonanceSite,
    apriori_check,
    catalog,
    circle_loop,
    energy_drift,
    error_law_fit,
    fit_log_law,
    pilot_confinement,
    scaled_block,
    sn_decomposition,
    stability_scan,
    unit_box,
)
from mapflow import experiments, hamiltonian, maps, nonexact_shear, nucleus, resonance
from mapflow.experiments import SnDecomposition
from oracles import TWO_PI, per_seed, scan_per_state


def std_site(gamma=2.0, eps=1e-4, n=1):
    rho = gamma * eps ** 0.25 / n
    return ResonanceSite(n=n, omega_star=[0.0], I_star=[0.0], rho_n=rho)


def _scan_by_last_axis_formulas(model, I0, phi0, horizon, radius):
    """Scan statistics by reductions over the action axis, on one orbit.

    Per seed: its escape is the first of states 0 .. horizon-1 outside the
    domain (dist by np.add.reduce), a step being taken from it, else the
    last state when it is not finite; its statistics stop at that state.
    """
    xs, _ = maps.propagate(model, np.concatenate([I0, phi0], axis=-1), horizon)
    Is, ps = xs[..., : model.d], xs[..., model.d:]
    dom = model.domain
    x = Is - dom.center
    inside = np.maximum(np.sqrt(np.add.reduce(x * x, axis=-1)) - dom.R, 0.0) <= dom.sigma
    inside[horizon] = np.isfinite(Is[horizon]).all(axis=-1) & np.isfinite(ps[horizon]).all(axis=-1)
    dev = np.max(np.abs(Is[1:] - Is[0]), axis=-1)
    dstep = np.max(np.abs(np.diff(Is, axis=0)), axis=-1)
    out = []
    for c in range(Is.shape[1]):
        outside = np.flatnonzero(~inside[:, c])
        stop = int(outside[0]) if outside.size else horizon
        crossed = np.flatnonzero(dev[:stop, c] > radius)
        out.append((float(max(0.0, dev[:stop, c].max(initial=-np.inf))),
                    int(crossed[0]) + 1 if crossed.size else None,
                    float(max(0.0, dstep[:stop, c].max(initial=-np.inf))),
                    f"domain_escape@{stop}" if outside.size else "ok"))
    return out


class TestApriori:
    def test_integrable_zero(self):
        m = catalog("standard", 0.0)
        rep = apriori_check(m, np.array([0.3, 0.11]), 25)
        assert rep.action_dev == 0.0
        assert rep.angle_dev <= 1e-12
        assert rep.ok

    def test_standard_example(self):
        m = catalog("standard", 0.05)
        rep = apriori_check(m, np.array([0.3, 0.11]), 10)
        assert rep.action_bound == pytest.approx(10 * 0.05 / (2 * math.pi))
        assert rep.ok

    def test_random_orbits_hold(self, rng):
        for _ in range(100):
            name = rng.choice(["standard", "froeschle2"])
            kw = {} if name == "standard" else {"eta": 0.3}
            m = catalog(name, float(rng.uniform(1e-4, 0.05)), **kw)
            x = np.concatenate([rng.uniform(-0.3, 0.3, m.d), rng.uniform(0, 1, m.d)])
            rep = apriori_check(m, x, int(rng.integers(1, 100)))
            assert rep.ok


class TestSnDecomposition:
    def test_wn_zero_at_integrable(self):
        m = catalog("standard", 0.0)
        site = ResonanceSite(n=1, omega_star=[0.0], I_star=[0.0], rho_n=0.1)
        dec, rep = sn_decomposition(m, site, grid_n=3)
        assert rep.sup_w <= 1e-12

    def test_hn_convexity_sandwich(self):
        m = catalog("standard", 1e-4)
        site = std_site()
        dec = SnDecomposition(block=scaled_block(m, site, "lochak"))
        n, rho = site.n, site.rho_n
        for J in np.linspace(-1, 1, 21):
            h = dec.h_n(np.array([J]))
            lo = 0.5 * m.domain.nu * n * rho * J * J
            hi = 0.5 * m.domain.nu2 * n * rho * J * J
            assert lo - 1e-14 <= h <= hi + 1e-14

    def test_wn_bound_on_block(self):
        m = catalog("standard", 1e-4)
        site = std_site()
        dec, rep = sn_decomposition(m, site, scaling="lochak", grid_n=3)
        assert rep.ok

    def test_sn_matches_reconstructed_h1(self):
        # S_n from (u, v) path integrals equals the order-1 interpolating
        # Hamiltonian reconstruction up to O(eps_hat^2)
        from mapflow import interpolating_field, reconstruct_hamiltonian

        m = catalog("standard", 1e-4)
        site = std_site()
        blk = scaled_block(m, site, "nucleus")
        dec = SnDecomposition(block=blk, quad_tol=1e-12)
        X1 = interpolating_field(blk, 1)
        H1 = reconstruct_hamiltonian(X1, np.zeros(2), quad_tol=1e-12)
        for x in (np.array([0.3, 0.2]), np.array([-0.5, 0.7])):
            sn = dec.S_n(x) - dec.S_n(np.zeros(2))
            h1 = H1.evaluate(x)
            assert abs(sn - h1) <= 5e-4  # eps_hat^2 scale at eps_hat ~ 1e-2

    def test_sn_batch_matches_points(self):
        # bit for bit: the block's batched Picard solve holds each row where
        # its own residual met the tolerance
        dec = SnDecomposition(block=scaled_block(catalog("standard", 1e-4), std_site(),
                                                 "nucleus"))
        xs = np.array([[0.3, 0.2], [-0.5, 0.7]])
        batch = dec.S_n(xs)
        assert batch.shape == (2,)
        for x, val in zip(xs, batch):
            one = dec.S_n(x)
            assert isinstance(one, float)
            assert one == val

    def test_wn_path_exit_outside_domain(self):
        # at Jbar = 10 the lochak block leaves the sigma-extended domain
        from mapflow.errors import PathExit

        m = catalog("standard", 1e-4)
        site = ResonanceSite(n=1, omega_star=[0.0], I_star=[0.0], rho_n=0.2)
        dec = SnDecomposition(block=scaled_block(m, site, "lochak"))
        with pytest.raises(PathExit):
            dec.w_n(np.array([10.0, 0.3]))


class TestEnergyDrift:
    def test_integrable_increments_vanish(self):
        m = catalog("standard", 0.0)
        site = ResonanceSite(n=1, omega_star=[0.0], I_star=[0.0], rho_n=0.1)
        rep = energy_drift(m, site, 2, 10, np.array([0.3, 0.2]), scaling="lochak",
                           quad_tol=1e-12)
        assert rep.max_increment <= 1e-11

    def test_telescoping_identity(self):
        m = catalog("standard", 1e-4)
        rep = energy_drift(m, std_site(), 2, 15, np.array([0.2, 0.13]))
        assert rep.identity_residual <= 1e-12
        assert abs(rep.total) <= rep.blocks * rep.max_increment + 1e-18

    def test_higher_order_drifts_less(self):
        m = catalog("standard", 1e-4)
        x0 = np.array([0.2, 0.13])
        r1 = energy_drift(m, std_site(), 1, 20, x0)
        r2 = energy_drift(m, std_site(), 2, 20, x0)
        assert r2.max_increment < 0.05 * r1.max_increment


class TestStabilityScan:
    def test_integrable_zero_excursion(self):
        m = catalog("standard", 0.0)
        recs = per_seed(stability_scan(m, np.array([[0.1, 0.0], [0.4, 0.3]]), 500))
        assert all(r.excursion == 0.0 for r in recs)
        assert all(r.exit_index is None for r in recs)

    def test_excursion_nondecreasing_in_horizon(self, rng):
        m = catalog("standard", 5e-3)
        I0 = rng.uniform(-0.5, 0.5, (8, 1))
        phi0 = rng.uniform(0, 1, (8, 1))
        e1 = stability_scan(m, np.hstack([I0, phi0]), 200).excursion
        e2 = stability_scan(m, np.hstack([I0, phi0]), 1000).excursion
        assert all(b >= a for a, b in zip(e1, e2))

    def test_exit_detection(self):
        from mapflow import nonexact_shear

        m = nonexact_shear(0.01)
        rec = stability_scan(m, np.array([[0.0, 0.2]]), 100,
                             confinement_radius=0.05)
        assert rec.exit_index[0] == 6  # excursion passes 0.05 on step 6

    def test_seed_isolation_on_domain_escape(self):
        from mapflow import nonexact_shear

        m = nonexact_shear(0.01)
        recs = per_seed(stability_scan(m, np.array([[1.45, 0.2], [0.0, 0.3]]), 100))
        assert recs[0].status.startswith("domain_escape")
        assert recs[1].status == "ok"
        assert recs[1].excursion == pytest.approx(100 * 0.01, abs=1e-12)

    def test_escape_at_last_step(self):
        # I_k = 1.455 + 0.01 k leaves |I| <= 1.5 at k = 5, the final state:
        # no step is taken from it and it is finite, so it is no escape
        m = nonexact_shear(0.01)
        rec = stability_scan(m, np.array([[1.455, 0.2], [0.0, 0.3]]), 5)
        assert [r.status for r in per_seed(rec)] == ["ok", "ok"]

    # states: windows of 1, 7 and 2048 steps at the 8 seeds (ids in steps), and the default
    @pytest.mark.parametrize("window", [1, pytest.param(7 * 8, id="7"), maps.WINDOW,
                                        pytest.param(2048 * 8, id="2048")])
    def test_window_invariance(self, window, rng, monkeypatch):
        I0 = np.vstack([rng.uniform(-0.5, 0.5, (6, 1)), [[1.455]], [[1.305]]])
        phi0 = rng.uniform(0, 1, (8, 1))
        cases = [(catalog("standard", 5e-3), 300, 0.01), (nonexact_shear(0.01), 300, 0.05),
                 (nonexact_shear(0.01), 20, 0.05)]

        want = [per_seed(stability_scan(m, np.hstack([I0, phi0]), h, r)) for m, h, r in cases]
        monkeypatch.setattr(maps, "WINDOW", window)
        assert [per_seed(stability_scan(m, np.hstack([I0, phi0]), h, r))
                for m, h, r in cases] == want
        assert want[1][6][3] == "domain_escape@5" and want[1][7][3] == "domain_escape@20"

    # states: windows of 1, 7 and 2048 steps at the 6 seeds (ids in steps), and the default
    @pytest.mark.parametrize("window", [1, pytest.param(7 * 6, id="7"), maps.WINDOW,
                                        pytest.param(2048 * 6, id="2048")])
    def test_d2_statistics_match_last_axis_formulas(self, window, monkeypatch):
        # froeschle2 at d = 2: seed 1 leaves the domain at step 5, seed 3
        # crosses the radius at step 13; neither is on a window boundary;
        # seed 5 is inside up to state 59 and outside at its last, 60
        m = catalog("froeschle2", 0.05, eta=0.3)
        I0 = np.array([[0.2, -0.3], [1.0, 1.05], [-0.4, 0.1], [0.0, 0.6], [-1.4, 0.3],
                       [1.08, 0.97]])
        phi0 = np.array([[0.22, 0.16], [0.87, 0.66], [0.04, 0.51], [0.47, 0.92],
                         [0.63, 0.51], [0.73, 0.31]])
        horizon, radius = 60, 0.05
        want = _scan_by_last_axis_formulas(m, I0, phi0, horizon, radius)
        assert want[1][3] == "domain_escape@5" and want[3][1] == 13
        last = maps.propagate(m, np.concatenate([I0[5], phi0[5]]), horizon)[0][horizon]
        assert want[5][3] == "ok" and not m.domain.contains_extended(last[: m.d])
        monkeypatch.setattr(maps, "WINDOW", window)
        assert per_seed(stability_scan(m, np.hstack([I0, phi0]), horizon, radius)) == want

    @pytest.mark.parametrize("window", [1, 7, None], ids=["1", "7n", "default"])
    def test_statistics_match_the_per_state_oracle(self, window, rng, monkeypatch):
        """Statistics from per-seed extrema equal the frozen per-state ones bit
        for bit: mid-window escapes (shear seeds leave at steps 5 and 20), a
        NaN state mid-run and at the last step, and confinement crossings."""
        nan_past = replace(catalog("standard", 0.01),  # NaN from I_17 = 0.26 on
                           s_phi=lambda I, p: np.where(I > 0.255, np.nan, -1.0))
        shear_x0 = np.array([[1.455, 0.2], [1.305, 0.3], [0.0, 0.4], [-0.2, 0.5]])
        fro_x0 = np.concatenate([rng.uniform(-0.8, 0.8, (9, 2)), rng.uniform(0, 1, (9, 2)),
                                 ], axis=1)
        fro_x0[0, :2] = [1.0, 1.05]  # leaves the domain at step 5
        cases = [(nonexact_shear(0.01), shear_x0, 300, 0.05),
                 (nonexact_shear(0.01), shear_x0, 20, None),
                 (nan_past, np.array([[0.1, 0.2], [0.2, 0.7], [0.0, 0.1]]), 17, 0.05),
                 (nan_past, np.array([[0.1, 0.2], [0.2, 0.7], [0.0, 0.1]]), 40, 0.05),
                 (catalog("froeschle2", 0.05, eta=0.3), fro_x0, 300, 0.04),
                 (catalog("standard", 5e-3), fro_x0[:, [0, 2]], 500, 0.01)]
        want = [scan_per_state(*case) for case in cases]
        statuses = {r[3] for w in want for r in w}
        # the NaN state 17 is the last state at horizon 17 and a step source at 40
        assert {"domain_escape@5", "domain_escape@20", "domain_escape@17",
                "domain_escape@27"} <= statuses
        assert sum(r[1] is not None for w in want for r in w) >= 6
        for (m, x0, h, r), ref in zip(cases, want):
            monkeypatch.setattr(maps, "WINDOW", maps.WINDOW if window is None
                                else window * len(x0))
            assert per_seed(stability_scan(m, x0, h, r)) == ref

    @pytest.mark.parametrize("case", ["pilot_shorter", "pilot_longer", "rescan", "steep",
                                      "twist", "no_pilot", "no_scan"])
    def test_calibrated_scan_is_pilot_then_scan(self, case, rng, monkeypatch):
        """The pilot riding in the scan's batch gives the records, calibration
        and radius of `pilot_confinement` followed by `stability_scan` at
        RADIUS_FACTOR times its radius, bit for bit; seeds over the radius
        before the pilot's last step take their exit from a re-scan."""
        m, horizon, pilot_horizon = catalog("froeschle2", 1e-3, eta=0.3), 400, 250
        x0 = np.concatenate([rng.uniform(-0.6, 0.6, (12, 2)), rng.uniform(0, 1, (12, 2))], 1)
        if case == "pilot_longer":
            pilot_horizon = 600
        if case == "rescan":  # a tenth of the radius: seeds cross it early
            monkeypatch.setattr(experiments, "RADIUS_FACTOR", 0.2)
        if case == "steep":  # kicks grow with |I|: the resonance at I = 1 has a
            # wider island than the pilot's at I = 0, and its seeds cross early
            m = replace(catalog("standard", 1e-3),
                        s_phi=lambda I, p: np.sin(TWO_PI * p) / TWO_PI * (1.0 + 30.0 * I * I))
            x0 = x0[:, [0, 2]]
            x0[:3, 0] = [1.0, 1.01, 0.99]
        if case == "twist":
            m, x0 = catalog("twist", 0.0, d=2), x0
        if case == "no_pilot":  # a run of zero steps keeps its seeds
            pilot_horizon = 0
        if case == "no_scan":
            horizon = 0
        rec, cal, radius = experiments.calibrated_scan(m, x0, horizon, pilot_horizon)
        want_cal = pilot_confinement(m, horizon=pilot_horizon)
        want_radius = (experiments.RADIUS_FACTOR * want_cal.radius(m.eps)
                       if want_cal.c1 > 0 else None)
        want = stability_scan(m, x0, horizon, want_radius)
        assert (cal, radius) == (want_cal, want_radius)
        recs = per_seed(rec)
        assert recs == per_seed(want)
        assert rec.horizon == want.horizon and np.array_equal(rec.x0, want.x0)
        assert rec.exit_index.dtype == rec.escape_index.dtype == np.int64
        exits = [r.exit_index for r in recs if r.exit_index is not None]
        early = sum(e <= min(horizon, pilot_horizon) for e in exits)
        if case in ("rescan", "steep"):
            assert early >= 1
        if case == "twist":
            assert radius is None and cal.c1 == 0.0 and not exits
        if case == "no_pilot":
            assert cal.c1 == 0.0 and all(r.excursion > 0 for r in recs)
        if case == "no_scan":
            assert cal.c1 > 0 and all(r.excursion == 0 for r in recs)

    def test_pilot_calibration_scales(self):
        m = catalog("standard", 1e-3)
        cal = pilot_confinement(m, horizon=20000)
        assert cal.c1 > 0
        assert cal.pilot_excursion == pytest.approx(0.018, abs=0.004)

    def test_pilot_zero_for_twist(self):
        cal = pilot_confinement(catalog("twist", 0.0))
        assert cal.c1 == 0.0


class TestFits:
    def test_floor_exclusion(self):
        x = np.array([1.0, 2.0, 3.0, 4.0])
        vals = np.array([1e-2, 1e-4, 1e-6, 1e-16])
        rep = fit_log_law(x, vals, "vs_m", floor=1e-15)
        assert rep.n_excluded == 1 and not rep.degenerate
        assert rep.slope == pytest.approx(np.log(1e-2), rel=1e-6)

    def test_degenerate_reported(self):
        rep = fit_log_law(np.array([1.0, 2.0]), np.array([1e-16, 1e-17]), "vs_m")
        assert rep.degenerate

    def test_vs_m_on_twist_degenerate(self):
        m = catalog("twist", 0.0)
        box = unit_box(1, 0.3)
        rep = error_law_fit(m, box, "vs_m", m_list=[1, 2, 3], grid_n=3, tol=1e-12)
        assert rep.degenerate
        assert rep.n_excluded == 3

    def test_vs_eps_negative_slope(self):
        blocks = []
        for eps in (4e-4, 1e-4):
            m = catalog("standard", eps)
            blocks.append(scaled_block(m, std_site(eps=eps), "nucleus"))
        rep = error_law_fit(blocks, unit_box(1), "vs_eps", grid_n=3, tol=1e-12)
        assert not rep.degenerate
        assert rep.slope < 0


#: every dataclass of the package with array fields, by module
ARRAY_DATACLASSES = {
    maps: ["DomainSpec", "MapModel", "TrigTerm"],
    hamiltonian: ["Box", "EmbeddingReport", "HamiltonianField", "Loop"],
    experiments: ["WnReport", "DriftReport", "StabilityRecord", "FitReport"],
    nucleus: ["NucleusModel", "TrappedOrbitRecord"],
    resonance: ["ResonanceSite"],
}


#: a copy of a `TrigTerm` rebuilds the term from its modes and coefficients,
#: so its fields must form a term: one mode at d = 2
TERM_FIELDS = {(maps.TrigTerm, "modes"): np.array([[1, -1]]),
               (maps.TrigTerm, "coeffs"): np.array([0.2])}


def test_array_dataclasses_compare_by_identity():
    """`==`, `hash` and `in` never raise on a dataclass holding arrays at d = 2:
    equality is identity, as a generated `__eq__` over arrays cannot decide."""
    fro = catalog("froeschle2", 0.01, eta=0.3)
    objs = [fro, fro.domain, fro.s_phi.__self__, unit_box(1), unit_box(2),
            circle_loop([0.2, -0.1]),
            ResonanceSite(n=2, omega_star=[0.5, 0.0], I_star=[0.5, 0.0], rho_n=0.1)]
    for module, names in ARRAY_DATACLASSES.items():
        for cls in (getattr(module, name) for name in names):
            obj = object.__new__(cls)  # every field a (2,) array, but see TERM_FIELDS
            for f in dataclasses.fields(cls):
                object.__setattr__(obj, f.name, TERM_FIELDS.get((cls, f.name),
                                                                np.array([0.2, -0.1])))
            objs.append(obj)
    for a in objs:
        b = copy.copy(a)
        assert a == a and a != b and a in [b, a] and b not in [a]
        assert len({a, b, a}) == 2
