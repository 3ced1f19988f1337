"""Kepler utilities, radial profiles, and the tuner."""

import numpy as np
import pytest

from repro.analysis import radial_profile, velocity_dispersion
from repro.core.kepler import (
    binary_elements,
    elements_from_state,
    solve_kepler,
    state_from_elements,
)
from repro.models import plummer_model
from repro.perfmodel import best_configuration, crossover_table, tuning_ladder
from tests.conftest import make_two_body


class TestSolveKepler:
    def test_circular_orbit_identity(self):
        m = np.linspace(-3, 3, 11)
        e = np.zeros(11)
        np.testing.assert_allclose(solve_kepler(m, e), np.mod(m + np.pi, 2 * np.pi) - np.pi,
                                   atol=1e-14)

    def test_satisfies_keplers_equation(self):
        rng = np.random.default_rng(1)
        m = rng.uniform(-np.pi, np.pi, 200)
        e = rng.uniform(0.0, 0.95, 200)
        ecc = solve_kepler(m, e)
        np.testing.assert_allclose(ecc - e * np.sin(ecc), m, atol=1e-12)

    def test_high_eccentricity_converges(self):
        ecc = solve_kepler(np.array([0.01]), np.array([0.99]))
        assert np.isfinite(ecc).all()

    def test_rejects_unbound(self):
        with pytest.raises(ValueError):
            solve_kepler(np.array([0.1]), np.array([1.0]))


class TestElements:
    def test_roundtrip_elements_state(self):
        rng = np.random.default_rng(2)
        a = rng.uniform(0.5, 3.0, 20)
        e = rng.uniform(0.0, 0.8, 20)
        inc = rng.uniform(0.0, np.pi / 2, 20)
        omega = rng.uniform(0, 2 * np.pi, 20)
        capom = rng.uniform(0, 2 * np.pi, 20)
        manom = rng.uniform(0, 2 * np.pi, 20)
        pos, vel = state_from_elements(a, e, inc, omega, capom, manom, gm=1.0)
        for k in range(20):
            el = elements_from_state(pos[k], vel[k], gm=1.0)
            assert el.semi_major_axis == pytest.approx(a[k], rel=1e-10)
            assert el.eccentricity == pytest.approx(e[k], abs=1e-8)
            assert el.inclination == pytest.approx(inc[k], abs=1e-8)

    def test_circular_binary_elements(self, two_body):
        el = binary_elements(two_body, 0, 1)
        assert el.semi_major_axis == pytest.approx(1.0, rel=1e-12)
        assert el.eccentricity == pytest.approx(0.0, abs=1e-8)
        assert el.period == pytest.approx(2 * np.pi, rel=1e-12)

    def test_unbound_rejected(self):
        with pytest.raises(ValueError):
            elements_from_state(np.array([1.0, 0, 0]), np.array([10.0, 0, 0]), gm=1.0)

    def test_kepler_third_law(self):
        el1 = elements_from_state(
            np.array([1.0, 0, 0]), np.array([0.0, 1.0, 0.0]), gm=1.0
        )
        el4 = elements_from_state(
            np.array([4.0, 0, 0]), np.array([0.0, 0.5, 0.0]), gm=1.0
        )
        assert el4.period / el1.period == pytest.approx(8.0, rel=1e-10)


class TestRadialProfile:
    def test_density_falls_outward_for_plummer(self):
        s = plummer_model(4096, seed=10)
        prof = radial_profile(s, n_bins=12)
        dense = prof.density[prof.count > 50]
        # overall decline by orders of magnitude
        assert dense[0] > 30 * dense[-1]

    def test_counts_cover_most_particles(self):
        s = plummer_model(1024, seed=11)
        prof = radial_profile(s, n_bins=15)
        assert prof.count.sum() >= 0.98 * 1024

    def test_plummer_roughly_isotropic(self):
        s = plummer_model(4096, seed=12)
        prof = radial_profile(s, n_bins=8)
        good = prof.count > 200
        assert np.all(np.abs(prof.anisotropy[good]) < 0.35)

    def test_global_dispersion_heggie(self):
        # v_rms^2 = 1/2 in Heggie units -> sigma_1D = sqrt(1/6) ~ 0.408
        s = plummer_model(8192, seed=13)
        assert velocity_dispersion(s) == pytest.approx(np.sqrt(1.0 / 6.0), rel=0.05)

    def test_validation(self):
        s = plummer_model(64, seed=14)
        with pytest.raises(ValueError):
            radial_profile(s, n_bins=0)


class TestTuning:
    def test_small_n_prefers_small_machines(self):
        best = best_configuration(2_000)[0]
        assert "1 node" in best.label or "2 nodes" in best.label

    def test_large_n_prefers_full_machine(self):
        best = best_configuration(1_500_000)[0]
        assert "16 nodes" in best.label

    def test_capacity_limited_configs_skipped(self):
        # 2M fits only machines with enough j-memory; all standard ones
        # do, but the call must not raise
        choices = best_configuration(2_000_000)
        assert choices

    def test_crossover_table_monotone(self):
        rows = dict(crossover_table())
        x21 = rows["2 nodes > 1 node"]
        x_cluster = rows["8 nodes (2 clusters) > 4 nodes (1 cluster)"]
        assert x21 is not None and x_cluster is not None
        assert x_cluster > 10 * x21  # multi-cluster crossover is far higher

    def test_tuning_ladder_improves_monotonically_to_the_paper_system(self):
        ladder = tuning_ladder(1_800_000)
        speeds = [tf for _, tf in ladder[:4]]  # through the paper's tuned rung
        assert all(a < b for a, b in zip(speeds, speeds[1:]))
        # the paper's title: 'towards 40 "real" Tflops' — the modelled
        # Myrinet rung approaches it
        assert ladder[-1][1] > 35.0
