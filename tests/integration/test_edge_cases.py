"""Edge cases and failure injection across the stack.

Collisional systems hit the integrator's corners in production — huge
mass ratios, near-coincident particles, collapsing cores.  The
emulator's corners are the format ranges.  These tests pin down the
behaviour at each edge: either it works, or it fails loudly.
"""

import warnings

import numpy as np
import pytest

from repro.core import BlockTimestepIntegrator, EnergyDiagnostics
from repro.core.particles import ParticleSystem
from repro.forces import DirectSummation
from repro.hardware import Grape6Emulator
from repro.hardware.fixedpoint import FixedPointOverflow, NonFiniteValue
from repro.models import plummer_model
from repro.treecode import Octree, tree_force


class TestExtremeMassRatios:
    def test_million_to_one_satellite_orbit(self):
        # a test particle around a dominant mass: Kepler to high accuracy
        m = np.array([1.0, 1.0e-6])
        x = np.array([[0.0, 0, 0], [1.0, 0, 0]])
        v = np.array([[0.0, 0, 0], [0.0, 1.0, 0.0]])
        system = ParticleSystem(m, x, v)
        integ = BlockTimestepIntegrator(system, eps2=0.0, eta=0.01)
        integ.run(2.0 * np.pi)
        synced = integ.synchronize(2.0 * np.pi)
        # one period: back to the start
        np.testing.assert_allclose(synced.pos[1], [1.0, 0.0, 0.0], atol=2e-3)

    def test_massless_tracer_particles(self, eps2):
        # zero-mass particles feel forces but exert none
        s = plummer_model(32, seed=51)
        mass = s.mass.copy()
        mass[0] = 0.0
        system = ParticleSystem(mass, s.pos, s.vel)
        integ = BlockTimestepIntegrator(system, eps2=eps2)
        integ.run(0.125)  # must simply work
        assert np.all(np.isfinite(system.pos))

    def test_emulator_handles_huge_mass_ratio(self, eps2):
        m = np.array([1.0, 1.0e-9, 1.0e-9])
        x = np.array([[0.0, 0, 0], [1.0, 0, 0], [0.0, 1.5, 0]])
        v = np.zeros((3, 3))
        emu = Grape6Emulator(eps2, boards=1)
        emu.set_j_particles(x, v, m)
        res = emu.forces_on(x, v, np.arange(3))
        ref = DirectSummation(eps2)
        ref.set_j_particles(x, v, m)
        exact = ref.forces_on(x, v, np.arange(3))
        np.testing.assert_allclose(res.acc, exact.acc, rtol=1e-5, atol=1e-12)


class TestCoincidentAndCold:
    def test_coincident_particles_with_softening(self, eps2):
        # two particles at the same point: zero force between them
        # (softened), but the pair still feels the rest of the system
        s = plummer_model(16, seed=52)
        s.pos[1] = s.pos[0]
        backend = DirectSummation(eps2)
        backend.set_j_particles(s.pos, s.vel, s.mass)
        res = backend.forces_on(s.pos, s.vel, np.arange(16))
        assert np.all(np.isfinite(res.acc))
        assert np.all(np.isfinite(res.pot))

    def test_emulator_coincident_particles(self, eps2):
        s = plummer_model(16, seed=53)
        s.pos[1] = s.pos[0]
        emu = Grape6Emulator(eps2, boards=1)
        emu.set_j_particles(s.pos, s.vel, s.mass)
        res = emu.forces_on(s.pos, s.vel, np.arange(16))
        assert np.all(np.isfinite(res.acc))

    def test_two_particle_minimum_system(self, eps2):
        system = ParticleSystem(
            np.array([0.5, 0.5]),
            np.array([[0.3, 0, 0], [-0.3, 0, 0]]),
            np.array([[0, 0.4, 0], [0, -0.4, 0.0]]),
        )
        diag = EnergyDiagnostics(eps2=eps2)
        diag.measure(system, 0.0)
        integ = BlockTimestepIntegrator(system, eps2=eps2)
        integ.run(1.0)
        diag.measure(integ.synchronize(1.0), 1.0)
        # an eccentric softened binary: close approaches dominate error
        assert diag.relative_error() < 1e-4


class TestFormatEdges:
    def test_coordinates_beyond_fixed_point_range_raise(self, eps2):
        emu = Grape6Emulator(eps2, boards=1)
        x = np.array([[1.0e9, 0, 0], [0.0, 0, 0]])  # outside +-2^23
        v = np.zeros((2, 3))
        m = np.ones(2)
        with pytest.raises(FixedPointOverflow):
            emu.set_j_particles(x, v, m)

    def test_i_coordinates_beyond_range_raise(self, eps2):
        emu = Grape6Emulator(eps2, boards=1)
        s = plummer_model(8, seed=54)
        emu.set_j_particles(s.pos, s.vel, s.mass)
        with pytest.raises(FixedPointOverflow):
            emu.forces_on(np.array([[1.0e9, 0, 0]]), np.zeros((1, 3)))

    def test_nan_position_is_a_named_error(self, eps2):
        # a NaN coordinate must stop the run before any force comes
        # back, not become INT64_MIN behind a RuntimeWarning
        s = plummer_model(16, seed=59)
        s.pos[5, 1] = np.nan
        emu = Grape6Emulator(eps2, boards=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteValue):
                BlockTimestepIntegrator(s, eps2, backend=emu).run(0.125)
        assert emu.stats.force_evaluations == 0

    def test_far_separated_clusters_still_work(self, eps2):
        # near the format edge but inside: |x| ~ 2^20
        offset = np.array([2.0**20 * 0.5, 0.0, 0.0])
        a = plummer_model(8, seed=55)
        x = np.vstack((a.pos, a.pos + offset))
        v = np.vstack((a.vel, a.vel))
        m = np.concatenate((a.mass, a.mass)) / 2
        emu = Grape6Emulator(eps2, boards=1)
        emu.set_j_particles(x, v, m)
        res = emu.forces_on(x, v, np.arange(16))
        assert np.all(np.isfinite(res.acc))

    def test_unsoftened_emulator_run(self):
        # eps = 0: the hardware supports it; grid-identical pairs are
        # cut, everything else divides by true distances
        s = plummer_model(16, seed=56)
        emu = Grape6Emulator(0.0, boards=1)
        emu.set_j_particles(s.pos, s.vel, s.mass)
        res = emu.forces_on(s.pos, s.vel, np.arange(16))
        assert np.all(np.isfinite(res.acc))


class TestTreecodeEdges:
    def test_collinear_particles(self, eps2):
        x = np.zeros((32, 3))
        x[:, 0] = np.linspace(0, 1, 32)
        tree = Octree(x, np.full(32, 1 / 32))
        res = tree_force(tree, eps2, theta=0.5)
        assert np.all(np.isfinite(res.acc))

    def test_two_point_masses(self, eps2):
        x = np.array([[0.0, 0, 0], [1.0, 0, 0]])
        tree = Octree(x, np.array([1.0, 2.0]))
        res = tree_force(tree, eps2, theta=0.5)
        # exact: only direct interactions possible
        ref = DirectSummation(eps2)
        ref.set_j_particles(x, np.zeros((2, 3)), np.array([1.0, 2.0]))
        exact = ref.forces_on(x, np.zeros((2, 3)), np.arange(2))
        np.testing.assert_allclose(res.acc, exact.acc, rtol=1e-12)

    def test_heavily_clustered_distribution(self, eps2):
        # 90% of particles in a tiny ball plus outliers: deep tree
        rng = np.random.default_rng(57)
        x = np.vstack(
            (rng.normal(0, 1e-5, (90, 3)), rng.normal(0, 1.0, (10, 3)))
        )
        tree = Octree(x, np.full(100, 0.01), leaf_size=4)
        res = tree_force(tree, eps2, theta=0.5)
        assert np.all(np.isfinite(res.acc))


class TestSchedulerPathologies:
    def test_dt_min_floor_holds(self):
        # a pathologically hard binary cannot drive dt below dt_min
        m = np.array([0.5, 0.5])
        x = np.array([[1e-6, 0, 0], [-1e-6, 0, 0]])
        v = np.array([[0, 1e-3, 0], [0, -1e-3, 0.0]])
        system = ParticleSystem(m, x, v)
        integ = BlockTimestepIntegrator(
            system, eps2=0.0, dt_min=2.0**-20, dt_max=0.125
        )
        integ.run(2.0**-12)
        assert np.all(system.dt >= 2.0**-20)

    def test_run_to_zero_time_is_noop(self, eps2):
        s = plummer_model(16, seed=58)
        pos0 = s.pos.copy()
        integ = BlockTimestepIntegrator(s, eps2)
        stats = integ.run(0.0)
        assert stats.blocksteps == 0
        np.testing.assert_array_equal(s.pos, pos0)
