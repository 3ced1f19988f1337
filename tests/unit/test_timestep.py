"""Aarseth timestep criterion and block quantisation."""

import pickle

import numpy as np
import pytest

from repro.core.timestep import (
    NonFiniteForce,
    aarseth_dt,
    commensurable,
    floor_power_of_two,
    initial_dt,
    quantize_block_dt,
)

pytestmark = pytest.mark.tiers


class TestAarsethCriterion:
    def test_dimensional_scaling(self):
        # uniformly scaling all derivatives by the same time factor
        # scales dt accordingly: dt ~ sqrt(eta * (a s + j^2)/(j c + s^2))
        a = np.array([[1.0, 0, 0]])
        j = np.array([[1.0, 0, 0]])
        s = np.array([[1.0, 0, 0]])
        c = np.array([[1.0, 0, 0]])
        dt1 = aarseth_dt(a, j, s, c, eta=0.01)
        # speed time up 2x: j *= 2, s *= 4, c *= 8
        dt2 = aarseth_dt(a, 2 * j, 4 * s, 8 * c, eta=0.01)
        assert dt2[0] == pytest.approx(dt1[0] / 2.0)

    def test_eta_scaling(self):
        a, j, s, c = (np.ones((1, 3)) for _ in range(4))
        dt1 = aarseth_dt(a, j, s, c, eta=0.01)
        dt4 = aarseth_dt(a, j, s, c, eta=0.04)
        assert dt4[0] == pytest.approx(2.0 * dt1[0])

    def test_no_nan_for_vanishing_derivatives(self):
        z = np.zeros((2, 3))
        dt = aarseth_dt(z, z, z, z)
        assert np.all(np.isfinite(dt))
        assert np.all(dt > 0)

    def test_initial_dt(self):
        a = np.array([[2.0, 0, 0]])
        j = np.array([[4.0, 0, 0]])
        assert initial_dt(a, j, eta=0.01)[0] == pytest.approx(0.005)


class TestFloorPowerOfTwo:
    def test_exact_powers_are_kept(self):
        for k in range(-20, 5):
            assert floor_power_of_two(2.0**k) == 2.0**k

    def test_floors_down(self):
        assert floor_power_of_two(0.3) == 0.25
        assert floor_power_of_two(1.99) == 1.0
        assert floor_power_of_two(0.2500001) == 0.25

    def test_array_input(self):
        out = floor_power_of_two(np.array([0.3, 0.6, 1.5]))
        np.testing.assert_array_equal(out, [0.25, 0.5, 1.0])

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            floor_power_of_two(0.0)
        with pytest.raises(ValueError):
            floor_power_of_two(np.array([0.5, -1.0]))


class TestQuantizeBlockDt:
    def test_results_are_powers_of_two_in_range(self):
        rng = np.random.default_rng(3)
        ideal = rng.uniform(1e-9, 1.0, 100)
        dt = quantize_block_dt(ideal, t_now=0.0, dt_max=0.125)
        logs = np.log2(dt)
        np.testing.assert_array_equal(logs, np.round(logs))
        assert np.all(dt <= 0.125)
        assert np.all(dt >= 2.0**-40)

    def test_never_exceeds_ideal_or_cap(self):
        ideal = np.array([0.3, 0.01, 0.0001])
        dt = quantize_block_dt(ideal, t_now=0.0)
        assert np.all(dt <= ideal)

    def test_shrinking_always_allowed(self):
        dt_old = np.array([0.125])
        dt = quantize_block_dt(np.array([0.001]), t_now=0.125, dt_old=dt_old)
        assert dt[0] <= 0.001

    def test_at_most_one_doubling(self):
        dt_old = np.array([2.0**-10])
        # ideal step much larger, at a commensurable time
        t = 2.0**-9 * 7  # multiple of 2*dt_old = 2^-9
        dt = quantize_block_dt(np.array([0.125]), t_now=t, dt_old=dt_old)
        assert dt[0] == 2.0**-9

    def test_doubling_blocked_off_boundary(self):
        dt_old = np.array([2.0**-10])
        t = 2.0**-10 * 7  # odd multiple: NOT a multiple of 2^-9
        dt = quantize_block_dt(np.array([0.125]), t_now=t, dt_old=dt_old)
        assert dt[0] == dt_old[0]

    def test_startup_commensurability(self):
        # at t = 3/8, a step of 1/4 would be incommensurable; must halve
        dt = quantize_block_dt(np.array([0.25]), t_now=0.375)
        assert commensurable(0.375, float(dt[0]))
        assert dt[0] <= 0.125

    def test_result_keeps_time_commensurable(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            k = rng.integers(0, 12)
            t = rng.integers(0, 2**12) * 2.0**-12
            ideal = rng.uniform(1e-6, 0.2)
            dt = quantize_block_dt(np.array([ideal]), t_now=t)
            assert commensurable(t, float(dt[0])), (t, dt)
            del k


class TestCommensurable:
    def test_basic(self):
        assert commensurable(0.5, 0.25)
        assert commensurable(0.0, 0.125)
        assert not commensurable(0.375, 0.25)
        assert commensurable(0.375, 0.125)


class TestNonFiniteForce:
    def test_why_it_exists_a_nan_criterion_quantises_to_the_longest_step(self):
        """The helpers are unchanged: a NaN acceleration is a NaN
        criterion, and the quantisation makes ``2 dt_old`` of it.
        ``advance_block`` raises before it gets there."""
        nan = np.full((1, 3), np.nan)
        ideal = aarseth_dt(nan, np.ones((1, 3)), np.ones((1, 3)), np.ones((1, 3)))
        assert np.isnan(ideal[0])
        dt = quantize_block_dt(ideal, t_now=1.0, dt_old=np.array([2.0**-5]))
        assert dt[0] == 2.0**-4

    def test_names_the_particle_and_survives_pickling(self):
        exc = NonFiniteForce("non-finite force on particle 3", particle=3, blockstep=12)
        assert isinstance(exc, ValueError)
        again = pickle.loads(pickle.dumps(exc))
        assert (again.particle, again.blockstep, str(again)) == (3, 12, str(exc))
