"""The 6th-order Hermite integrator and its snap kernel."""

import numpy as np
import pytest

from repro.core.hermite import HermiteIntegrator
from repro.core.hermite6 import Hermite6Integrator
from repro.forces.higher_order import acc_jerk_snap_all
from repro.forces.kernels import kinetic_energy, potential_energy
from repro.models import plummer_model
from tests.conftest import make_two_body


def total_energy(system, eps2):
    return kinetic_energy(system.vel, system.mass) + potential_energy(
        system.pos, system.mass, eps2
    )


class TestSnapKernel:
    def test_matches_first_pass_acc_jerk(self, small_plummer, eps2):
        s = small_plummer
        res = acc_jerk_snap_all(s.pos, s.vel, s.mass, eps2)
        from repro.forces.kernels import acc_jerk_pot_on_targets

        ref = acc_jerk_pot_on_targets(
            s.pos, s.vel, s.pos, s.vel, s.mass, eps2, exclude_self=True
        )
        np.testing.assert_array_equal(res.acc, ref.acc)
        np.testing.assert_array_equal(res.jerk, ref.jerk)

    def test_snap_of_circular_binary(self):
        """Circular orbit: |a| is constant, and the snap satisfies
        a2 = -omega^2 a (uniform rotation of the acceleration vector)."""
        s = make_two_body(separation=1.0)
        res = acc_jerk_snap_all(s.pos, s.vel, s.mass, eps2=0.0)
        omega2 = 1.0  # G M / r^3 with M = r = 1
        np.testing.assert_allclose(res.snap, -omega2 * res.acc, rtol=1e-10)

    def test_snap_finite_difference(self, eps2):
        """Snap must equal the numerical second derivative of the
        acceleration along the true trajectory."""
        s = plummer_model(24, seed=61)
        res0 = acc_jerk_snap_all(s.pos, s.vel, s.mass, eps2)
        h = 1e-4
        # advance positions/velocities along the exact local expansion
        def acc_at(tau):
            x = s.pos + tau * s.vel + tau**2 / 2 * res0.acc
            v = s.vel + tau * res0.acc
            return acc_jerk_snap_all(x, v, s.mass, eps2).acc

        fd = (acc_at(h) - 2 * res0.acc + acc_at(-h)) / h**2
        scale = np.linalg.norm(res0.snap, axis=1) + 1.0
        np.testing.assert_allclose(
            fd / scale[:, None], res0.snap / scale[:, None], atol=2e-4
        )

    def test_chunking_invariance(self, eps2, monkeypatch):
        """The snap of a row is the same bits whether its i-tile holds
        all 100 rows or 7 (the all-pairs API has no row argument, so the
        partition is made by shrinking the kernel's working-set budget)."""
        from repro.forces import kernels

        s = plummer_model(100, seed=62)
        a = acc_jerk_snap_all(s.pos, s.vel, s.mass, eps2)
        monkeypatch.setattr(kernels, "TILE_BYTES", 8 * 17 * 100 * 7)
        b = acc_jerk_snap_all(s.pos, s.vel, s.mass, eps2)
        np.testing.assert_array_equal(a.snap, b.snap)
        np.testing.assert_array_equal(a.acc, b.acc)


class TestHermite6:
    def test_sixth_order_convergence(self):
        errors = {}
        for dt in (0.02, 0.01):
            s = make_two_body()
            e0 = total_energy(s, 0.0)
            integ = Hermite6Integrator(s, eps2=0.0, fixed_dt=dt)
            integ.run(1.0)
            errors[dt] = abs((total_energy(s, 0.0) - e0) / e0)
        order = np.log2(errors[0.02] / errors[0.01])
        assert order > 5.0  # ~6 in exact arithmetic

    def test_beats_fourth_order_at_same_step(self):
        dt = 0.01
        s6 = make_two_body()
        e0 = total_energy(s6, 0.0)
        Hermite6Integrator(s6, eps2=0.0, fixed_dt=dt).run(1.0)
        err6 = abs((total_energy(s6, 0.0) - e0) / e0)

        # 4th-order at the same (shared) step size: force via eta that
        # reproduces dt is fiddly, so integrate with dt_max == dt and a
        # large eta so the cap binds
        s4 = make_two_body()
        integ4 = HermiteIntegrator(s4, eps2=0.0, eta=10.0, dt_max=dt)
        integ4.run(1.0)
        err4 = abs((total_energy(s4, 0.0) - e0) / e0)
        assert err6 < err4 / 10.0

    def test_adaptive_energy_conservation_plummer(self, eps2):
        s = plummer_model(64, seed=63)
        e0 = total_energy(s, eps2)
        integ = Hermite6Integrator(s, eps2=eps2, eta=0.05)
        integ.run(0.5)
        assert abs((total_energy(s, eps2) - e0) / e0) < 1e-7

    def test_interaction_accounting_double(self, eps2):
        # two passes per evaluation: the scheme's cost is explicit
        s = plummer_model(32, seed=64)
        integ = Hermite6Integrator(s, eps2=eps2, fixed_dt=0.01)
        integ.run(0.05)
        per_step = 2 * (32 * 32 - 32)
        assert integ.stats.interactions == (integ.stats.steps + 1) * per_step

    def test_rejects_bad_fixed_dt(self, small_plummer, eps2):
        with pytest.raises(ValueError):
            Hermite6Integrator(small_plummer, eps2, fixed_dt=0.0)
