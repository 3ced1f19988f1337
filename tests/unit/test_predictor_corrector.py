"""Predictor polynomials (eqs. 6-7) and the Hermite corrector."""

import numpy as np
import pytest

from repro.core.corrector import hermite_correct
from repro.core.predictor import predict_hermite, predict_taylor, predict_with_snap

pytestmark = pytest.mark.tiers


def polynomial_trajectory(t, x0, v0, a0, j0):
    """Exact trajectory under constant jerk (cubic in t)."""
    x = x0 + v0 * t + a0 * t**2 / 2 + j0 * t**3 / 6
    v = v0 + a0 * t + j0 * t**2 / 2
    a = a0 + j0 * t
    return x, v, a


class TestPredictHermite:
    def setup_method(self):
        rng = np.random.default_rng(7)
        self.x0 = rng.normal(0, 1, (5, 3))
        self.v0 = rng.normal(0, 1, (5, 3))
        self.a0 = rng.normal(0, 1, (5, 3))
        self.j0 = rng.normal(0, 1, (5, 3))
        self.t0 = rng.uniform(0, 0.1, 5)

    def test_exact_for_cubic_motion(self):
        # with constant jerk the predictor is exact
        t = 0.25
        xp, vp = predict_hermite(t, self.t0, self.x0, self.v0, self.a0, self.j0)
        dt = (t - self.t0)[:, None]
        x_exact = self.x0 + self.v0 * dt + self.a0 * dt**2 / 2 + self.j0 * dt**3 / 6
        v_exact = self.v0 + self.a0 * dt + self.j0 * dt**2 / 2
        np.testing.assert_allclose(xp, x_exact, rtol=1e-13)
        np.testing.assert_allclose(vp, v_exact, rtol=1e-13)

    def test_zero_dt_is_identity(self):
        xp, vp = predict_hermite(0.0, np.zeros(5), self.x0, self.v0, self.a0, self.j0)
        np.testing.assert_array_equal(xp, self.x0)
        np.testing.assert_array_equal(vp, self.v0)

    def test_out_buffers_are_used(self):
        out_x = np.empty_like(self.x0)
        out_v = np.empty_like(self.v0)
        xp, vp = predict_hermite(
            0.1, self.t0, self.x0, self.v0, self.a0, self.j0, out_x, out_v
        )
        assert xp is out_x
        assert vp is out_v

    def test_per_particle_times(self):
        # particles at different t0 must be extrapolated by different dt
        t0 = np.array([0.0, 0.1, 0.0, 0.0, 0.0])
        xp, _ = predict_hermite(0.2, t0, self.x0, self.v0, self.a0, self.j0)
        xp_ref0, _ = predict_hermite(
            0.2, np.zeros(5), self.x0, self.v0, self.a0, self.j0
        )
        np.testing.assert_array_equal(xp[0], xp_ref0[0])
        assert not np.allclose(xp[1], xp_ref0[1])


class TestPredictWithSnap:
    def test_paper_sign_convention(self):
        # eq. (6): the quartic term enters with a minus sign
        x0 = np.zeros((1, 3))
        v0 = np.zeros((1, 3))
        a0 = np.zeros((1, 3))
        j0 = np.zeros((1, 3))
        s0 = np.array([[24.0, 0.0, 0.0]])
        xp, vp = predict_with_snap(1.0, np.zeros(1), x0, v0, a0, j0, s0)
        assert xp[0, 0] == pytest.approx(-1.0)  # -dt^4/24 * s
        assert vp[0, 0] == pytest.approx(4.0)  # +dt^3/6 * s

    def test_reduces_to_hermite_for_zero_snap(self):
        rng = np.random.default_rng(8)
        args = [rng.normal(0, 1, (4, 3)) for _ in range(4)]
        t0 = rng.uniform(0, 0.1, 4)
        xp1, vp1 = predict_hermite(0.3, t0, *args)
        xp2, vp2 = predict_with_snap(0.3, t0, *args, np.zeros((4, 3)))
        np.testing.assert_allclose(xp1, xp2, rtol=1e-15)
        np.testing.assert_allclose(vp1, vp2, rtol=1e-15)


class TestPredictTaylor:
    def test_standard_signs(self):
        s0 = np.array([[24.0, 0.0, 0.0]])
        c0 = np.array([[120.0, 0.0, 0.0]])
        zeros = np.zeros((1, 3))
        xp, vp = predict_taylor(1.0, np.zeros(1), zeros, zeros, zeros, zeros, s0, c0)
        assert xp[0, 0] == pytest.approx(1.0 + 1.0)  # dt^4/24 s + dt^5/120 c
        assert vp[0, 0] == pytest.approx(4.0 + 5.0)  # dt^3/6 s + dt^4/24 c


class TestHermiteCorrector:
    def test_recovers_polynomial_derivatives(self):
        """For exactly polynomial forces a(t) = a0 + a1 t + a2 t^2/2 +
        a3 t^3/6 the corrector's reconstructed a2/a3 are exact."""
        rng = np.random.default_rng(9)
        a0 = rng.normal(0, 1, (3, 3))
        j0 = rng.normal(0, 1, (3, 3))
        s0 = rng.normal(0, 1, (3, 3))  # a^(2)(0)
        c0 = rng.normal(0, 1, (3, 3))  # a^(3), constant
        dt = np.array([0.1, 0.2, 0.05])
        h = dt[:, None]
        a1 = a0 + j0 * h + s0 * h**2 / 2 + c0 * h**3 / 6
        j1 = j0 + s0 * h + c0 * h**2 / 2

        res = hermite_correct(dt, np.zeros((3, 3)), np.zeros((3, 3)), a0, j0, a1, j1)
        # snap_end should be a^(2)(dt) = s0 + c0 dt, crackle = c0
        np.testing.assert_allclose(res.crackle, c0, rtol=1e-9, atol=1e-11)
        np.testing.assert_allclose(res.snap_end, s0 + c0 * h, rtol=1e-9, atol=1e-11)

    def test_correction_is_small_for_smooth_forces(self):
        # the corrector adds O(dt^4) terms: tiny for small dt
        a0 = np.ones((1, 3))
        j0 = np.ones((1, 3))
        dt = np.array([1e-3])
        a1 = a0 + j0 * dt[:, None]
        j1 = j0.copy()
        xp = np.ones((1, 3))
        vp = np.ones((1, 3))
        res = hermite_correct(dt, xp, vp, a0, j0, a1, j1)
        assert np.max(np.abs(res.pos - xp)) < 1e-9
        assert np.max(np.abs(res.vel - vp)) < 1e-6

    def test_rejects_nonpositive_dt(self):
        z = np.zeros((1, 3))
        with pytest.raises(ValueError):
            hermite_correct(np.array([0.0]), z, z, z, z, z, z)
