"""Force/jerk/potential kernels against analytic references."""

import warnings

import numpy as np
import pytest

from repro.forces.kernels import (
    acc_jerk_pot_on_targets,
    kinetic_energy,
    pairwise_acc_jerk_pot,
    potential_energy,
)

pytestmark = pytest.mark.tiers


def two_particle_setup():
    xi = np.array([[0.0, 0.0, 0.0]])
    vi = np.array([[0.0, 0.0, 0.0]])
    xj = np.array([[1.0, 0.0, 0.0]])
    vj = np.array([[0.0, 1.0, 0.0]])
    mj = np.array([2.0])
    return xi, vi, xj, vj, mj


class TestPairwiseAnalytic:
    def test_unsoftened_point_mass_acceleration(self):
        xi, vi, xj, vj, mj = two_particle_setup()
        acc, jerk, pot = pairwise_acc_jerk_pot(xi, vi, xj, vj, mj, eps2=0.0)
        # a = G m r / r^3 pointing from i to j
        assert acc[0] == pytest.approx([2.0, 0.0, 0.0])
        assert pot[0] == pytest.approx(-2.0)
        # jerk: v/r^3 - 3 (v.r) r / r^5 with v.r = 0 here
        assert jerk[0] == pytest.approx([0.0, 2.0, 0.0])

    def test_jerk_radial_term(self):
        xi, vi, xj, vj, mj = two_particle_setup()
        vj = np.array([[1.0, 0.0, 0.0]])  # purely radial velocity
        _, jerk, _ = pairwise_acc_jerk_pot(xi, vi, xj, vj, mj, eps2=0.0)
        # jerk = m [v/r^3 - 3 (v.r) r/r^5] = 2 [(1,0,0) - 3 (1,0,0)] = (-4,0,0)
        assert jerk[0] == pytest.approx([-4.0, 0.0, 0.0])

    def test_softening_caps_the_force(self):
        xi, vi, xj, vj, mj = two_particle_setup()
        eps2 = 3.0  # r^2 + eps^2 = 4
        acc, _, pot = pairwise_acc_jerk_pot(xi, vi, xj, vj, mj, eps2=eps2)
        assert acc[0, 0] == pytest.approx(2.0 / 8.0)
        assert pot[0] == pytest.approx(-2.0 / 2.0)

    def test_sign_convention_attractive(self):
        # force on i points towards j (r_ij = x_j - x_i, eq. 4)
        xi, vi, xj, vj, mj = two_particle_setup()
        acc, _, _ = pairwise_acc_jerk_pot(xi, vi, xj, vj, mj, eps2=0.0)
        assert acc[0, 0] > 0.0

    def test_exclude_self_zeroes_coincident_pairs(self):
        x = np.array([[0.5, 0.5, 0.5]])
        v = np.array([[0.1, 0.0, 0.0]])
        m = np.array([1.0])
        acc, jerk, pot = pairwise_acc_jerk_pot(x, v, x, v, m, eps2=0.01, exclude_self=True)
        assert np.all(acc == 0.0)
        assert np.all(jerk == 0.0)
        assert np.all(pot == 0.0)


class TestDegenerateTiles:
    def test_unsoftened_self_pairs_are_exactly_zero(self):
        """eps2 = 0 with the targets among the sources: the self pair is
        masked on 1/r before any product, so no 0 * inf = NaN can leak
        into acc, jerk or pot, and nothing warns."""
        rng = np.random.default_rng(3)
        x = rng.normal(size=(9, 3))
        v = rng.normal(size=(9, 3))
        m = rng.uniform(0.5, 2.0, 9)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            acc, jerk, pot = pairwise_acc_jerk_pot(
                x, v, x, v, m, eps2=0.0, exclude_self=True
            )
        for out in (acc, jerk, pot):
            assert np.all(np.isfinite(out))
        # each row is the sum over the *other* eight particles
        for i in range(9):
            others = np.arange(9) != i
            a, j, p = pairwise_acc_jerk_pot(
                x[i : i + 1], v[i : i + 1], x[others], v[others], m[others], 0.0
            )
            np.testing.assert_allclose(acc[i], a[0], rtol=1e-13)
            np.testing.assert_allclose(jerk[i], j[0], rtol=1e-13, atol=1e-13)
            np.testing.assert_allclose(pot[i], p[0], rtol=1e-13)

    def test_unsoftened_coincident_particles_only(self):
        x = np.zeros((3, 3))
        v = np.arange(9.0).reshape(3, 3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            acc, jerk, pot = pairwise_acc_jerk_pot(
                x, v, x, v, np.ones(3), eps2=0.0, exclude_self=True
            )
            u = potential_energy(x, np.ones(3), eps2=0.0)
        assert not acc.any() and not jerk.any() and not pot.any()
        assert u == 0.0

    @pytest.mark.parametrize("n_i, n_j", [(0, 5), (4, 0), (0, 0)])
    @pytest.mark.parametrize("exclude_self", [False, True])
    def test_empty_tiles(self, n_i, n_j, exclude_self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = acc_jerk_pot_on_targets(
                np.ones((n_i, 3)), np.ones((n_i, 3)),
                np.zeros((n_j, 3)), np.zeros((n_j, 3)), np.ones(n_j),
                0.25, exclude_self=exclude_self,
            )
        assert res.acc.shape == (n_i, 3) and not res.acc.any()
        assert res.jerk.shape == (n_i, 3) and not res.jerk.any()
        assert res.pot.shape == (n_i,) and not res.pot.any()

    def test_potential_energy_of_nothing(self):
        assert potential_energy(np.zeros((0, 3)), np.zeros(0), 0.25) == 0.0


class TestChunkedEvaluation:
    def test_chunking_does_not_change_results(self, medium_plummer, eps2):
        """Evaluating the targets 17 rows at a time gives bitwise the rows
        of the all-at-once evaluation (which tiles at its own height)."""
        s = medium_plummer
        big = acc_jerk_pot_on_targets(
            s.pos, s.vel, s.pos, s.vel, s.mass, eps2, exclude_self=True
        )
        for lo in range(0, s.n, 17):
            rows = slice(lo, lo + 17)
            small = acc_jerk_pot_on_targets(
                s.pos[rows], s.vel[rows], s.pos, s.vel, s.mass, eps2,
                exclude_self=True,
            )
            np.testing.assert_array_equal(big.acc[rows], small.acc)
            np.testing.assert_array_equal(big.jerk[rows], small.jerk)
            np.testing.assert_array_equal(big.pot[rows], small.pot)

    def test_interaction_count_with_self_exclusion(self, small_plummer, eps2):
        s = small_plummer
        res = acc_jerk_pot_on_targets(
            s.pos, s.vel, s.pos, s.vel, s.mass, eps2, exclude_self=True
        )
        assert res.interactions == s.n * s.n - s.n
        assert res.flops == res.interactions * 57

    def test_external_targets_count_all_pairs(self, small_plummer, eps2):
        s = small_plummer
        probes = np.array([[10.0, 0.0, 0.0], [0.0, 10.0, 0.0]])
        res = acc_jerk_pot_on_targets(
            probes, np.zeros_like(probes), s.pos, s.vel, s.mass, eps2
        )
        assert res.interactions == 2 * s.n

    def test_newton_third_law(self, eps2):
        # total momentum change rate must vanish: sum m_i a_i = 0
        rng = np.random.default_rng(5)
        x = rng.normal(0, 1, (50, 3))
        v = rng.normal(0, 1, (50, 3))
        m = rng.uniform(0.5, 2.0, 50)
        res = acc_jerk_pot_on_targets(x, v, x, v, m, eps2, exclude_self=True)
        np.testing.assert_allclose(m @ res.acc, 0.0, atol=1e-12)
        np.testing.assert_allclose(m @ res.jerk, 0.0, atol=1e-12)


class TestEnergies:
    def test_kinetic_energy(self):
        v = np.array([[1.0, 0.0, 0.0], [0.0, 2.0, 0.0]])
        m = np.array([2.0, 1.0])
        assert kinetic_energy(v, m) == pytest.approx(0.5 * 2 + 0.5 * 4)

    def test_potential_energy_two_body(self):
        x = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        m = np.array([1.0, 3.0])
        assert potential_energy(x, m, eps2=0.0) == pytest.approx(-3.0)

    def test_potential_energy_matches_pairwise_pot(self, small_plummer, eps2):
        s = small_plummer
        res = acc_jerk_pot_on_targets(
            s.pos, s.vel, s.pos, s.vel, s.mass, eps2, exclude_self=True
        )
        u_from_pot = 0.5 * np.sum(s.mass * res.pot)
        assert potential_energy(s.pos, s.mass, eps2) == pytest.approx(u_from_pot)

    def test_potential_chunking_consistency(self, medium_plummer, eps2):
        """U assembled from the potentials of 13-row blocks of targets
        agrees with the all-at-once energy to summation-order rounding."""
        s = medium_plummer
        u = 0.0
        for lo in range(0, s.n, 13):
            rows = slice(lo, lo + 13)
            pot = acc_jerk_pot_on_targets(
                s.pos[rows], s.vel[rows], s.pos, s.vel, s.mass, eps2,
                exclude_self=True,
            ).pot
            u += 0.5 * np.sum(s.mass[rows] * pot)
        assert potential_energy(s.pos, s.mass, eps2) == pytest.approx(u, rel=1e-13)


class TestValidation:
    def test_direct_rejects_bad_shapes(self, eps2):
        from repro.forces import DirectSummation

        backend = DirectSummation(eps2)
        with pytest.raises(ValueError):
            backend.set_j_particles(
                np.zeros((4, 3)), np.zeros((5, 3)), np.zeros(4)
            )

    def test_direct_requires_load_before_force(self, eps2):
        from repro.forces import DirectSummation

        backend = DirectSummation(eps2)
        with pytest.raises(RuntimeError):
            backend.forces_on(np.zeros((1, 3)), np.zeros((1, 3)))

    def test_negative_eps2_rejected(self):
        from repro.forces import DirectSummation

        with pytest.raises(ValueError):
            DirectSummation(-1.0)
