"""King model, accretion machinery, and the figure-export CLI."""

import numpy as np
import pytest

from repro.core.encounters import (
    AccretionSimulation,
    find_collisions,
    merge_particles,
)
from repro.core.particles import ParticleSystem
from repro.forces.kernels import kinetic_energy, potential_energy
from repro.models import king_model


class TestKingModel:
    def test_heggie_normalisation(self):
        s = king_model(512, w0=6.0, seed=3)
        t = kinetic_energy(s.vel, s.mass)
        u = potential_energy(s.pos, s.mass, eps2=0.0)
        assert t + u == pytest.approx(-0.25, abs=1e-10)
        assert -t / u == pytest.approx(0.5, abs=1e-10)

    def test_concentration_grows_with_w0(self):
        def concentration(w0):
            s = king_model(1024, w0=w0, seed=4)
            r = np.sort(np.linalg.norm(s.pos, axis=1))
            return r[-1] / r[102]  # tidal-ish over 10%-mass radius

        assert concentration(9.0) > concentration(6.0) > concentration(3.0)

    def test_finite_tidal_radius(self):
        # unlike Plummer, the King model truncates: compare the outer
        # envelopes of equal-energy models
        king = king_model(2048, w0=3.0, seed=5)
        from repro.models import plummer_model

        plummer = plummer_model(2048, seed=5)
        r_king = np.sort(np.linalg.norm(king.pos, axis=1))
        r_plum = np.sort(np.linalg.norm(plummer.pos, axis=1))
        assert r_king[-1] < r_plum[-1]

    def test_reproducible(self):
        a = king_model(128, seed=6)
        b = king_model(128, seed=6)
        np.testing.assert_array_equal(a.pos, b.pos)

    def test_speeds_below_escape(self):
        s = king_model(512, w0=6.0, seed=7, to_heggie_units=False)
        assert np.all(np.isfinite(s.vel))

    def test_validation(self):
        with pytest.raises(ValueError):
            king_model(1)
        with pytest.raises(ValueError):
            king_model(64, w0=20.0)


class TestCollisions:
    def test_find_overlapping_pair(self):
        pos = np.array([[0.0, 0, 0], [0.05, 0, 0], [1.0, 0, 0]])
        radii = np.array([0.04, 0.04, 0.04])
        assert find_collisions(pos, radii) == [(0, 1)]

    def test_no_false_positives(self):
        pos = np.array([[0.0, 0, 0], [1.0, 0, 0]])
        assert find_collisions(pos, np.full(2, 0.1)) == []

    def test_candidates_restriction(self):
        pos = np.array([[0.0, 0, 0], [0.01, 0, 0], [5.0, 0, 0], [5.01, 0, 0]])
        radii = np.full(4, 0.02)
        # only scan particle 0's neighbourhood
        assert find_collisions(pos, radii, candidates=np.array([0])) == [(0, 1)]

    def test_merge_conserves_mass_and_momentum(self):
        rng = np.random.default_rng(8)
        sys_ = ParticleSystem(
            rng.uniform(0.5, 2.0, 5), rng.normal(0, 1, (5, 3)), rng.normal(0, 1, (5, 3))
        )
        radii = rng.uniform(0.01, 0.1, 5)
        p0 = sys_.momentum()
        m0 = sys_.total_mass
        merged, new_radii = merge_particles(sys_, radii, 1, 3)
        assert merged.n == 4
        assert merged.total_mass == pytest.approx(m0)
        np.testing.assert_allclose(merged.momentum(), p0, rtol=1e-12)
        # volume-conserving radius
        assert new_radii[1] == pytest.approx(
            (radii[1] ** 3 + radii[3] ** 3) ** (1 / 3)
        )

    def test_merge_validation(self):
        sys_ = ParticleSystem(np.ones(2), np.zeros((2, 3)), np.zeros((2, 3)))
        with pytest.raises(ValueError):
            merge_particles(sys_, np.ones(2), 1, 1)


class TestAccretionSimulation:
    def test_head_on_pair_merges(self):
        m = np.array([0.5, 0.5])
        x = np.array([[0.5, 0.0, 0.0], [-0.5, 0.0, 0.0]])
        v = np.array([[-0.3, 0.0, 0.0], [0.3, 0.0, 0.0]])
        sim = AccretionSimulation(
            ParticleSystem(m, x, v), np.full(2, 0.05), eps2=1e-8
        )
        sim.run(10.0)
        assert sim.stats.mergers == 1
        assert sim.n == 1
        np.testing.assert_allclose(sim.system.momentum(), 0.0, atol=1e-12)

    def test_distant_particles_never_merge(self):
        m = np.array([0.5, 0.5])
        x = np.array([[2.0, 0.0, 0.0], [-2.0, 0.0, 0.0]])
        # circular orbit: no contact
        v_c = np.sqrt(0.5 / 8.0)
        v = np.array([[0.0, v_c, 0.0], [0.0, -v_c, 0.0]])
        sim = AccretionSimulation(
            ParticleSystem(m, x, v), np.full(2, 0.01), eps2=0.0
        )
        sim.run(5.0)
        assert sim.stats.mergers == 0
        assert sim.n == 2

    def test_events_recorded_with_times(self):
        m = np.array([0.5, 0.5])
        x = np.array([[0.2, 0.0, 0.0], [-0.2, 0.0, 0.0]])
        v = np.array([[-0.5, 0.0, 0.0], [0.5, 0.0, 0.0]])
        sim = AccretionSimulation(
            ParticleSystem(m, x, v), np.full(2, 0.05), eps2=1e-8
        )
        sim.run(3.0)
        assert len(sim.stats.events) == 1
        event = sim.stats.events[0]
        assert 0.0 < event.t < 3.0
        assert event.mass == pytest.approx(1.0)

    def test_validation(self):
        sys_ = ParticleSystem(np.ones(2), np.zeros((2, 3)), np.zeros((2, 3)))
        with pytest.raises(ValueError):
            AccretionSimulation(sys_, np.ones(3), eps2=0.0)
        with pytest.raises(ValueError):
            AccretionSimulation(sys_, np.array([-1.0, 1.0]), eps2=0.0)


class TestFiguresCLI:
    def test_export_all_writes_every_figure(self, tmp_path):
        from repro.figures import export_all

        paths = export_all(tmp_path)
        names = {p.name for p in paths}
        for expected in (
            "fig13_single_node_speed.csv",
            "fig14_time_per_step.csv",
            "fig15_multi_node_speed_const.csv",
            "fig15_multi_node_speed_4overN.csv",
            "fig16_four_node_time_per_step.csv",
            "fig17_multi_cluster_speed.csv",
            "fig18_full_machine_time_per_step.csv",
            "fig19_nic_tuning.csv",
            "section5_applications.csv",
        ):
            assert expected in names
            assert (tmp_path / expected).stat().st_size > 0

    def test_csv_columns(self, tmp_path):
        import csv

        from repro.figures import FIGURES, export_figure

        path = export_figure(FIGURES["fig17"], tmp_path)
        with path.open() as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["N", "tflops_4node", "tflops_8node", "tflops_16node"]
        assert len(rows) > 10
        # large-N ordering: 16 > 8 > 4 nodes
        last = [float(x) for x in rows[-1][1:]]
        assert last[0] < last[1] < last[2]

    def test_main_entrypoint(self, tmp_path, capsys):
        from repro.figures import main

        assert main([str(tmp_path / "out")]) == 0
        out = capsys.readouterr().out
        assert "fig19_nic_tuning.csv" in out
