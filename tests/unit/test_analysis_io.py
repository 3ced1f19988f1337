"""Analysis helpers and snapshot I/O."""

import numpy as np
import pytest

from repro.analysis import (
    core_radius_casertano_hut,
    crossing_time,
    half_mass_relaxation_time,
    lagrangian_radii,
    run_speed,
    timestep_census,
)
from repro.analysis.relaxation import simulation_cost_scaling
from repro.core import BlockTimestepIntegrator, EnergyDiagnostics
from repro.core.individual import StepStatistics
from repro.io import format_table, read_snapshot, write_snapshot
from repro.models import plummer_model
from repro.units import plummer_scale_radius


class TestLagrangianRadii:
    def test_monotone(self, medium_plummer):
        radii = lagrangian_radii(medium_plummer)
        assert np.all(np.diff(radii) > 0)

    def test_half_mass_matches_plummer_theory(self):
        s = plummer_model(8192, seed=41)
        r_half = lagrangian_radii(s, (0.5,))[0]
        assert r_half == pytest.approx(1.305 * plummer_scale_radius(), rel=0.1)

    def test_validation(self, small_plummer):
        with pytest.raises(ValueError):
            lagrangian_radii(small_plummer, (0.0,))
        with pytest.raises(ValueError):
            lagrangian_radii(small_plummer, (1.5,))


class TestCoreRadius:
    def test_plummer_core(self):
        s = plummer_model(2048, seed=42)
        r_core, center = core_radius_casertano_hut(s)
        # CH85 core radius of a Plummer sphere ~ its scale radius
        assert 0.3 * plummer_scale_radius() < r_core < 3 * plummer_scale_radius()
        assert np.linalg.norm(center) < 0.5

    def test_needs_enough_particles(self, small_plummer):
        with pytest.raises(ValueError):
            core_radius_casertano_hut(small_plummer, k=100)


class TestTimescales:
    def test_heggie_crossing_time(self):
        assert crossing_time() == pytest.approx(2.0 * np.sqrt(2.0))

    def test_relaxation_grows_like_n_over_log_n(self):
        # 10x more particles -> ~6.7x longer (the log eats some growth)
        ratio = half_mass_relaxation_time(10_000) / half_mass_relaxation_time(1_000)
        assert 5.0 < ratio < 10.0

    def test_cost_scaling_cubic_ish(self):
        # introduction: total cost ~ O(N^3) (up to the log)
        ratio = simulation_cost_scaling(2048, reference_n=1024)
        assert 6.0 < ratio < 8.0

    def test_validation(self):
        with pytest.raises(ValueError):
            half_mass_relaxation_time(1)
        with pytest.raises(ValueError):
            crossing_time(total_mass=-1.0)


class TestTimestepCensus:
    def test_census_after_integration(self, eps2):
        s = plummer_model(128, seed=43)
        integ = BlockTimestepIntegrator(s, eps2)
        integ.run(0.125)
        census = timestep_census(s)
        assert census.counts.sum() == 128
        assert census.dt_min <= census.harmonic_mean_dt <= census.dt_max
        assert census.shared_step_penalty >= 1.0
        assert census.level_sd > 0

    def test_requires_initialised_steps(self, small_plummer):
        with pytest.raises(ValueError):
            timestep_census(small_plummer)


class TestRunSpeed:
    def test_accounting(self):
        stats = StepStatistics(blocksteps=10, particle_steps=100, interactions=10_000)
        speed = run_speed(stats, wall_seconds=2.0)
        assert speed.particle_steps_per_second == 50.0
        assert speed.flops == 570_000
        assert speed.sustained_gflops == pytest.approx(2.85e-4)

    def test_rejects_zero_wall(self):
        with pytest.raises(ValueError):
            run_speed(StepStatistics(), 0.0)


class TestEnergyDiagnostics:
    def test_initial_and_error(self, eps2, small_plummer):
        diag = EnergyDiagnostics(eps2=eps2)
        s0 = diag.measure(small_plummer, 0.0)
        assert diag.relative_error() == 0.0
        assert s0.total == pytest.approx(-0.25, abs=0.07)

    def test_requires_samples(self, eps2):
        diag = EnergyDiagnostics(eps2=eps2)
        with pytest.raises(RuntimeError):
            diag.relative_error()


class TestSnapshotIO:
    def test_roundtrip(self, tmp_path, eps2):
        s = plummer_model(64, seed=44)
        integ = BlockTimestepIntegrator(s, eps2)
        integ.run(0.0625)
        path = tmp_path / "snap.npz"
        write_snapshot(path, s, t=0.0625, metadata={"note": "test"})
        restored, meta = read_snapshot(path)
        assert meta["note"] == "test"
        assert meta["n"] == 64
        for name in ("mass", "pos", "vel", "acc", "jerk", "snap", "crackle", "t", "dt"):
            np.testing.assert_array_equal(
                getattr(restored, name), getattr(s, name), err_msg=name
            )

    def test_restart_continues_identically(self, tmp_path, eps2):
        # integrate, checkpoint, continue; vs uninterrupted run
        a = plummer_model(48, seed=45)
        integ_a = BlockTimestepIntegrator(a, eps2)
        integ_a.run(0.125)

        b = plummer_model(48, seed=45)
        integ_b = BlockTimestepIntegrator(b, eps2)
        integ_b.run(0.0625)
        path = tmp_path / "ckpt.npz"
        write_snapshot(path, b, t=integ_b.t)
        restored, meta = read_snapshot(path)
        integ_c = BlockTimestepIntegrator.__new__(BlockTimestepIntegrator)
        # resume via public pieces: rebuild integrator state
        from repro.core.scheduler import BlockScheduler
        from repro.core.individual import StepStatistics as SS
        from repro.forces import DirectSummation

        integ_c.system = restored
        integ_c.eps2 = eps2
        integ_c.eta = integ_b.eta
        integ_c.eta_start = integ_b.eta_start
        integ_c.backend = DirectSummation(eps2)
        integ_c.dt_max = integ_b.dt_max
        integ_c.dt_min = integ_b.dt_min
        integ_c.record_block_sizes = True
        integ_c.t = meta["t"]
        integ_c.stats = SS()
        integ_c._xp = np.empty_like(restored.pos)
        integ_c._vp = np.empty_like(restored.vel)
        integ_c._forces_at = integ_c._j_side(integ_c.backend)
        integ_c.scheduler = BlockScheduler(restored.t, restored.dt)
        integ_c.run(0.125)

        np.testing.assert_allclose(integ_c.system.pos, a.pos, atol=1e-13)

    def test_version_check(self, tmp_path, small_plummer):
        path = tmp_path / "bad.npz"
        write_snapshot(path, small_plummer, t=0.0)
        import json

        import numpy as np_

        data = dict(np_.load(path))
        meta = json.loads(bytes(data["header"]).decode())
        meta["version"] = 99
        data["header"] = np_.frombuffer(json.dumps(meta).encode(), dtype=np_.uint8)
        np_.savez(path, **data)
        with pytest.raises(ValueError):
            read_snapshot(path)


class TestFormatTable:
    def test_alignment_and_floats(self):
        out = format_table(("a", "bb"), [(1, 2.34567), (10, 0.5)])
        lines = out.splitlines()
        assert len(lines) == 4
        assert "2.346" in out
        # aligned columns: same width per line
        assert len(set(len(l) for l in lines)) == 1

    def test_ragged_rejected(self):
        with pytest.raises(ValueError):
            format_table(("a",), [(1, 2)])
