"""Chip / module / board / system emulator units and GRAPE-4 contrast."""

import numpy as np
import pytest

from repro.config import BoardConfig, ChipConfig
from repro.forces import DirectSummation
from repro.hardware import pipeline
from repro.hardware import (
    Grape6Emulator,
    GrapeChip,
    JParticleMemory,
    ProcessorBoard,
    ProcessorModule,
    grape4_sum,
)
from repro.hardware import chip as chip_module
from repro.hardware.chip import BlockExponents
from repro.hardware.blockfloat import (
    BlockFloatAccumulator,
    BlockFloatOverflow,
    suggest_exponent,
)
from repro.hardware.floatformat import FloatFormat
from repro.hardware.pipeline import PipelineFormats, numpy_partial_lanes, partial_lanes
from repro.hardware.predictor_unit import predict_memory
from repro.telemetry import Tracer, set_tracer

pytestmark = pytest.mark.tiers


def tiny_setup(n=16, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.normal(0, 1, (n, 3))
    v = rng.normal(0, 0.5, (n, 3))
    m = np.full(n, 1.0 / n)
    return x, v, m


class TestJParticleMemory:
    def test_load_applies_formats(self):
        fmt = PipelineFormats.default()
        mem = JParticleMemory(100, fmt.pos, fmt.word)
        x, v, m = tiny_setup()
        mem.load(np.arange(16), x, v, m)
        assert mem.n == 16
        # positions on the fixed grid
        np.testing.assert_array_equal(mem.pos_q, fmt.pos.quantize(x))
        # velocities rounded to the word format
        np.testing.assert_array_equal(mem.vel, fmt.word.round(v))

    def test_capacity_enforced(self):
        fmt = PipelineFormats.default()
        mem = JParticleMemory(8, fmt.pos, fmt.word)
        x, v, m = tiny_setup(16)
        with pytest.raises(ValueError):
            mem.load(np.arange(16), x, v, m)


class TestPredictorUnit:
    def test_static_particle_is_fixed_point(self):
        fmt = PipelineFormats.default()
        mem = JParticleMemory(10, fmt.pos, fmt.word)
        x, v, m = tiny_setup(4)
        mem.load(np.arange(4), x, 0 * v, m)  # zero velocity, derivatives
        pos_q, vel = predict_memory(mem, t=0.5)
        np.testing.assert_array_equal(pos_q, mem.pos_q)
        np.testing.assert_array_equal(vel, mem.vel)

    def test_linear_motion_predicted(self):
        fmt = PipelineFormats.default()
        mem = JParticleMemory(10, fmt.pos, fmt.word)
        x = np.zeros((1, 3))
        v = np.array([[1.0, 0.0, 0.0]])
        mem.load(np.arange(1), x, v, np.array([1.0]), t0=np.zeros(1))
        pos_q, _ = predict_memory(mem, t=0.25)
        predicted = fmt.pos.dequantize(pos_q)
        assert predicted[0, 0] == pytest.approx(0.25, abs=1e-9)


def pair_terms(xi_q, vi, xj_q, vj, mj, eps2, fmt, i_index=None, host_index_j=None):
    """Per-pair (n_i, n_j, 7) contributions (acc, jerk, pot) read out of
    the pipeline tile by streaming one source at a time: the j-sum of a
    single pair is that pair.  The declared exponent (2^12) puts the
    quantum at 2^-43, far below the pair format's resolution here."""
    n_i, n_j = xi_q.shape[0], xj_q.shape[0]
    if host_index_j is None:
        host_index_j = np.arange(n_j)
    e = np.full((7, n_i), 12)
    terms = np.empty((n_i, n_j, 7))
    for j in range(n_j):
        hi, lo = partial_lanes(
            xi_q, vi, xj_q[j : j + 1].T, vj[j : j + 1].T, mj[j : j + 1],
            host_index_j[j : j + 1], e, eps2, fmt, i_index=i_index,
        )
        terms[:, j] = BlockFloatAccumulator(e).to_float_lanes(hi, lo).T
    return terms[:, :, :3], terms[:, :, 3:6], terms[:, :, 6]


class TestPipeline:
    def test_matches_float64_to_pair_precision(self, eps2):
        fmt = PipelineFormats.default()
        x, v, m = tiny_setup(32, seed=3)
        xq = fmt.pos.quantize(x)
        vw = fmt.word.round(v)
        mw = fmt.word.round(m)
        acc_c, jerk_c, pot_c = pair_terms(xq, vw, xq, vw, mw, eps2, fmt)
        # reference per-pair values
        dx = x[None] - x[:, None]
        r2 = np.einsum("ijk,ijk->ij", dx, dx) + eps2
        ref = (m[None, :] / r2**1.5)[:, :, None] * dx
        np.fill_diagonal(r2, np.inf)
        mask = ~np.eye(32, dtype=bool)
        rel = np.abs(acc_c - ref)[mask] / (np.abs(ref)[mask] + 1e-300)
        # within a few pair-format ulps plus storage rounding
        assert np.median(rel) < 1e-5
        del jerk_c, pot_c

    def test_self_pairs_zeroed(self, eps2):
        fmt = PipelineFormats.default()
        x, v, m = tiny_setup(8)
        xq = fmt.pos.quantize(x)
        acc_c, jerk_c, pot_c = pair_terms(xq, v, xq, v, m, eps2, fmt)
        np.testing.assert_array_equal(np.diagonal(pot_c), 0.0)
        assert np.all(np.abs(np.diagonal(acc_c, axis1=0, axis2=1)) == 0.0)
        assert np.all(pot_c[~np.eye(8, dtype=bool)] < 0.0)
        del jerk_c

    def test_self_mask_by_index(self, eps2):
        fmt = PipelineFormats.default()
        x, v, m = tiny_setup(6)
        xq = fmt.pos.quantize(x)
        # pretend target 0 and source 3 are the same particle
        i_index = np.arange(10, 16)
        host_index_j = np.array([20, 21, 22, 10, 24, 25])
        _, _, pot = pair_terms(
            xq, v, xq, v, m, eps2, fmt, i_index=i_index, host_index_j=host_index_j
        )
        assert pot[0, 3] == 0.0
        assert pot[1, 3] != 0.0


class TestNonFiniteTerms:
    """A word in j-memory that is not a number makes pair terms that
    are not numbers: no exponent holds them, so the saturation flag must
    rise (``nan >= 2^62`` is false; cast to an integer it would be
    garbage lanes) and the host must give up by name."""

    @pytest.mark.parametrize("tile", [partial_lanes, numpy_partial_lanes])
    @pytest.mark.parametrize("word", [np.nan, np.inf])
    def test_the_tile_raises_the_saturation_flag(self, eps2, tile, word):
        fmt = PipelineFormats.default()
        x, v, m = tiny_setup(12, seed=4)
        cj_v = np.ascontiguousarray(fmt.word.round(v).T)
        cj_v[1, 5] = word
        xq = fmt.pos.quantize(x)
        args = (
            xq[:4], fmt.word.round(v[:4]), np.ascontiguousarray(xq.T), cj_v, m,
            np.arange(12), np.full((7, 4), 200), eps2, fmt,
        )
        with pytest.raises(BlockFloatOverflow, match="saturates"), np.errstate(invalid="ignore"):
            tile(*args)

    @pytest.mark.parametrize("mode", ["batched", "faithful"])
    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    def test_the_host_retry_loop_gives_up_by_name(self, eps2, mode):
        x, v, m = tiny_setup(12, seed=4)
        v[5, 1] = np.nan
        emu = Grape6Emulator(eps2, emulation_mode=mode)
        emu.set_j_particles(x, v, m)
        with pytest.raises(BlockFloatOverflow, match="failed to converge"):
            emu.forces_on(x[:4], v[:4], np.arange(4))
        assert emu.stats.exponent_retries == 16
        assert emu.stats.force_evaluations == 0


class TestTileRowIndependence:
    """A row of the pipeline tile depends only on that target, its
    exponents and the j-set: the licence for cutting the i-block into
    tiles, hardware passes and chips at will."""

    N_J = 1500

    def setup_method(self):
        fmt = self.fmt = PipelineFormats.default()
        x, v, m = tiny_setup(self.N_J, seed=9)
        self.x, self.v = x, v
        self.cj_q = np.ascontiguousarray(fmt.pos.quantize(x).T)
        self.cj_v = np.ascontiguousarray(fmt.word.round(v).T)
        self.mj = fmt.word.round(m)
        # exponents that differ from row to row, all roomy enough
        self.e = 8 + np.arange(7 * self.N_J).reshape(7, self.N_J) % 5

    def lanes(self, rows, eps2):
        rows = np.asarray(rows, dtype=np.int64)
        return partial_lanes(
            self.fmt.pos.quantize(self.x[rows]), self.fmt.word.round(self.v[rows]),
            self.cj_q, self.cj_v, self.mj, np.arange(self.N_J),
            self.e[:, rows], eps2, self.fmt, i_index=rows,
        )

    def height(self):
        return pipeline.TILE_BYTES // (8 * 14 * self.N_J)

    def test_across_the_tile_boundary(self, eps2):
        """No rows, one row, one short of a tile, a tile, one over, and
        several tiles with a ragged last one, against rows done alone."""
        h = self.height()
        assert 2 <= h < 20  # the sizes below straddle it
        whole_hi, whole_lo = self.lanes(np.arange(3 * h + 1), eps2)
        alone = [self.lanes([r], eps2) for r in range(3 * h + 1)]
        np.testing.assert_array_equal(whole_hi, np.hstack([a[0] for a in alone]))
        np.testing.assert_array_equal(whole_lo, np.hstack([a[1] for a in alone]))
        for n_i in (0, 1, h - 1, h, h + 1):
            hi, lo = self.lanes(np.arange(n_i), eps2)
            assert hi.shape == lo.shape == (7, n_i)
            np.testing.assert_array_equal(hi, whole_hi[:, :n_i])
            np.testing.assert_array_equal(lo, whole_lo[:, :n_i])

    def test_any_row_subset_in_any_order(self, eps2):
        rows = np.random.default_rng(10).integers(0, self.N_J, 40)  # with repeats
        whole_hi, whole_lo = self.lanes(np.arange(self.N_J), eps2)
        hi, lo = self.lanes(rows, eps2)
        np.testing.assert_array_equal(hi, whole_hi[:, rows])
        np.testing.assert_array_equal(lo, whole_lo[:, rows])

    @pytest.mark.parametrize("tile_bytes", [1, 1 << 18, 1 << 24])
    def test_any_tile_height(self, eps2, monkeypatch, tile_bytes):
        """One row per tile, a quarter of the shipped height, everything
        in one tile."""
        want = self.lanes(np.arange(50), eps2)
        monkeypatch.setattr(pipeline, "TILE_BYTES", tile_bytes)
        got = self.lanes(np.arange(50), eps2)
        np.testing.assert_array_equal(got[0], want[0])
        np.testing.assert_array_equal(got[1], want[1])


class TestChipAndHierarchy:
    def test_chip_cycle_accounting(self, eps2):
        chip = GrapeChip(ChipConfig())
        chip.set_eps2(eps2)
        x, v, m = tiny_setup(100, seed=5)
        chip.load_j_particles(np.arange(100), x, v, m)
        e = BlockExponents(
            acc=suggest_exponent(np.ones(60)) + 8,
            jerk=suggest_exponent(np.ones(60)) + 8,
            pot=suggest_exponent(np.ones(60)) + 8,
        )
        fmt = chip.formats
        chip.partial_forces(fmt.pos.quantize(x[:60]), fmt.word.round(v[:60]), e)
        # 60 i-particles -> 2 passes of 48; each pass = 8 * 100 cycles
        assert chip.cycles == 2 * 8 * 100

    def test_batched_charges_what_the_faithful_schedule_accrues(self, eps2, monkeypatch):
        """Per-chip cycles and the pass / cycle counter totals, with one
        tracer lookup for the whole machine where the schedule has one a
        chip."""
        x, v, m = tiny_setup(100, seed=5)  # 64 chips: 36 hold 2, 28 hold 1
        lookups, cycles, counters = {}, {}, {}
        for mode in ("batched", "faithful"):
            emu = Grape6Emulator(eps2, boards=2, emulation_mode=mode)
            emu.set_j_particles(x, v, m)
            tracer = Tracer(enabled=True)
            calls = []
            monkeypatch.setattr(chip_module, "get_tracer", lambda: calls.append(1) or tracer)
            old = set_tracer(tracer)
            try:
                emu.forces_on(x[:60], v[:60], np.arange(60))
            finally:
                set_tracer(old)
            lookups[mode] = len(calls)
            cycles[mode] = [c.cycles for c in emu._all_chips]
            counters[mode] = {
                name: tracer.metrics.counter(name).value
                for name in ("grape.pipeline_passes", "grape.cycles")
            }
        assert cycles["batched"] == cycles["faithful"]
        assert counters["batched"] == counters["faithful"]
        assert counters["batched"] == {
            "grape.pipeline_passes": 2 * 64, "grape.cycles": 2 * 8 * 100,
        }
        assert lookups == {"batched": 1, "faithful": 64}

    def test_module_board_chip_counts(self):
        module = ProcessorModule()
        assert len(module.chips) == 4
        board = ProcessorBoard(BoardConfig())
        assert len(board.all_chips) == 32

    def test_emulator_stripes_j_particles(self, eps2):
        emu = Grape6Emulator(eps2, boards=2)
        x, v, m = tiny_setup(100, seed=6)
        emu.set_j_particles(x, v, m)
        assert emu.jmem_used == 100
        assert emu.n_chips == 64
        per_chip = [c.memory.n for c in emu._all_chips]
        assert max(per_chip) - min(per_chip) <= 1  # balanced striping

    def test_emulator_interaction_accounting(self, eps2):
        emu = Grape6Emulator(eps2, boards=1)
        x, v, m = tiny_setup(20, seed=7)
        emu.set_j_particles(x, v, m)
        res = emu.forces_on(x, v, np.arange(20))
        assert res.interactions == 20 * 20 - 20
        assert emu.stats.force_evaluations == 1

    def test_exponent_cache_reused(self, eps2):
        emu = Grape6Emulator(eps2, boards=1)
        x, v, m = tiny_setup(16, seed=8)
        emu.set_j_particles(x, v, m)
        emu.forces_on(x, v, np.arange(16))
        assert emu.exp_cache_entries == 16
        # second call must produce identical results via the cache
        res2 = emu.forces_on(x, v, np.arange(16))
        res3 = emu.forces_on(x, v, np.arange(16))
        np.testing.assert_array_equal(res2.acc, res3.acc)

    def test_forces_require_loaded_memory(self, eps2):
        emu = Grape6Emulator(eps2)
        with pytest.raises(RuntimeError):
            emu.forces_on(np.zeros((1, 3)), np.zeros((1, 3)))

    def test_accuracy_against_float64(self, eps2, small_plummer):
        s = small_plummer
        emu = Grape6Emulator(eps2, boards=1)
        emu.set_j_particles(s.pos, s.vel, s.mass)
        hw = emu.forces_on(s.pos, s.vel, np.arange(s.n))
        ref = DirectSummation(eps2)
        ref.set_j_particles(s.pos, s.vel, s.mass)
        sw = ref.forces_on(s.pos, s.vel, np.arange(s.n))
        rel = np.linalg.norm(hw.acc - sw.acc, axis=1) / np.linalg.norm(sw.acc, axis=1)
        assert rel.max() < 1e-6  # single-precision class


class TestGrape4Contrast:
    def test_order_dependence(self):
        rng = np.random.default_rng(9)
        contribs = rng.normal(0, 1, (200, 3)) * np.logspace(0, -6, 200)[:, None]
        results = [grape4_sum(contribs, b) for b in (1, 2, 3, 4)]
        # at least one pair of board counts must disagree (float order)
        assert any(
            not np.array_equal(results[i], results[j])
            for i in range(4)
            for j in range(i + 1, 4)
        )

    def test_close_to_true_sum(self):
        rng = np.random.default_rng(10)
        contribs = rng.normal(0, 1, (100, 3))
        ref = contribs.sum(axis=0)
        out = grape4_sum(contribs, 2, accumulator=FloatFormat(24))
        np.testing.assert_allclose(out, ref, rtol=1e-4, atol=1e-4)

    def test_validation(self):
        with pytest.raises(ValueError):
            grape4_sum(np.ones((3, 3)), 0)
