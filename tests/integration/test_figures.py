"""Reproduction anchors: every figure's qualitative content, asserted.

Each test pins one statement the paper makes about a figure — who wins,
by what factor, where the crossover falls.  Absolute wall-clock is not
compared (our substrate is a model, not the authors' testbed); shapes
and anchor magnitudes are.
"""

import numpy as np
import pytest

from repro.figures import FIGURES
from repro.perfmodel import MachineModel
from repro.perfmodel.report import Anchor, check_figure


def model(key: str, column: str) -> MachineModel:
    """The machine model behind one series of the figure table."""
    return FIGURES[key].model(column)


def anchor(key: str) -> Anchor:
    """The figure's paper anchor, evaluated against its one tolerance."""
    (found,) = check_figure(FIGURES[key])
    return found


class TestFig13SingleNode:
    def test_one_tflops_at_2e5(self):
        # "the performance of a single-node system is pretty good with
        # better than 1 Tflops at N = 2e5"
        tflop = anchor("fig13")
        assert tflop.within_band and tflop.reproduced >= tflop.paper_value

    def test_speed_practically_independent_of_softening(self):
        # "the achieved speed is practically independent of the choice
        # of the softening"
        for n in (1_000, 30_000, 1_000_000):
            speeds = [s.model().speed_gflops(n) for s in FIGURES["fig13"].series]
            assert max(speeds) / min(speeds) < 1.25

    def test_speed_rises_through_the_range(self):
        single = model("fig13", "gflops_eps_const")
        grid = [256, 2048, 16_384, 131_072, 1_000_000]
        speeds = [single.speed_gflops(n) for n in grid]
        assert all(a < b for a, b in zip(speeds, speeds[1:]))

    def test_below_single_node_peak(self):
        single = model("fig13", "gflops_eps_const")
        peak_gflops = single.machine.peak_flops / 1e9
        assert single.speed_gflops(2_000_000) < peak_gflops


class TestFig14TimePerStep:
    def test_cache_model_below_constant_fit_at_small_n(self):
        # "For small N, the cache-hit rate is higher and therefore the
        # calculation on the host is faster"
        single = model("fig14", "us_cache_model")
        assert single.time_per_step_us(500) < single.time_per_step_constant_host_us(500)

    def test_dma_overhead_visible_below_1000(self):
        # "For N < 1000 ... The overhead to invoke DMA operations
        # becomes visible": the hif share of T_step grows as N shrinks
        single = model("fig14", "us_comm")
        frac = {
            n: single.step_time_breakdown(n).hif_us / single.time_per_step_us(n)
            for n in (500, 50_000)
        }
        assert frac[500] > frac[50_000]

    def test_time_per_step_grows_at_large_n(self):
        single = model("fig14", "us_cache_model")
        assert single.time_per_step_us(1_000_000) > single.time_per_step_us(30_000)


class TestFig15MultiNode:
    def test_crossover_constant_softening_near_3000(self):
        # "the two-host system becomes faster than the single-host
        # system only at N ~ 3000"
        assert anchor("fig15_const").within_band

    def test_crossover_strong_softening_near_3e4(self):
        # "for eps = 4/N, this crossover point moves to around N ~ 3e4"
        assert anchor("fig15_4overN").within_band

    def test_softening_ordering_of_crossovers(self):
        assert (
            anchor("fig15_4overN").reproduced > 3 * anchor("fig15_const").reproduced
        )

    def test_four_nodes_beat_two_at_large_n(self):
        m2 = model("fig15_const", "gflops_2node")
        m4 = model("fig15_const", "gflops_4node")
        assert m4.speed_gflops(1_000_000) > m2.speed_gflops(1_000_000)


class TestFig16SyncWall:
    def test_inverse_n_scaling_at_small_n(self):
        # "For 'small' N (N < 1e4), the calculation time is inversely
        # proportional to the number of particles N"
        cluster = model("fig16", "us_total")
        t = {n: cluster.time_per_step_us(n) for n in (1_000, 2_000, 4_000)}
        # halving N roughly doubles time/step (within the block-size
        # power law's gamma ~ 0.86: ratio 2^0.86 ~ 1.8)
        assert 1.5 < t[1_000] / t[2_000] < 2.3
        assert 1.5 < t[2_000] / t[4_000] < 2.3

    def test_sync_dominates_small_n(self):
        b = model("fig16", "us_sync").step_time_breakdown(1_000)
        assert b.sync_us > 0.5 * b.total_us


class TestFig17MultiCluster:
    def test_crossover_beyond_1e5(self):
        # "The crossover point at which multi-cluster systems becomes
        # faster than single-cluster system is rather high (N ~ 1e5)"
        assert anchor("fig17").within_band

    def test_speedup_at_1e6_significantly_below_ideal(self):
        # "even for N = 1e6, the speedup factors achieved by
        # multi-cluster systems are significantly smaller than the
        # ideal speedup"
        s4 = model("fig17", "tflops_4node").speed_gflops(1_000_000)
        s16 = model("fig17", "tflops_16node").speed_gflops(1_000_000)
        speedup = s16 / s4
        assert 1.2 < speedup < 3.0  # ideal would be 4

    def test_ordering_at_small_n_reversed(self):
        # below the crossover the single cluster wins
        s4 = model("fig17", "tflops_4node").speed_gflops(10_000)
        s16 = model("fig17", "tflops_16node").speed_gflops(10_000)
        assert s4 > s16

    def test_two_clusters_between_one_and_four_at_large_n(self):
        n = 2_000_000
        s4, s8, s16 = (s.model().speed_gflops(n) for s in FIGURES["fig17"].series)
        assert s4 < s8 < s16


class TestFig18FullMachineWall:
    def test_inverse_n_scaling(self):
        # the latency-driven part of the wall falls off ~1/n_b; the
        # copy-exchange adds a bandwidth floor, so the total scaling is
        # a little shallower than fig. 16's single-cluster case
        full = model("fig18", "us_total")
        t = {n: full.time_per_step_us(n) for n in (4_000, 16_000)}
        assert t[4_000] / t[16_000] > 2.0
        # the pure synchronisation component scales exactly as 1/n_b
        s = {n: full.step_time_breakdown(n) for n in (4_000, 16_000)}
        nb_ratio = s[16_000].block_size / s[4_000].block_size
        assert s[4_000].sync_us / s[16_000].sync_us == pytest.approx(
            nb_ratio, rel=0.01
        )

    def test_multi_cluster_overhead_exceeds_single_cluster(self):
        # "this synchronization overhead is far more severe" (16 nodes)
        b4 = model("fig16", "us_total").step_time_breakdown(10_000)
        b16 = model("fig18", "us_total").step_time_breakdown(10_000)
        assert b16.sync_us + b16.exchange_us > b4.sync_us + b4.exchange_us


class TestFig19NICTuning:
    @pytest.fixture
    def models(self):
        return [s.model() for s in FIGURES["fig19"].series]

    def test_tuned_wins_everywhere(self, models):
        base, tuned = models
        for n in np.logspace(4, 6.25, 10):
            assert tuned.speed_gflops(int(n)) > base.speed_gflops(int(n))

    def test_improvement_50_to_100_percent_at_small_n(self, models):
        # "the performance is improved by 50-100% ... The improvement is
        # larger for smaller N"
        base, tuned = models
        gain_small = tuned.speed_gflops(10_000) / base.speed_gflops(10_000) - 1
        gain_large = tuned.speed_gflops(1_800_000) / base.speed_gflops(1_800_000) - 1
        assert gain_small > 0.5
        assert gain_small > gain_large

    def test_36_tflops_at_1_8m(self):
        # "For 1.8M particles, the measured speed reached 36.0 Tflops"
        assert anchor("fig19").within_band
