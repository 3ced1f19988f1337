"""Property tests pinning the batched datapath to the faithful one.

The batched emulator datapath (`repro.hardware.batched`) rests on the
paper's section-3.4 argument: block-floating-point accumulation makes
the force a pure function of the multiset of quantised pairwise
contributions, so evaluating all chips' contributions in one tile must
be *bit-identical* to the per-chip hardware schedule — for every
machine partition, through overflow retries, and in predictor mode.
These tests are the licence for the fast path; if any of them fails,
the batched mode is not an emulator any more.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import BoardConfig
from repro.forces.grape_api import Grape6Library
from repro.hardware import Grape6Emulator

pytestmark = pytest.mark.tiers

EPS2 = 1.0 / 4096.0

#: The partitions the acceptance criteria name: one single-chip board,
#: one full 32-chip board, and a 4-board host.
PARTITIONS = [
    dict(boards=1, board_config=BoardConfig(chips_per_module=1, modules=1)),
    dict(boards=1, board_config=None),
    dict(boards=4, board_config=None),
]


def _system(n: int, seed: int):
    rng = np.random.default_rng(seed)
    x = rng.normal(0, 1, (n, 3))
    v = rng.normal(0, 0.5, (n, 3))
    m = rng.uniform(0.1, 1.0, n) / n
    return x, v, m


def _pair(partition, n=40, seed=11, **kwargs):
    """Matched (faithful, batched) emulators with the same j-set."""
    x, v, m = _system(n, seed)
    emus = []
    for mode in ("faithful", "batched"):
        emu = Grape6Emulator(EPS2, emulation_mode=mode, **partition, **kwargs)
        emu.set_j_particles(x, v, m)
        emus.append(emu)
    return x, v, emus


def assert_bit_identical(a, b):
    np.testing.assert_array_equal(a.acc, b.acc)
    np.testing.assert_array_equal(a.jerk, b.jerk)
    np.testing.assert_array_equal(a.pot, b.pot)


class TestModeBitIdentity:
    @pytest.mark.parametrize("partition", PARTITIONS)
    def test_modes_identical_across_partitions(self, partition):
        """Acceptance criterion: exact acc/jerk/pot equality between
        the datapaths on 1x1-chip, 1x32-chip and 4-board machines."""
        x, v, (faithful, batched) = _pair(partition)
        idx = np.arange(x.shape[0])
        assert_bit_identical(
            faithful.forces_on(x, v, idx), batched.forces_on(x, v, idx)
        )

    @pytest.mark.parametrize("partition", PARTITIONS)
    def test_modes_identical_without_self_exclusion(self, partition):
        x, v, (faithful, batched) = _pair(partition, seed=12)
        targets = x[::3] + 0.25
        tv = v[::3]
        assert_bit_identical(
            faithful.forces_on(targets, tv), batched.forces_on(targets, tv)
        )

    def test_modes_identical_through_overflow_retry(self):
        """A hostile exponent guess forces BlockFloatOverflow retries
        on both paths; counts and results must agree bit for bit."""
        x, v, (faithful, batched) = _pair(PARTITIONS[1], exponent_guard=-20)
        idx = np.arange(x.shape[0])
        rf = faithful.forces_on(x, v, idx)
        rb = batched.forces_on(x, v, idx)
        assert faithful.stats.exponent_retries > 0
        assert batched.stats.exponent_retries == faithful.stats.exponent_retries
        assert_bit_identical(rf, rb)

    @pytest.mark.parametrize("partition", PARTITIONS)
    def test_modes_identical_in_predictor_mode(self, partition):
        """t is not None: the (emulated) on-chip predictor pipelines
        extrapolate the gathered set exactly like the per-chip ones."""
        x, v, (faithful, batched) = _pair(partition, seed=13)
        idx = np.arange(x.shape[0])
        assert_bit_identical(
            faithful.forces_on(x, v, idx, t=0.125),
            batched.forces_on(x, v, idx, t=0.125),
        )

    def test_predictor_mode_through_host_library(self):
        """Full g6_* flow with uploaded derivatives and ti, both modes."""
        n = 32
        rng = np.random.default_rng(21)
        x, v, m = _system(n, 21)
        a = rng.normal(0, 0.3, (n, 3))
        jerk = rng.normal(0, 0.1, (n, 3))
        results = []
        for mode in ("faithful", "batched"):
            lib = Grape6Library(n, EPS2, backend="emulator", emulation_mode=mode)
            lib.g6_set_j_particles(np.arange(n), np.zeros(n), m, x, v, a=a, jerk=jerk)
            lib.g6_set_ti(0.0625)
            results.append(lib.g6calc(x, v, np.arange(n)))
        assert_bit_identical(results[0], results[1])

    def test_cycle_accounting_matches_faithful(self):
        """Machine-time attribution: retry-free calls charge each chip
        exactly what the hardware schedule would."""
        x, v, (faithful, batched) = _pair(PARTITIONS[1], seed=14)
        idx = np.arange(x.shape[0])
        faithful.forces_on(x, v, idx)
        batched.forces_on(x, v, idx)
        for cf, cb in zip(faithful._all_chips, batched._all_chips):
            assert cf.cycles == cb.cycles
        assert faithful.total_cycles == batched.total_cycles

    @settings(max_examples=10, deadline=None)
    @given(st.integers(4, 60), st.integers(0, 1000), st.integers(1, 4))
    def test_modes_identical_hypothesis(self, n, seed, boards):
        """Random systems, random board counts: the datapaths never
        diverge, and both reproduce the boards=1 batched result (the
        machine-size-independence property, cross-mode)."""
        x, v, m = _system(n, seed)
        idx = np.arange(n)
        results = []
        for mode in ("faithful", "batched"):
            emu = Grape6Emulator(EPS2, boards=boards, emulation_mode=mode)
            emu.set_j_particles(x, v, m)
            results.append(emu.forces_on(x, v, idx))
        assert_bit_identical(results[0], results[1])


class TestBatchedPlumbing:
    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError):
            Grape6Emulator(EPS2, emulation_mode="warp-speed")

    def test_unchanged_jset_reload_elided(self):
        x, v, m = _system(24, 31)
        emu = Grape6Emulator(EPS2)
        emu.set_j_particles(x, v, m)
        r1 = emu.forces_on(x, v, np.arange(24))
        emu.set_j_particles(x, v, m)  # identical bytes: elided
        r2 = emu.forces_on(x, v, np.arange(24))
        assert emu.stats.jmem_loads == 2
        assert emu.stats.jmem_loads_elided == 1
        assert_bit_identical(r1, r2)

    def test_changed_jset_reload_not_elided(self):
        x, v, m = _system(24, 32)
        emu = Grape6Emulator(EPS2)
        emu.set_j_particles(x, v, m)
        x2 = x.copy()
        x2[0, 0] += 1.0e-9
        emu.set_j_particles(x2, v, m)
        assert emu.stats.jmem_loads_elided == 0
        assert emu.jmem_used == 24

    def test_gather_invalidated_by_direct_chip_load(self):
        """g6-style direct memory writes bump the write generation and
        force a gather rebuild — no stale batched results."""
        x, v, m = _system(24, 33)
        emu = Grape6Emulator(EPS2)
        emu.set_j_particles(x, v, m)
        emu.forces_on(x, v, np.arange(24))
        # rewrite one chip's memory behind set_j_particles' back
        chip = emu._all_chips[0]
        sel = chip.memory.host_index.copy()
        emu2 = Grape6Emulator(EPS2, emulation_mode="faithful")
        emu2.set_j_particles(x, v, m)
        x_shift = x + 0.5
        chip.load_j_particles(sel, x_shift[sel], v[sel], m[sel])
        emu2._all_chips[0].load_j_particles(sel, x_shift[sel], v[sel], m[sel])
        assert_bit_identical(
            emu2.forces_on(x, v, np.arange(24)),
            emu.forces_on(x, v, np.arange(24)),
        )

    def test_degraded_chip_register_falls_back_to_faithful(self):
        """A mis-programmed softening register (the self-test's fault
        injection) must stay visible under the default batched mode."""
        x, v, m = _system(24, 34)
        good = Grape6Emulator(EPS2)
        good.set_j_particles(x, v, m)
        ok = good.forces_on(x, v, np.arange(24))
        bad = Grape6Emulator(EPS2)
        bad.boards[0].set_eps2(EPS2 * 4.0)
        bad.set_j_particles(x, v, m)
        broken = bad.forces_on(x, v, np.arange(24))
        assert not np.array_equal(ok.acc, broken.acc)
