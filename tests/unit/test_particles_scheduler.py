"""ParticleSystem state container and the block scheduler."""

import numpy as np
import pytest

from repro.core.particles import ParticleSystem
from repro.core.scheduler import BlockScheduler


class TestParticleSystem:
    def test_basic_construction(self, small_plummer):
        s = small_plummer
        assert s.n == 64
        assert s.total_mass == pytest.approx(1.0)
        assert len(s) == 64

    def test_com_frame(self, small_plummer):
        s = small_plummer
        np.testing.assert_allclose(s.center_of_mass(), 0.0, atol=1e-14)
        np.testing.assert_allclose(s.momentum(), 0.0, atol=1e-14)

    def test_copy_is_deep(self, small_plummer):
        s = small_plummer
        s.dt[...] = 0.25
        c = s.copy()
        c.pos[0, 0] = 99.0
        c.dt[0] = 1.0
        assert s.pos[0, 0] != 99.0
        assert s.dt[0] == 0.25

    def test_angular_momentum_of_circular_binary(self, two_body):
        l = two_body.angular_momentum()
        # z-component positive (counter-clockwise), x/y zero
        assert l[2] > 0
        assert l[0] == pytest.approx(0.0)
        assert l[1] == pytest.approx(0.0)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            ParticleSystem(np.ones(3), np.zeros((4, 3)), np.zeros((3, 3)))
        with pytest.raises(ValueError):
            ParticleSystem(np.ones((2, 2)), np.zeros((2, 3)), np.zeros((2, 3)))

    def test_rejects_empty_and_negative_mass(self):
        with pytest.raises(ValueError):
            ParticleSystem(np.zeros(0), np.zeros((0, 3)), np.zeros((0, 3)))
        with pytest.raises(ValueError):
            ParticleSystem(np.array([-1.0]), np.zeros((1, 3)), np.zeros((1, 3)))


class TestBlockScheduler:
    def test_next_block_finds_minimum_group(self):
        t = np.zeros(4)
        dt = np.array([0.25, 0.125, 0.125, 0.5])
        sched = BlockScheduler(t, dt)
        t_block, idx = sched.next_block()
        assert t_block == 0.125
        np.testing.assert_array_equal(idx, [1, 2])

    def test_next_time_is_the_block_time_without_the_block(self):
        sched = BlockScheduler(np.array([0.0, 0.25, 0.0]), np.array([0.5, 0.125, 0.375]))
        assert sched.next_time() == sched.next_block()[0] == 0.375
        assert isinstance(sched.next_time(), float)
        sched.update(np.array([1, 2]), 0.375, np.array([0.125, 0.25]))
        assert sched.next_time() == sched.next_block()[0] == 0.5

    def test_the_answer_is_found_once_until_the_next_update(self):
        """A run loop's ``next_time`` and the step's ``next_block`` share
        one scan: the answer is kept until ``update``, and a scheduler
        restored from ``t_next`` finds the same block."""
        sched = BlockScheduler(np.zeros(4), np.array([0.25, 0.125, 0.125, 0.5]))
        t_block = sched.next_time()
        answer = sched.next_block()
        assert sched.next_block() is answer and answer[0] == t_block == 0.125
        restored = BlockScheduler.from_t_next(sched.t_next)
        np.testing.assert_array_equal(restored.next_block()[1], answer[1])
        sched.update(answer[1], t_block, np.array([0.125, 0.25]))
        assert sched.next_block() is not answer
        assert sched.next_time() == 0.25
        np.testing.assert_array_equal(sched.next_block()[1], [0, 1])

    def test_the_block_is_int64_on_every_platform(self):
        """``advance_block`` points a C ``int64_t *`` at it."""
        sched = BlockScheduler(np.zeros(3), np.array([0.5, 0.125, 0.125]))
        block = sched.next_block()[1]
        assert block.dtype == np.int64 and block.flags.c_contiguous

    def test_update_advances_schedule(self):
        t = np.zeros(3)
        dt = np.array([0.25, 0.125, 0.5])
        sched = BlockScheduler(t, dt)
        t_block, idx = sched.next_block()
        sched.update(idx, t_block, np.array([0.125]))
        t2, idx2 = sched.next_block()
        assert t2 == 0.25
        assert set(idx2.tolist()) == {0, 1}

    def test_exact_equality_grouping(self):
        # block times are sums of powers of two: exact float equality
        t = np.array([0.0, 0.125, 0.25])
        dt = np.array([0.375, 0.25, 0.125])
        sched = BlockScheduler(t, dt)
        t_block, idx = sched.next_block()
        assert t_block == 0.375
        assert idx.size == 3

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            BlockScheduler(np.zeros(3), np.array([0.1, -0.1, 0.1]))
        with pytest.raises(ValueError):
            BlockScheduler(np.zeros((2, 2)), np.zeros((2, 2)))

    def test_t_next_readonly(self):
        sched = BlockScheduler(np.zeros(2), np.full(2, 0.25))
        with pytest.raises(ValueError):
            sched.t_next[0] = 0.0

    def test_dry_run_block_sizes(self):
        t = np.zeros(4)
        dt = np.array([0.25, 0.25, 0.5, 0.5])
        sched = BlockScheduler(t, dt)
        sizes = sched.block_sizes_until(t, dt, t_end=0.5)
        # t=0.25: the two fast particles; t=0.5: all four
        np.testing.assert_array_equal(sizes, [2, 4])
