"""Remaining public-API surface: network overhead parameter, clock
helpers, profile binning options, octree node views, table formats."""

import numpy as np
import pytest

from repro.analysis import radial_profile
from repro.config import NIC_NS83820
from repro.io import format_table
from repro.models import plummer_model
from repro.parallel import SimNetwork, VirtualClock
from repro.treecode import Octree


class TestSimNetworkOverhead:
    def test_per_message_overhead_charged(self):
        plain = SimNetwork(2, NIC_NS83820)
        heavy = SimNetwork(2, NIC_NS83820, per_message_overhead_us=50.0)
        assert heavy.message_time_us(0) == plain.message_time_us(0) + 50.0

    def test_overhead_affects_barrier(self):
        plain = SimNetwork(4, NIC_NS83820)
        heavy = SimNetwork(4, NIC_NS83820, per_message_overhead_us=50.0)
        plain.barrier()
        heavy.barrier()
        assert heavy.clock.elapsed > plain.clock.elapsed


class TestVirtualClockHelpers:
    def test_advance_all_scalar_and_vector(self):
        clock = VirtualClock(3)
        clock.advance_all(10.0)
        assert clock.snapshot().tolist() == [10.0, 10.0, 10.0]
        clock.advance_all(np.array([1.0, 2.0, 3.0]))
        assert clock.snapshot().tolist() == [11.0, 12.0, 13.0]

    def test_snapshot_is_a_copy(self):
        clock = VirtualClock(2)
        snap = clock.snapshot()
        snap[0] = 99.0
        assert clock.elapsed == 0.0

    def test_needs_at_least_one_rank(self):
        with pytest.raises(ValueError):
            VirtualClock(0)


class TestProfileOptions:
    def test_linear_bins(self):
        s = plummer_model(512, seed=21)
        prof = radial_profile(s, n_bins=6, log_bins=False)
        widths = prof.r_outer - prof.r_inner
        np.testing.assert_allclose(widths, widths[0], rtol=1e-9)

    def test_explicit_range(self):
        s = plummer_model(512, seed=22)
        prof = radial_profile(s, n_bins=4, r_min=0.1, r_max=1.0)
        assert prof.r_inner[0] == pytest.approx(0.1)
        assert prof.r_outer[-1] == pytest.approx(1.0)

    def test_custom_center(self):
        s = plummer_model(256, seed=23)
        shifted = radial_profile(s, n_bins=5, center=np.array([5.0, 0.0, 0.0]))
        centred = radial_profile(s, n_bins=5)
        # wrong centre smears the density contrast
        assert shifted.density.max() < centred.density.max()


class TestOctreeNodeView:
    def test_node_fields(self):
        s = plummer_model(64, seed=24)
        tree = Octree(s.pos, s.mass, leaf_size=8)
        root = tree.node(0)
        assert root.index == 0
        assert not root.is_leaf
        assert root.mass == pytest.approx(1.0)
        assert root.n_children >= 1
        leaf = tree.node(tree.leaves()[0])
        assert leaf.is_leaf
        assert leaf.particle_end > leaf.particle_start


class TestTableFormatting:
    def test_custom_float_format(self):
        out = format_table(("x",), [(np.pi,)], float_format="{:.1f}")
        assert "3.1" in out
        assert "3.14" not in out

    def test_mixed_types(self):
        out = format_table(("a", "b", "c"), [(1, "two", 3.0)])
        assert "two" in out
