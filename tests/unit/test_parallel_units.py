"""Virtual clocks, the simulated network, topology and barrier costs."""


import numpy as np
import pytest

from repro.config import NIC_INTEL82540EM, NIC_NS83820
from repro.parallel import Grid2D, SimNetwork, VirtualClock
from repro.parallel.barrier import butterfly_barrier_us, butterfly_rounds, mpich_barrier_us


class TestVirtualClock:
    def test_advance_and_elapsed(self):
        clock = VirtualClock(3)
        clock.advance(0, 100.0)
        clock.advance(1, 50.0)
        assert clock.snapshot().tolist() == [100.0, 50.0, 0.0]
        assert clock.elapsed == 100.0

    def test_wait_until_never_rewinds(self):
        clock = VirtualClock(2)
        clock.advance(0, 100.0)
        clock.wait_until_many(np.array([0, 1]), np.array([50.0, 50.0]))
        assert clock.snapshot().tolist() == [100.0, 50.0]
        clock.wait_until_many(np.array([0, 0]), np.array([150.0, 120.0]))
        assert clock.snapshot().tolist() == [150.0, 50.0]

    def test_synchronize_jumps_to_max(self):
        clock = VirtualClock(3)
        clock.advance(2, 77.0)
        t = clock.synchronize()
        assert t == 77.0
        assert clock.snapshot().tolist() == [77.0] * 3

    def test_negative_advance_rejected(self):
        clock = VirtualClock(1)
        with pytest.raises(ValueError):
            clock.advance(0, -1.0)


class TestSimNetwork:
    def test_message_time_model(self):
        net = SimNetwork(2, NIC_NS83820)
        # 200us RTT -> 100us one-way; 60 MB/s == 60 bytes/us
        assert net.message_time_us(0) == pytest.approx(100.0)
        assert net.message_time_us(6000) == pytest.approx(200.0)

    def test_message_round_moves_time(self):
        net = SimNetwork(2, NIC_NS83820)
        net.message_round([0], [1], [600])
        assert net.clock.snapshot().tolist() == pytest.approx([0.0, 110.0])
        assert net.stats.messages == 1
        assert net.stats.bytes == 600

    def test_self_send_rejected(self):
        net = SimNetwork(2)
        with pytest.raises(ValueError):
            net.message_round([0], [0], [8])

    def test_barrier_synchronises_clocks(self):
        net = SimNetwork(4, NIC_NS83820)
        net.clock.advance(2, 500.0)
        net.barrier()
        assert len(set(net.clock.snapshot().tolist())) == 1
        assert net.stats.barriers == 1
        # barrier must cost at least the straggler + rounds * latency
        assert net.clock.elapsed >= 500.0 + 2 * 100.0

    def test_allgather(self):
        # p - 1 shifts: every rank receives every other rank's share
        net = SimNetwork(4)
        net.allgather(nbytes_each=64)
        assert net.stats.messages == 4 * 3
        assert {(l.src, l.dst) for l in net.ledger.links} == {
            (r, (r + 1) % 4) for r in range(4)}
        assert {l.bytes for l in net.ledger.links} == {3 * 64}

    def test_faster_nic_is_faster(self):
        slow = SimNetwork(4, NIC_NS83820)
        fast = SimNetwork(4, NIC_INTEL82540EM)
        slow.barrier()
        fast.barrier()
        assert fast.clock.elapsed < slow.clock.elapsed


class TestGrid2D:
    def test_square_requirement(self):
        assert Grid2D.from_ranks(4).r == 2
        assert Grid2D.from_ranks(9).r == 3
        with pytest.raises(ValueError):
            Grid2D.from_ranks(6)

    def test_rank_coord_roundtrip(self):
        g = Grid2D(3)
        for rank in range(9):
            row, col = g.coords(rank)
            assert g.rank(row, col) == rank

    def test_rows_cols_diagonal(self):
        g = Grid2D(3)
        assert g.row_ranks(1) == [3, 4, 5]
        assert g.col_ranks(1) == [1, 4, 7]
        assert g.diagonal() == [0, 4, 8]

    def test_subsets_partition(self):
        g = Grid2D(3)
        subsets = g.subset_slices(10)
        merged = np.concatenate(subsets)
        np.testing.assert_array_equal(np.sort(merged), np.arange(10))

    def test_bounds_checks(self):
        g = Grid2D(2)
        with pytest.raises(IndexError):
            g.rank(2, 0)
        with pytest.raises(IndexError):
            g.coords(4)


class TestBarrierCosts:
    def test_rounds(self):
        assert butterfly_rounds(1) == 0
        assert butterfly_rounds(2) == 1
        assert butterfly_rounds(4) == 2
        assert butterfly_rounds(16) == 4
        assert butterfly_rounds(5) == 3

    def test_cost_scales_with_log_p(self):
        c2 = butterfly_barrier_us(2, NIC_NS83820)
        c16 = butterfly_barrier_us(16, NIC_NS83820)
        assert c16 == pytest.approx(4 * c2, rel=0.01)

    def test_mpich_is_twice_butterfly(self):
        # "about two times faster than the use of MPI_barrier"
        assert mpich_barrier_us(8, NIC_NS83820) == pytest.approx(
            2 * butterfly_barrier_us(8, NIC_NS83820)
        )

    def test_analytic_matches_simulated(self):
        # the executable barrier and the analytic cost must agree
        for p in (2, 4, 8, 16):
            net = SimNetwork(p, NIC_NS83820)
            net.barrier()
            analytic = butterfly_barrier_us(p, NIC_NS83820)
            assert net.clock.elapsed == pytest.approx(analytic, rel=0.05)

    @pytest.mark.parametrize("nic", [NIC_NS83820, NIC_INTEL82540EM],
                             ids=lambda n: n.name)
    @pytest.mark.parametrize("p", [2, 3, 4, 5, 6, 7, 8, 11, 16])
    def test_analytic_matches_simulated_both_nics_any_p(self, nic, p):
        """Pin butterfly_barrier_us against the executable barrier for
        both paper NICs and non-power-of-two rank counts.  The ledger's
        sync cost (release - last arrival) is the pure rounds x flight
        term, exactly what the analytic model prices — even when ranks
        arrive skewed."""
        net = SimNetwork(p, nic)
        # skew the entry so sync_us (not elapsed) carries the agreement
        net.clock.advance(p - 1, 123.0)
        net.barrier()
        record = net.ledger.barrier_records[0]
        analytic = butterfly_barrier_us(p, nic)
        assert record.rounds == butterfly_rounds(p)
        assert record.sync_us == pytest.approx(analytic, rel=1e-9)
        # the straggler is the rank that arrived last; its wait is the
        # smallest (pure sync), everyone else also pays the skew
        assert record.straggler == p - 1
        assert record.wait_us[p - 1] == min(record.wait_us)

    @pytest.mark.parametrize("p", [2, 3, 4, 6, 8, 16])
    def test_mpich_ratio_vs_simulated(self, p):
        """The paper's "about two times faster than MPI_Barrier" claim,
        pinned against the *simulated* barrier: mpich_barrier_us must
        stay 2x the executable barrier's measured sync cost."""
        net = SimNetwork(p, NIC_NS83820)
        net.barrier()
        sync = net.ledger.barrier_records[0].sync_us
        assert mpich_barrier_us(p, NIC_NS83820) == pytest.approx(
            2.0 * sync, rel=1e-9
        )
