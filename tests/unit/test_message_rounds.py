"""The message-round primitive and the struct-of-arrays link store."""

import collections

import numpy as np
import pytest

from repro.config import NIC_INTEL82540EM, NIC_NS83820
from repro.models import plummer_model
from repro.parallel import (
    CopyAlgorithm,
    Grid2DAlgorithm,
    ParallelBlockIntegrator,
    SimNetwork,
    validate_comm_ledger,
)
from repro.parallel import ledger as ledger_module
from repro.parallel.ledger import KIND_COLLECTIVE, KIND_P2P
from repro.telemetry import Tracer

EPS2 = (1.0 / 64.0) ** 2


class TestRoundPrimitive:
    def test_round_equals_send_all_then_recv_all(self):
        """Clocks as if every message were sent from its sender's clock
        and then every one received; counters and ledger as if each
        message were a round of its own (neither depends on clocks)."""
        rounds = [
            ([0, 1, 2, 3], [1, 2, 3, 0], [100, 0, 127, 128], 7),
            ([1, 2, 3], [0, 0, 0], [56, 560, 5600], 3000),     # many to one
            ([2, 2, 2], [0, 1, 3], [640, 640, 640], -4),       # one to many
        ]
        net, twin = SimNetwork(4, NIC_NS83820), SimNetwork(4, NIC_NS83820)
        net.clock.advance(2, 33.25)
        t = [0.0, 0.0, 33.25, 0.0]
        for src, dst, nbytes, tag in rounds:
            net.message_round(src, dst, nbytes, tag)
            arrive = [t[s] + (100.0 + n / 60.0) for s, n in zip(src, nbytes)]
            for d, a in zip(dst, arrive):
                t[d] = max(t[d], a)
            for s, d, n in zip(src, dst, nbytes):
                twin.message_round([s], [d], [n], tag)
        assert net.clock.snapshot().tobytes() == np.array(t).tobytes()
        assert net.stats == twin.stats
        assert net.ledger.as_dict() == twin.ledger.as_dict()

    def test_self_sends_and_ragged_rounds_rejected(self):
        net = SimNetwork(3)
        with pytest.raises(ValueError):
            net.message_round([0, 1], [1, 1], [8, 8])
        with pytest.raises(ValueError):
            net.message_round([0, 1], [1, 2], [8])
        assert net.stats.messages == 0

    def test_schedule_rejects_self_sends_and_ragged_tables(self):
        net = SimNetwork(4)
        with pytest.raises(ValueError, match="self-sends"):
            net.shift_rounds([1, 4], np.zeros((2, 4)), [0, 0])
        with pytest.raises(ValueError, match="one tag per round"):
            net.shift_rounds([1, 2], np.zeros((2, 3)), [0, 0])
        with pytest.raises(ValueError, match="one tag per round"):
            net.shift_rounds([1, 2], np.zeros((2, 4)), [0])
        assert net.stats.messages == 0 and net.clock.elapsed == 0.0

    def test_empty_round_is_a_no_op(self):
        net = SimNetwork(2)
        net.message_round([], [], [])
        assert net.stats.messages == 0
        assert net.ledger.links == []
        assert net.clock.elapsed == 0.0

    def test_rounds_and_schedules_share_one_store(self):
        net = SimNetwork(2, NIC_NS83820)
        net.shift_rounds([1], [[600, 0]], [0])
        net.message_round([0], [1], [1200])
        link, _ = net.ledger.links
        assert (link.src, link.messages, link.bytes) == (0, 2, 1800)
        assert link.flight_hist.total == 110.0 + 120.0

    def test_collectives_without_a_per_message_path(self):
        net = SimNetwork(5, NIC_INTEL82540EM)
        net.allgather(nbytes_each=64)
        assert net.stats.messages == 5 * 4
        # one size per originating rank
        sizes = np.array([0, 128, 256, 384, 512])
        net.allgather(sizes, tag=9)
        p2p = [l for l in net.ledger.links if l.kind == KIND_P2P]
        assert sum(l.bytes for l in p2p) == 4 * sizes.sum()
        assert {l.bytes for l in p2p} == {sizes.sum() - s for s in sizes}


class TestLinkStore:
    def drive(self, net):
        rng = np.random.default_rng(11)
        for _ in range(40):
            k = int(rng.integers(1, net.n_ranks))
            net.shift_rounds([k], [rng.integers(0, 5000, net.n_ranks)],
                             [int(rng.choice([-3, 5]))])
        return net.ledger.as_dict()

    @pytest.mark.parametrize("cap", [1, 5, 6, 64])
    def test_fold_points_do_not_change_the_export(self, cap, monkeypatch):
        """Folding early, late, mid-run or for an oversized round gives
        the same per-link sums: the log preserves message order."""
        reference = self.drive(SimNetwork(6))
        monkeypatch.setattr(ledger_module, "ROUND_LOG_CAP", cap)
        assert self.drive(SimNetwork(6)) == reference

    def test_reading_mid_run_does_not_disturb_later_sums(self):
        net, twin = SimNetwork(4), SimNetwork(4)
        for i in range(30):
            for n in (net, twin):
                n.shift_rounds([1 + i % 3], [np.arange(4) * 77 + i], [0])
            net.ledger.summary()
        assert net.ledger.as_dict() == twin.ledger.as_dict()

    def test_store_grows_with_links_used_not_ranks_squared(self):
        net = SimNetwork(1000)
        store = net.ledger._store
        assert store.key.size == 0 and store._log is None
        net.message_round([5, 5], [7, 900], [2 ** 20, 3])
        net.barrier()
        net.ledger.summary()
        assert store.key.size == 2 + 1000 * 10
        assert store.size.bins.shape == (store.key.size, 22)
        assert store.flight.bins.shape[1] < 22
        for column in store._log:
            assert column.size == ledger_module.ROUND_LOG_CAP

    def test_links_sort_by_src_dst_kind(self):
        net = SimNetwork(3)
        net.message_round([2, 0, 0], [1, 2, 1], [1, 2, 3], tag=4)
        net.message_round([0], [1], [16], tag=-1)
        assert [(l.src, l.dst, l.kind) for l in net.ledger.links] == [
            (0, 1, KIND_COLLECTIVE), (0, 1, KIND_P2P),
            (0, 2, KIND_P2P), (2, 1, KIND_P2P)]
        validate_comm_ledger(net.ledger.as_dict())

    def test_reset_empties_log_and_rows(self):
        net = SimNetwork(4)
        net.barrier()
        net.ledger.summary()
        net.barrier()
        net.reset_stats()
        assert net.ledger.links == []
        assert net.ledger.messages == 0 and net.ledger.bytes == 0


class TestOpCount:
    @pytest.fixture
    def calls(self, monkeypatch):
        """Every network call, as (method, its first argument's length)."""
        calls = []

        def counted(name):
            original = getattr(SimNetwork, name)

            def wrapper(self, *args, **kwargs):
                calls.append((name, len(args[0])))
                return original(self, *args, **kwargs)

            monkeypatch.setattr(SimNetwork, name, wrapper)

        for name in ("shift_rounds", "message_round"):
            counted(name)
        return calls

    def test_exchange_and_barrier_issue_rounds_not_sends(self, calls):
        """One blockstep's coherence traffic at p = 16 is two network
        calls: the ring allgather's 15 shifts and the barrier's 4
        butterfly stages, each one schedule of rounds.  A per-round
        loop would show as one-row schedules."""
        net = SimNetwork(16)
        CopyAlgorithm(net, EPS2).exchange_updated(np.arange(40))
        assert calls == [("shift_rounds", 15), ("shift_rounds", 4)]
        assert net.stats.messages == (15 + 4) * 16
        assert net.stats.barriers == 1

    def test_grid_blockstep_is_two_rounds_and_a_barrier(self, calls):
        """The 4 x 4 grid's forces and exchange: all rows' reductions
        (3 partials each) in one many-to-one round, all diagonals'
        broadcasts (3 row + 3 column peers each) in one one-to-many
        round, and the barrier's 4 stages in one schedule."""
        s = plummer_model(40, seed=5)
        net = SimNetwork(16)
        grid = Grid2DAlgorithm(net, EPS2)
        grid.set_j_particles(s.pos, s.vel, s.mass)
        block = np.arange(0, 40, 3)  # members in every subset
        grid.forces_on(s.pos[block], s.vel[block], block)
        grid.exchange_updated(block)
        assert calls == [("message_round", 4 * 3), ("message_round", 4 * 6),
                         ("shift_rounds", 4)]
        assert net.stats.messages == 4 * 3 + 4 * 6 + 4 * 16
        assert net.stats.barriers == 1


#: Network counts of :func:`traced_run` of the copy algorithm on 5 hosts
#: at the commit before message rounds (scalar send/recv per message),
#: bit for bit.
PARENT_NET_COUNTS = {
    "messages": 420, "bytes": 79680, "barriers": 12, "barrier_rounds": 36,
    "barrier_skew_us": 181.52499999999532, "barrier_sync_us": 3609.5999999999967,
}

#: Network counts of :func:`traced_run` of the 3 x 3 grid at the commit
#: before the grid posted all rows' reductions, and all diagonals'
#: broadcasts, as one round each (one round per row and per diagonal),
#: bit for bit.
PARENT_GRID_NET_COUNTS = {
    "messages": 648, "bytes": 103200, "barriers": 12, "barrier_rounds": 48,
    "barrier_skew_us": 1369.1166666666668, "barrier_sync_us": 4812.7999999999965,
}


def traced_run(algorithm, p):
    """The network of plummer N = 24 run to t = 1/16 on ``algorithm``
    over p simulated hosts, traced, with a compute-cost hook."""
    net = SimNetwork(p)
    tracer = net.attach_tracer(Tracer(enabled=True))
    algo = algorithm(
        net, EPS2,
        compute_time_us=lambda rank, n_i, n_j: 0.25 * n_i * n_j + 0.375 * rank)
    integ = ParallelBlockIntegrator(
        plummer_model(24, seed=23), EPS2, algo, tracer=tracer)
    integ.run(1.0 / 16.0)
    return net


def net_counts(net):
    """The run's counts as the network's stats and ledger keep them; the
    barrier times summed in barrier order."""
    barriers = net.ledger.barrier_records
    return {
        "messages": net.stats.messages,
        "bytes": net.stats.bytes,
        "barriers": net.stats.barriers,
        "barrier_rounds": net.ledger.barrier_rounds,
        "barrier_skew_us": sum(b.skew_us for b in barriers),
        "barrier_sync_us": net.ledger.barrier_sync_us,
    }


class TestTracedMetrics:
    def test_net_metrics_match_the_scalar_implementation(self):
        net = traced_run(CopyAlgorithm, 5)
        assert net_counts(net) == PARENT_NET_COUNTS
        assert sum(e.n_particles for e in net.ledger.exchange_records) == 150

    def test_grid_net_metrics_match_one_round_per_row_and_diagonal(self):
        assert net_counts(traced_run(Grid2DAlgorithm, 9)) == PARENT_GRID_NET_COUNTS

    def test_tracer_resolved_once_per_call(self, monkeypatch):
        """The tracer property costs a global lookup; only the barrier
        resolves it, once, for its span; rounds and schedules never do,
        however many messages they carry."""
        lookups = collections.Counter()
        original = SimNetwork.tracer.fget

        def counting(self):
            lookups["tracer"] += 1
            return original(self)

        monkeypatch.setattr(SimNetwork, "tracer", property(counting))
        net = SimNetwork(16)
        net.barrier()
        assert lookups["tracer"] == 1
        net.allgather(640)
        assert lookups["tracer"] == 1
        net.shift_rounds([1, 2, 3], np.zeros((3, 16)), [5, -5, 5])
        net.message_round([0, 1], [2, 3], [8, 8])
        assert lookups["tracer"] == 1
