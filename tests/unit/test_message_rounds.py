"""The message-round primitive and the struct-of-arrays link store."""

import collections

import numpy as np
import pytest

from repro.config import NIC_INTEL82540EM, NIC_NS83820
from repro.models import plummer_model
from repro.parallel import (
    CopyAlgorithm,
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
        rounds = [
            ([0, 1, 2, 3], [1, 2, 3, 0], [100, 0, 127, 128], 7),
            ([1, 2, 3], [0, 0, 0], [56, 560, 5600], 3000),     # many to one
            ([2, 2, 2], [0, 1, 3], [640, 640, 640], -4),       # one to many
        ]
        net, twin = SimNetwork(4, NIC_NS83820), SimNetwork(4, NIC_NS83820)
        net.clock.advance(2, 33.25)
        twin.clock.advance(2, 33.25)
        for src, dst, nbytes, tag in rounds:
            net.message_round(src, dst, nbytes, tag)
            for s, d, n in zip(src, dst, nbytes):
                twin.send(s, d, None, n, tag=tag)
            for s, d in zip(src, dst):
                twin.recv(d, s, tag=tag)
        assert net.clock.snapshot().tobytes() == twin.clock.snapshot().tobytes()
        assert net.stats == twin.stats
        assert net.ledger.as_dict() == twin.ledger.as_dict()

    def test_payloads_arrive_at_their_receivers(self):
        net = SimNetwork(4)
        delivered = net.message_round(
            [0, 3], [2, 1], [8, 8], payloads=[["a", "list"], "b"])
        assert delivered.tolist() == [None, "b", ["a", "list"], None]
        assert net.shift_round(1, np.full(4, 8), payloads="wxyz").tolist() \
            == ["z", "w", "x", "y"]

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

    def test_scalar_send_and_rounds_share_one_store(self):
        net = SimNetwork(2, NIC_NS83820)
        net.send(0, 1, "x", nbytes=600)
        net.recv(1, 0)
        net.message_round([0], [1], [1200])
        (link,) = net.ledger.links
        assert (link.messages, link.bytes) == (2, 1800)
        assert link.flight_hist.total == 110.0 + 120.0

    def test_collectives_without_a_per_message_path(self):
        net = SimNetwork(5, NIC_INTEL82540EM)
        assert net.bcast(root=3, payload=("t", 1), nbytes=100) == [("t", 1)] * 5
        assert net.stats.messages == 4
        gathered = net.allgather([[r] for r in range(5)], nbytes_each=64)
        assert gathered == [[[q] for q in range(5)]] * 5
        assert net.stats.messages == 4 + 5 * 4
        # cost-only form, one size per originating rank
        sizes = np.array([0, 128, 256, 384, 512])
        assert net.allgather(None, sizes, tag=9) is None
        p2p = [l for l in net.ledger.links if l.kind == KIND_P2P]
        assert sum(l.bytes for l in p2p) == 4 * sizes.sum()
        assert {l.bytes for l in p2p} == {sizes.sum() - s for s in sizes}


class TestLinkStore:
    def drive(self, net):
        rng = np.random.default_rng(11)
        for _ in range(40):
            k = int(rng.integers(1, net.n_ranks))
            net.shift_round(k, rng.integers(0, 5000, net.n_ranks),
                            tag=int(rng.choice([-3, 5])))
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
                n.shift_round(1 + i % 3, np.arange(4) * 77 + i)
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
    def test_exchange_and_barrier_issue_rounds_not_sends(self, monkeypatch):
        """One blockstep's coherence traffic at p = 16 is two network
        calls: the ring allgather's 15 shifts and the barrier's 4
        butterfly stages, each one schedule of rounds.  A per-round
        loop would show as single rounds, a per-message one as sends."""
        calls = []

        def counted(name):
            original = getattr(SimNetwork, name)

            def wrapper(self, *args, **kwargs):
                calls.append((name, len(args[0])))
                return original(self, *args, **kwargs)

            monkeypatch.setattr(SimNetwork, name, wrapper)

        for name in ("shift_rounds", "message_round", "send"):
            counted(name)
        net = SimNetwork(16)
        CopyAlgorithm(net, EPS2).exchange_updated(np.arange(40))
        assert calls == [("shift_rounds", 15), ("shift_rounds", 4)]
        assert net.stats.messages == (15 + 4) * 16
        assert net.stats.barriers == 1
        # payloads ride along in memory: the same one schedule
        calls.clear()
        net.allgather(list(range(16)), 640)
        assert calls == [("shift_rounds", 15)]


#: ``net.*`` metrics of :func:`traced_copy_run` at the commit before
#: message rounds (scalar send/recv per message), bit for bit.
PARENT_NET_METRICS = {
    "net.barrier_rounds": {"type": "counter", "value": 36},
    "net.barrier_skew_us": {
        "type": "histogram", "count": 12, "total": 181.52499999999532,
        "mean": 15.127083333332942, "std": 1.5646859708901601,
        "min": 14.158333333332848, "max": 19.783333333333303,
        "p50": 16.0, "p90": 16.0, "p99": 19.783333333333303,
        "bins": {"4": 11, "5": 1}},
    "net.barrier_sync_us": {
        "type": "histogram", "count": 12, "total": 3609.5999999999967,
        "mean": 300.7999999999997, "std": 0.0,
        "min": 300.7999999999993, "max": 300.80000000000064,
        "p50": 300.80000000000064, "p90": 300.80000000000064,
        "p99": 300.80000000000064, "bins": {"9": 12}},
    "net.barriers": {"type": "counter", "value": 12},
    "net.bytes": {"type": "counter", "value": 79680},
    "net.exchange_particles": {"type": "counter", "value": 150},
    "net.message_bytes": {
        "type": "histogram", "count": 420, "total": 79680.0,
        "mean": 189.71428571428572, "std": 227.62164573133674,
        "min": 0.0, "max": 640.0, "p50": 256.0, "p90": 640.0, "p99": 640.0,
        "bins": {"0": 28, "5": 180, "8": 76, "9": 48, "10": 88}},
    "net.message_us": {
        "type": "histogram", "count": 420, "total": 43328.00000000015,
        "mean": 103.16190476190512, "std": 3.793694095512261,
        "min": 100.0, "max": 110.66666666666667,
        "p50": 110.66666666666667, "p90": 110.66666666666667,
        "p99": 110.66666666666667, "bins": {"7": 420}},
    "net.messages": {"type": "counter", "value": 420},
    "net.recv_wait_us": {
        "type": "histogram", "count": 420, "total": 43327.999999999854,
        "mean": 103.16190476190441, "std": 8.820848646407406,
        "min": 80.48333333333335, "max": 122.6916666666666,
        "p50": 122.6916666666666, "p90": 122.6916666666666,
        "p99": 122.6916666666666, "bins": {"7": 420}},
}


def traced_copy_run():
    net = SimNetwork(5)
    tracer = net.attach_tracer(Tracer(enabled=True))
    algo = CopyAlgorithm(
        net, EPS2,
        compute_time_us=lambda rank, n_i, n_j: 0.25 * n_i * n_j + 0.375 * rank)
    integ = ParallelBlockIntegrator(
        plummer_model(24, seed=23), EPS2, algo, tracer=tracer)
    integ.run(1.0 / 16.0)
    return tracer


class TestTracedMetrics:
    def test_net_metrics_match_the_scalar_implementation(self):
        snapshot = traced_copy_run().metrics.snapshot()
        net = {k: v for k, v in snapshot.items() if k.startswith("net.")}
        assert net == PARENT_NET_METRICS

    def test_no_wait_no_histogram(self):
        """A receiver already past the arrival time observes nothing,
        as a scalar ``recv`` would not."""
        net = SimNetwork(2)
        tracer = net.attach_tracer(Tracer(enabled=True))
        net.clock.advance(1, 1.0e6)
        net.message_round([0], [1], [64])
        assert "net.recv_wait_us" not in tracer.metrics
        assert tracer.metrics.histogram("net.message_us").count == 1

    def test_tracer_resolved_once_per_call(self, monkeypatch):
        """The tracer property costs a global lookup; a network call
        resolves it once, however many rounds and messages it carries;
        the barrier adds one for its span."""
        lookups = collections.Counter()
        original = SimNetwork.tracer.fget

        def counting(self):
            lookups["tracer"] += 1
            return original(self)

        monkeypatch.setattr(SimNetwork, "tracer", property(counting))
        net = SimNetwork(16)
        net.barrier()
        assert lookups["tracer"] == 2
        net.allgather(None, 640)
        net.allgather(list(range(16)), 640)
        assert lookups["tracer"] == 4
        net.shift_rounds([1, 2, 3], np.zeros((3, 16)), [5, -5, 5])
        net.message_round([0, 1], [2, 3], [8, 8])
        assert lookups["tracer"] == 6
