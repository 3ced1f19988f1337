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


#: ``net.*`` metrics of :func:`traced_grid_run` at the commit before
#: the grid posted all rows' reductions, and all diagonals' broadcasts,
#: as one round each (one round per row and per diagonal), bit for bit.
PARENT_GRID_NET_METRICS = {
    "net.barrier_rounds": {"type": "counter", "value": 48},
    "net.barrier_skew_us": {
        "type": "histogram", "count": 12, "total": 1369.1166666666668,
        "mean": 114.09305555555557, "std": 8.153967474241705,
        "min": 104.88333333333335, "max": 127.79166666666697,
        "p50": 127.79166666666697, "p90": 127.79166666666697,
        "p99": 127.79166666666697, "bins": {"7": 12}},
    "net.barrier_sync_us": {
        "type": "histogram", "count": 12, "total": 4812.7999999999965,
        "mean": 401.0666666666664, "std": 5.3947966093944364e-06,
        "min": 401.0666666666657, "max": 401.0666666666675,
        "p50": 401.0666666666675, "p90": 401.0666666666675,
        "p99": 401.0666666666675, "bins": {"9": 12}},
    "net.barriers": {"type": "counter", "value": 12},
    "net.bytes": {"type": "counter", "value": 103200},
    "net.message_bytes": {
        "type": "histogram", "count": 648, "total": 103200.0,
        "mean": 159.25925925925927, "std": 283.52811508542806,
        "min": 16.0, "max": 1024.0, "p50": 32.0, "p90": 1024.0,
        "p99": 1024.0,
        "bins": {"5": 432, "6": 20, "7": 8, "8": 50, "9": 70, "10": 32,
                 "11": 36}},
    "net.message_us": {
        "type": "histogram", "count": 648, "total": 66520.00000000065,
        "mean": 102.65432098765532, "std": 4.725468584722215,
        "min": 100.26666666666667, "max": 117.06666666666666,
        "p50": 117.06666666666666, "p90": 117.06666666666666,
        "p99": 117.06666666666666, "bins": {"7": 648}},
    "net.messages": {"type": "counter", "value": 648},
    "net.recv_wait_us": {
        "type": "histogram", "count": 540, "total": 63047.24166666658,
        "mean": 116.75415123456774, "std": 71.1861365300788,
        "min": 0.375, "max": 227.7833333333333,
        "p50": 128.0, "p90": 227.7833333333333, "p99": 227.7833333333333,
        "bins": {"0": 56, "1": 14, "2": 8, "3": 10, "4": 6, "5": 2,
                 "7": 276, "8": 168}},
}


def traced_run(algorithm, p):
    """The tracer of plummer N = 24 run to t = 1/16 on ``algorithm``
    over p simulated hosts, with a compute-cost hook."""
    net = SimNetwork(p)
    tracer = net.attach_tracer(Tracer(enabled=True))
    algo = algorithm(
        net, EPS2,
        compute_time_us=lambda rank, n_i, n_j: 0.25 * n_i * n_j + 0.375 * rank)
    integ = ParallelBlockIntegrator(
        plummer_model(24, seed=23), EPS2, algo, tracer=tracer)
    integ.run(1.0 / 16.0)
    return tracer


def traced_copy_run():
    return traced_run(CopyAlgorithm, 5)


def traced_grid_run():
    return traced_run(Grid2DAlgorithm, 9)


def net_metrics(tracer):
    return {k: v for k, v in tracer.metrics.snapshot().items()
            if k.startswith("net.")}


class TestTracedMetrics:
    def test_net_metrics_match_the_scalar_implementation(self):
        assert net_metrics(traced_copy_run()) == PARENT_NET_METRICS

    def test_grid_net_metrics_match_one_round_per_row_and_diagonal(self):
        assert net_metrics(traced_grid_run()) == PARENT_GRID_NET_METRICS

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
        net.allgather(640)
        assert lookups["tracer"] == 3
        net.shift_rounds([1, 2, 3], np.zeros((3, 16)), [5, -5, 5])
        net.message_round([0, 1], [2, 3], [8, 8])
        assert lookups["tracer"] == 5
