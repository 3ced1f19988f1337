"""Property: a message round is exactly its messages sent one by one.

:meth:`SimNetwork.message_round` replaces ``p`` Python ``send``/``recv``
pairs by a few array operations, and the comm ledger folds whole rounds
into a struct-of-arrays store.  Neither may move a bit: hypothesis
drives random round sequences (permutations, one-to-many, many-to-one
with repeated receivers, zero-byte messages, sizes one off a power of
two, schedules of up to 20 shift rounds in one call, rank counts 1..17,
tiny log caps so folds land mid-sequence) through the primitive and
through a scalar oracle written here with per-message ``max``/``+`` and
``Histogram.observe``; clocks, counters, the full ledger export and the
``net.*`` metrics must come out equal.  The ring allgather (with and
without payloads) and the barrier, each one schedule, must equal their
one-round-per-call form.

The golden matrix below pins the same thing end to end: ledger and
clock digests of all four algorithms, recorded at the commit before
message rounds existed.
"""

import hashlib
import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import NICConfig
from repro.models import plummer_model
from repro.parallel import (
    CommLedger,
    CopyAlgorithm,
    Grid2DAlgorithm,
    HybridAlgorithm,
    ParallelBlockIntegrator,
    RingAlgorithm,
    SimNetwork,
)
from repro.parallel import ledger as ledger_module
from repro.parallel.ledger import KIND_COLLECTIVE, KIND_P2P, LinkStats
from repro.parallel.simcomm import BARRIER_BYTES
from repro.telemetry import T_BARRIER, Metrics, Tracer

NIC = NICConfig(name="prop", rtt_latency_us=67.0, bandwidth_mbs=105.0)
OVERHEAD_US = 1.7


class ScalarOracle:
    """The network one message at a time, in plain Python floats."""

    def __init__(self, p):
        self.p = p
        self.t = [0.0] * p
        self.messages = 0
        self.bytes = 0
        self.links = {}
        self.metrics = Metrics()

    def round(self, src, dst, nbytes, tag, recv_order=None):
        arrivals = []
        for s, d, n in zip(src, dst, nbytes):
            flight = NIC.rtt_latency_us / 2.0 + OVERHEAD_US + n / NIC.bandwidth_mbs
            arrivals.append(self.t[s] + flight)
            self.messages += 1
            self.bytes += n
            kind = KIND_COLLECTIVE if tag < 0 else KIND_P2P
            link = self.links.setdefault((s, d, kind), LinkStats(s, d, kind))
            link.messages += 1
            link.bytes += n
            link.size_hist.observe(n)
            link.flight_hist.observe(flight)
            self.metrics.counter("net.messages").inc()
            self.metrics.counter("net.bytes").inc(n)
            self.metrics.histogram("net.message_bytes").observe(n)
            self.metrics.histogram("net.message_us").observe(flight)
        for i in range(len(src)) if recv_order is None else recv_order:
            wait = arrivals[i] - self.t[dst[i]]
            self.t[dst[i]] = max(self.t[dst[i]], arrivals[i])
            if wait > 0:
                self.metrics.histogram("net.recv_wait_us").observe(wait)

    def ledger_export(self):
        return {
            **CommLedger(self.p, nic=NIC.name).as_dict(),
            "messages": self.messages,
            "bytes": self.bytes,
            "links": [self.links[k].as_dict() for k in sorted(self.links)],
        }


@st.composite
def sizes(draw, m):
    """Message sizes: zero, around powers of two, and anything else."""
    edge = st.integers(0, 40).flatmap(
        lambda k: st.sampled_from([2 ** k - 1, 2 ** k, 2 ** k + 1]))
    return draw(st.lists(
        st.one_of(st.just(0), edge, st.integers(0, 10 ** 7)),
        min_size=m, max_size=m))


@st.composite
def rounds(draw, p):
    """One round on p >= 2 ranks as (src, dst, nbytes, tag, shift)."""
    tag = draw(st.sampled_from([-7, 0, 1000]))
    shape = draw(st.sampled_from(
        ["shift", "permutation", "one_to_many", "many_to_one", "any"]))
    ranks = list(range(p))
    shift = None
    if shape == "shift":
        shift = draw(st.integers(1, p - 1))
        src, dst = ranks, [(r + shift) % p for r in ranks]
    elif shape == "permutation":
        perm = draw(st.permutations(ranks))
        pairs = [(s, d) for s, d in zip(ranks, perm) if s != d]
        src, dst = [s for s, _ in pairs], [d for _, d in pairs]
    elif shape == "one_to_many":
        root = draw(st.sampled_from(ranks))
        dst = draw(st.lists(st.sampled_from([r for r in ranks if r != root]),
                            max_size=2 * p))
        src = [root] * len(dst)
    elif shape == "many_to_one":
        root = draw(st.sampled_from(ranks))
        src = draw(st.lists(st.sampled_from([r for r in ranks if r != root]),
                            max_size=2 * p))
        dst = [root] * len(src)
    else:
        pairs = draw(st.lists(
            st.tuples(st.sampled_from(ranks), st.sampled_from(ranks))
            .filter(lambda sd: sd[0] != sd[1]), max_size=2 * p))
        src, dst = [s for s, _ in pairs], [d for _, d in pairs]
    return src, dst, draw(sizes(len(src))), tag, shift


@st.composite
def schedules(draw, p):
    """1-20 consecutive shift rounds on p >= 2 ranks as (shifts, one row
    of sizes per round, tags)."""
    r = draw(st.integers(1, 20))
    shifts = draw(st.lists(st.integers(1, p - 1), min_size=r, max_size=r))
    tags = draw(st.lists(st.sampled_from([-7, -1, 0, 1000]),
                         min_size=r, max_size=r))
    return shifts, [draw(sizes(p)) for _ in range(r)], tags


@st.composite
def programs(draw):
    p = draw(st.integers(1, 17))
    steps = []
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(["round", "schedule", "advance"]))
        if p > 1 and kind == "round":
            steps.append(("round", draw(rounds(p))))
        elif p > 1 and kind == "schedule":
            steps.append(("schedule", draw(schedules(p))))
        else:
            steps.append(("advance", draw(st.integers(0, p - 1)),
                          draw(st.floats(0.0, 500.0))))
    return p, steps, draw(st.sampled_from([1, 3, 16, 4096]))


@settings(max_examples=150, deadline=None)
@given(programs())
def test_rounds_equal_the_scalar_oracle(program):
    p, steps, log_cap = program
    oracle = ScalarOracle(p)
    ranks = list(range(p))
    with mock.patch.object(ledger_module, "ROUND_LOG_CAP", log_cap):
        net = SimNetwork(p, NIC, per_message_overhead_us=OVERHEAD_US)
        tracer = net.attach_tracer(Tracer(enabled=True))
        for step in steps:
            if step[0] == "advance":
                _, rank, dt = step
                net.clock.advance(rank, dt)
                oracle.t[rank] += dt
                continue
            if step[0] == "schedule":
                shifts, table, tags = step[1]
                net.shift_rounds(shifts, np.array(table), tags)
                for shift, nbytes, tag in zip(shifts, table, tags):
                    oracle.round(ranks, [(r + shift) % p for r in ranks],
                                 nbytes, tag,
                                 recv_order=[(r - shift) % p for r in ranks])
                continue
            src, dst, nbytes, tag, shift = step[1]
            if shift is None:
                net.message_round(src, dst, nbytes, tag)
                oracle.round(src, dst, nbytes, tag)
            else:
                net.shift_round(shift, np.array(nbytes), tag)
                oracle.round(src, dst, nbytes, tag,
                             recv_order=[(r - shift) % p for r in range(p)])
        export = net.ledger.as_dict()
    assert net.clock.snapshot().tobytes() == np.array(oracle.t).tobytes()
    assert (net.stats.messages, net.stats.bytes) == (oracle.messages, oracle.bytes)
    assert export == oracle.ledger_export()
    assert tracer.metrics.snapshot() == oracle.metrics.snapshot()


# -- collectives against their per-round form --------------------------------


def per_round_allgather(net, payloads, nbytes_each, tag):
    """The ring allgather as one ``shift_round`` per shift, the payloads
    (if any) riding on each round."""
    p = net.n_ranks
    ranks = np.arange(p)
    sizes = np.empty(2 * p, dtype=np.int64)
    sizes[:p] = sizes[p:] = nbytes_each
    held = np.full((p, p), None, dtype=object)
    if payloads is not None:
        held[ranks, ranks] = np.fromiter(payloads, dtype=object, count=p)
    for shift in range(1, p):
        held[ranks, (ranks - shift) % p] = net.shift_round(
            1, sizes[p - shift + 1:2 * p - shift + 1], tag,
            None if payloads is None else held[ranks, (ranks - shift + 1) % p])
    return None if payloads is None else held.tolist()


def per_round_barrier(net):
    """The butterfly barrier as one ``shift_round`` per stage, each
    stage's clock spread read off the clock after it."""
    p = net.n_ranks
    tracer = net.tracer
    arrivals = net.clock.snapshot()
    skews = []
    with tracer.span("net.barrier", phase=T_BARRIER, p=p) as span:
        k = 1
        while k < p:
            net.shift_round(k, np.full(p, BARRIER_BYTES), tag=-1 - k)
            skews.append(net.clock.skew)
            k *= 2
        release = net.clock.synchronize()
        record = net.ledger.record_barrier(arrivals, release, len(skews), skews)
        if tracer.enabled:
            span.set(rounds=len(skews), straggler=record.straggler,
                     skew_us=record.skew_us, sync_us=record.sync_us)
    net.stats.barriers += 1
    if tracer.enabled:
        tracer.count("net.barriers")
        tracer.count("net.barrier_rounds", len(skews))
        tracer.observe("net.barrier_skew_us", record.skew_us)
        tracer.observe("net.barrier_sync_us", record.sync_us)


@st.composite
def collective_programs(draw):
    p = draw(st.sampled_from([2, 3, 5, 16, 17]))
    skew = st.lists(st.floats(0.0, 500.0), min_size=p, max_size=p)
    steps = []
    for _ in range(draw(st.integers(1, 4))):
        nbytes = draw(st.one_of(st.integers(0, 10 ** 6), sizes(p)))
        op = draw(st.sampled_from(["allgather", "allgather_objects", "barrier"]))
        steps.append((draw(skew), op, nbytes, draw(st.sampled_from([-200, 1000]))))
    return p, steps, draw(st.booleans()), draw(st.sampled_from([1, 3, 4096]))


@settings(max_examples=60, deadline=None)
@given(collective_programs())
def test_collectives_equal_their_per_round_form(program):
    p, steps, traced, log_cap = program
    with mock.patch.object(ledger_module, "ROUND_LOG_CAP", log_cap):
        net, ref = (SimNetwork(p, NIC, per_message_overhead_us=OVERHEAD_US)
                    for _ in range(2))
        tracers = [n.attach_tracer(Tracer(enabled=traced)) for n in (net, ref)]
        for step, (skew, op, nbytes, tag) in enumerate(steps):
            for n in (net, ref):
                n.clock.advance_all(np.array(skew))
            if op == "barrier":
                net.barrier()
                per_round_barrier(ref)
            else:
                payloads = ([(step, r) for r in range(p)]
                            if op == "allgather_objects" else None)
                assert net.allgather(payloads, np.array(nbytes), tag=tag) \
                    == per_round_allgather(ref, payloads, np.array(nbytes), tag)
        exports = [n.ledger.as_dict() for n in (net, ref)]
    assert net.clock.snapshot().tobytes() == ref.clock.snapshot().tobytes()
    assert net.stats == ref.stats
    assert exports[0] == exports[1]
    assert tracers[0].metrics.snapshot() == tracers[1].metrics.snapshot()


# -- golden matrix ---------------------------------------------------------------

EPS2 = (1.0 / 64.0) ** 2


def compute_hook(rank, n_i, n_j):
    return 0.25 * n_i * n_j + 0.375 * rank


def build_algorithm(name, size, cost):
    if name == "copy":
        return CopyAlgorithm(SimNetwork(size), EPS2, compute_time_us=cost)
    if name == "ring":
        return RingAlgorithm(SimNetwork(size), EPS2, compute_time_us=cost)
    if name == "grid2d":
        return Grid2DAlgorithm(SimNetwork(size), EPS2, compute_time_us=cost)
    return HybridAlgorithm(size, EPS2, compute_time_us=cost)


def digest(chunks):
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()[:16]


#: (ledger digest, clock digest) of plummer N=24 seed 23 run to t=1/16,
#: per algorithm, size and compute-cost hook, recorded at the parent
#: commit.  Sizes are rank counts {1, 3, 4, 16}; grid2d needs a square,
#: so its 3 is the grid side (9 ranks); hybrid's size is clusters of 4.
GOLDEN = {
    ("copy", 1, "free"): ("e3e295308ba92228", "af5570f5a1810b7a"),
    ("copy", 1, "hook"): ("e3e295308ba92228", "c2008ba6240cd289"),
    ("copy", 3, "free"): ("f793afa728e772fd", "d6e2025ed9f55b42"),
    ("copy", 3, "hook"): ("4cd6c64a2e98078c", "fc5b2e1b1b90de8c"),
    ("copy", 4, "free"): ("4d4fdcb10dd4b2be", "efa68e26ab0f997a"),
    ("copy", 4, "hook"): ("0a3c0b3400224a83", "7045f955ba38b041"),
    ("copy", 16, "free"): ("f0ec3706ba62bc94", "be33d64441ea0881"),
    ("copy", 16, "hook"): ("a10f9481c3e1646a", "b7bf0009ecc82939"),
    ("ring", 1, "free"): ("e3e295308ba92228", "af5570f5a1810b7a"),
    ("ring", 1, "hook"): ("e3e295308ba92228", "c2008ba6240cd289"),
    ("ring", 3, "free"): ("c89ce908b896c639", "47af3cb7287ad026"),
    ("ring", 3, "hook"): ("34f532d895a251b6", "fdd5f7bdb948f0b3"),
    ("ring", 4, "free"): ("ff3640ab81d4edaa", "fd93aec5173b9785"),
    ("ring", 4, "hook"): ("64fce9dece5095d5", "9092037178e5f362"),
    ("ring", 16, "free"): ("328d5ed8c7566a47", "a1749256f7c56158"),
    ("ring", 16, "hook"): ("7e1e7a21e38a0367", "4e6241e72bd2fbbd"),
    ("grid2d", 1, "free"): ("e3e295308ba92228", "af5570f5a1810b7a"),
    ("grid2d", 1, "hook"): ("e3e295308ba92228", "c2008ba6240cd289"),
    ("grid2d", 4, "free"): ("87cfab7b4f9f0dce", "632ff2d3f7d68df2"),
    ("grid2d", 4, "hook"): ("8b80b318b27922e8", "ac728abdeeb72dec"),
    ("grid2d", 9, "free"): ("22c1ff7ca5ec43db", "748b7364583073b1"),
    ("grid2d", 9, "hook"): ("ce2638ffc1cee0f4", "ddf670680184de15"),
    ("grid2d", 16, "free"): ("a122dc17952a91b7", "6b6e4e0d97816337"),
    ("grid2d", 16, "hook"): ("69e440a9ccfa9f4f", "64a8eaafa11a9e59"),
    ("hybrid", 1, "free"): ("3ede3195543a5081", "b018aaa580aa7a06"),
    ("hybrid", 1, "hook"): ("88466d17ffc9db6e", "396643513fb134c0"),
    ("hybrid", 3, "free"): ("7afaf2822131c60c", "7b3b123400736cfd"),
    ("hybrid", 3, "hook"): ("488b2ae3e6bfa8e0", "8ac752594276195c"),
    ("hybrid", 4, "free"): ("1c1d80848a31a9fe", "0d87b198737d7cd2"),
    ("hybrid", 4, "hook"): ("4b2617d321b3a4d4", "a082c1c77577e36d"),
    ("hybrid", 16, "free"): ("313d2f5da5c5ef09", "430f0ca6d77d6050"),
    ("hybrid", 16, "hook"): ("d53ca14dd71eed44", "430f0ca6d77d6050"),
}


@pytest.mark.parametrize("name,size,cost", sorted(GOLDEN))
def test_ledger_and_clock_digests_match_the_parent_commit(name, size, cost):
    algo = build_algorithm(
        name, size, compute_hook if cost == "hook" else None)
    integ = ParallelBlockIntegrator(plummer_model(24, seed=23), EPS2, algo)
    integ.run(1.0 / 16.0)
    networks = getattr(algo, "networks", None) or [algo.network]
    ledger = digest(
        json.dumps(net.ledger.as_dict(), sort_keys=True).encode()
        for net in networks)
    clock = digest(net.clock.snapshot().tobytes() for net in networks)
    assert (ledger, clock) == GOLDEN[name, size, cost]
