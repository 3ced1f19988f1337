"""Property: a message round is exactly its messages sent one by one.

:meth:`SimNetwork.message_round` prices ``p`` messages with a few array
operations, and the comm ledger folds whole rounds into a
struct-of-arrays store.  Neither may move a bit: hypothesis drives
random round sequences (single shifts, permutations, one-to-many,
many-to-one with repeated receivers, zero-byte messages, sizes one off
a power of two, schedules of up to 20 shift rounds in one call, rank
counts 1..17, tiny log caps so folds land mid-sequence) through the
primitive and through a scalar oracle written here with per-message
``max``/``+`` and ``Histogram.observe``; clocks, counters and the full
ledger export must come out equal.  The ring allgather and the
barrier, each one schedule, must equal their one-round-per-call form,
barrier spans included.

The same thing end to end - ledger and clock digests of all four
algorithms, recorded at the commit before message rounds existed - is
the golden column of ``test_prop_invariants.py``.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import NICConfig
from repro.parallel import CommLedger, SimNetwork
from repro.parallel import ledger as ledger_module
from repro.parallel.ledger import KIND_COLLECTIVE, KIND_P2P, LinkStats
from repro.parallel.simcomm import BARRIER_BYTES
from repro.telemetry import T_BARRIER, InMemorySink, Tracer

pytestmark = pytest.mark.tiers

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
        for i in range(len(src)) if recv_order is None else recv_order:
            self.t[dst[i]] = max(self.t[dst[i]], arrivals[i])

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
        net.attach_tracer(Tracer(enabled=True))
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
                net.shift_rounds([shift], [nbytes], [tag])
                oracle.round(src, dst, nbytes, tag,
                             recv_order=[(r - shift) % p for r in range(p)])
        export = net.ledger.as_dict()
    assert net.clock.snapshot().tobytes() == np.array(oracle.t).tobytes()
    assert (net.stats.messages, net.stats.bytes) == (oracle.messages, oracle.bytes)
    assert export == oracle.ledger_export()


# -- collectives against their per-round form --------------------------------


def per_round_allgather(net, nbytes_each, tag):
    """The ring allgather as one one-row ``shift_rounds`` per shift."""
    p = net.n_ranks
    sizes = np.empty(2 * p, dtype=np.int64)
    sizes[:p] = sizes[p:] = nbytes_each
    for shift in range(1, p):
        net.shift_rounds([1], [sizes[p - shift + 1:2 * p - shift + 1]], [tag])


def per_round_barrier(net):
    """The butterfly barrier as one one-row ``shift_rounds`` per stage,
    each stage's clock spread read off the clock after it."""
    p = net.n_ranks
    tracer = net.tracer
    arrivals = net.clock.snapshot()
    skews = []
    with tracer.span("net.barrier", phase=T_BARRIER, p=p) as span:
        k = 1
        while k < p:
            net.shift_rounds([k], [np.full(p, BARRIER_BYTES)], [-1 - k])
            clocks = net.clock.snapshot()
            skews.append(float(clocks.max() - clocks.min()))
            k *= 2
        release = net.clock.synchronize()
        record = net.ledger.record_barrier(arrivals, release, len(skews), skews)
        if tracer.enabled:
            span.set(rounds=len(skews), straggler=record.straggler,
                     skew_us=record.skew_us, sync_us=record.sync_us)
    net.stats.barriers += 1


@st.composite
def collective_programs(draw):
    p = draw(st.sampled_from([2, 3, 5, 16, 17]))
    skew = st.lists(st.floats(0.0, 500.0), min_size=p, max_size=p)
    steps = []
    for _ in range(draw(st.integers(1, 4))):
        nbytes = draw(st.one_of(st.integers(0, 10 ** 6), sizes(p)))
        op = draw(st.sampled_from(["allgather", "barrier"]))
        steps.append((draw(skew), op, nbytes, draw(st.sampled_from([-200, 1000]))))
    return p, steps, draw(st.booleans()), draw(st.sampled_from([1, 3, 4096]))


@settings(max_examples=60, deadline=None)
@given(collective_programs())
def test_collectives_equal_their_per_round_form(program):
    p, steps, traced, log_cap = program
    with mock.patch.object(ledger_module, "ROUND_LOG_CAP", log_cap):
        net, ref = (SimNetwork(p, NIC, per_message_overhead_us=OVERHEAD_US)
                    for _ in range(2))
        sinks = [InMemorySink() for _ in (net, ref)]
        for n, sink in zip((net, ref), sinks):
            n.attach_tracer(Tracer(enabled=traced, sinks=[sink]))
        for skew, op, nbytes, tag in steps:
            for n in (net, ref):
                for rank, dt in enumerate(skew):
                    n.clock.advance(rank, dt)
            if op == "barrier":
                net.barrier()
                per_round_barrier(ref)
            else:
                net.allgather(np.array(nbytes), tag=tag)
                per_round_allgather(ref, np.array(nbytes), tag)
        exports = [n.ledger.as_dict() for n in (net, ref)]
    assert net.clock.snapshot().tobytes() == ref.clock.snapshot().tobytes()
    assert net.stats == ref.stats
    assert exports[0] == exports[1]
    spans = [[(e.name, e.v_start_us, e.v_dur_us, e.attrs) for e in sink.events]
             for sink in sinks]
    assert spans[0] == spans[1]
