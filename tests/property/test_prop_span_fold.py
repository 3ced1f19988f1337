"""Property: there is one span fold, and everything that reads
self-time reads it.

Phase totals, per-blockstep signatures and the flops account used to be
four separate children-before-parent subtractions that disagreed on
unphased spans.  They are now views of one :class:`SpanFold`, so this
file pins the fold itself against a brute-force oracle written here
(self = duration - sum of direct children, phase by the ancestor rule)
on hypothesis-generated span forests, pins that the order children
close in does not matter, and pins that a recorder and a ledger fed by
one shared fold are field-for-field *equal* to the same classes used as
stand-alone tracer sinks — on generated forests and on three real span
streams (direct summation, the GRAPE-6 emulator, a simulated cluster
with the virtual clock wired).
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.individual import BlockTimestepIntegrator
from repro.hardware import Grape6Emulator
from repro.models import plummer_model
from repro.parallel import CopyAlgorithm, ParallelBlockIntegrator, SimNetwork
from repro.telemetry import (
    DEFAULT_SPAN_PHASES,
    PHASES,
    T_OTHER,
    FlopsLedger,
    InMemorySink,
    PhaseAggregator,
    SignatureRecorder,
    SpanEvent,
    SpanFold,
    StreamingPhaseSink,
    Tracer,
    set_tracer,
)

EPS2 = 1.0 / 4096.0

MAPPED = ["predict", "force", "grape.force", "grape.jmem_load",
          "net.exchange", "net.barrier"]
UNMAPPED = ["scaffold", "custom", "mystery"]


# -- generated forests -------------------------------------------------------


#: One span, before it has children.  Self-times are small integers, so
#: every sum in the fold and in the oracle is exact and ``==`` means
#: equal, not close.
nodes = st.fixed_dictionaries({
    "name": st.sampled_from(MAPPED + UNMAPPED + ["blockstep", "blockstep"]),
    "phase": st.none() | st.sampled_from(PHASES),
    "self_wall": st.integers(0, 50),
    "self_virt": st.integers(0, 50),
    "retries": st.sampled_from([0, 0, 0, 1, 3]),
})

trees = st.recursive(
    nodes.map(lambda node: {**node, "kids": []}),
    lambda kids: st.builds(
        lambda node, below: {**node, "kids": below},
        nodes, st.lists(kids, min_size=1, max_size=3)),
    max_leaves=10,
)

forests = st.tuples(
    st.lists(trees, min_size=1, max_size=4),
    st.booleans(),  # both clocks, or wall only
)


def close_order(forest, virtual):
    """The forest as SpanEvents in the order a tracer delivers them."""
    events, serial = [], [0]

    def close(node, parent_id, depth, inside=False):
        serial[0] += 1
        span_id = serial[0]
        name = node["name"]
        if name == "blockstep" and inside:  # blocksteps do not nest
            name = "scaffold"
        kids = [close(k, span_id, depth + 1, inside or name == "blockstep")
                for k in node["kids"]]
        attrs = {"exponent_retries": node["retries"]} if node["retries"] else {}
        if name == "blockstep":
            attrs.update(n_block=3, n=8, t=float(span_id),
                         jmem_loads=span_id % 3, jmem_elided=span_id % 2)
        event = SpanEvent(
            name=name, span_id=span_id, parent_id=parent_id,
            depth=depth, t_start_us=float(span_id), phase=node["phase"],
            dur_us=float(node["self_wall"] + sum(k.dur_us for k in kids)),
            v_start_us=0.0 if virtual else None,
            v_dur_us=(
                float(node["self_virt"] + sum(k.v_dur_us for k in kids))
                if virtual else None
            ),
            attrs=attrs,
        )
        events.append(event)
        return event

    for root in forest:
        close(root, None, 0)
    return events


# -- the oracle ----------------------------------------------------------------


def oracle(events):
    """span_id -> (phase, self wall, self virtual), by brute force."""
    by_id = {e.span_id: e for e in events}
    out = {}
    for e in events:
        kids = [k for k in events if k.parent_id == e.span_id]
        at = e
        while at is not None and not (at.phase or DEFAULT_SPAN_PHASES.get(at.name)):
            at = by_id.get(at.parent_id)
        phase = T_OTHER if at is None else at.phase or DEFAULT_SPAN_PHASES[at.name]
        out[e.span_id] = (
            phase,
            e.dur_us - sum(k.dur_us for k in kids),
            None if e.v_dur_us is None
            else e.v_dur_us - sum(k.v_dur_us for k in kids),
        )
    return out


def subtree(events, root):
    """``root`` and every span beneath it."""
    ids = {root.span_id}
    for e in reversed(events):  # parents close after their children
        if e.parent_id in ids:
            ids.add(e.span_id)
    return [e for e in events if e.span_id in ids]


def by_phase(selfs, column):
    totals = {}
    for phase, *times in selfs:
        if times[column] is not None:
            totals[phase] = totals.get(phase, 0.0) + times[column]
    return totals


def nonzero(totals):
    return {k: v for k, v in totals.items() if v}


class Grab:
    def __init__(self):
        self.records = []

    def on_blockstep(self, record):
        self.records.append(record)


def folded(events):
    grab = Grab()
    fold = SpanFold([grab])
    for e in events:
        fold.emit(e)
    return fold, grab.records


# -- the fold against the oracle -------------------------------------------


class TestFoldAgainstOracle:
    @settings(max_examples=150, deadline=None)
    @given(forests)
    def test_run_totals(self, case):
        events = close_order(*case)
        fold, _ = folded(events)
        selfs = list(oracle(events).values())
        assert nonzero(fold.totals_us) == nonzero(by_phase(selfs, 0))
        assert nonzero(fold.virtual_totals_us) == nonzero(by_phase(selfs, 1))
        assert fold.n_events == len(events)
        roots = [e for e in events if e.parent_id is None]
        assert sum(fold.totals_us.values()) == sum(e.dur_us for e in roots)

    @settings(max_examples=150, deadline=None)
    @given(forests)
    def test_blockstep_records(self, case):
        events = close_order(*case)
        _, records = folded(events)
        truth = oracle(events)
        roots = [e for e in events if e.name == "blockstep"]
        assert [r.t for r in records] == [e.attrs["t"] for e in roots]
        for record, root in zip(records, roots):
            below = subtree(events, root)
            selfs = [truth[e.span_id] for e in below]
            # each clock's self-times sum to the root's duration ...
            assert sum(p[0] for p in record.self_us.values()) == root.dur_us
            assert record.wall_us == root.dur_us
            assert record.virtual_us == root.v_dur_us
            if root.v_dur_us is not None:
                assert sum(p[1] for p in record.self_us.values()) == root.v_dur_us
                assert nonzero(record.phase_us(virtual=True)) == nonzero(
                    by_phase(selfs, 1))
            # ... and split by phase as the oracle says
            assert nonzero(record.phase_us()) == nonzero(by_phase(selfs, 0))
            assert record.retries == sum(
                e.attrs.get("exponent_retries", 0) for e in below)
            assert (record.n_block, record.n) == (3, 8)
            assert record.jmem_loads == root.attrs["jmem_loads"]
            assert record.jmem_elided == root.attrs["jmem_elided"]

    @settings(max_examples=100, deadline=None)
    @given(forests, st.integers(0, 2**32))
    def test_any_children_first_order_gives_the_same_answer(self, case, seed):
        events = close_order(*case)
        rng = random.Random(seed)
        # a random topological order: any span whose children are all out
        waiting = {e.span_id: sum(1 for k in events if k.parent_id == e.span_id)
                   for e in events}
        ready = [e for e in events if waiting[e.span_id] == 0]
        shuffled = []
        while ready:
            e = ready.pop(rng.randrange(len(ready)))
            shuffled.append(e)
            if e.parent_id is not None:
                waiting[e.parent_id] -= 1
                if waiting[e.parent_id] == 0:
                    ready.append(next(p for p in events
                                      if p.span_id == e.parent_id))
        assert len(shuffled) == len(events)

        fold_a, records_a = folded(events)
        fold_b, records_b = folded(shuffled)
        assert fold_a.totals_us == fold_b.totals_us
        assert fold_a.virtual_totals_us == fold_b.virtual_totals_us
        assert fold_a.outside_us == fold_b.outside_us
        key = lambda r: r.t
        for a, b in zip(sorted(records_a, key=key), sorted(records_b, key=key)):
            assert (a.self_us, a.retries, a.wall_us) == (
                b.self_us, b.retries, b.wall_us)
        # the post-hoc aggregator is "sort children first, feed the fold"
        posthoc = PhaseAggregator().consume(shuffled[::-1]).breakdown()
        assert nonzero(posthoc.wall.totals) == nonzero(fold_a.totals_us)


# -- one fold, shared or private: the same fields ---------------------------


def shared_and_alone(events):
    """Feed ``events`` to a recorder + ledger sharing one fold and to
    the same classes as three stand-alone sinks."""
    shared = (SignatureRecorder(), FlopsLedger())
    fold = SpanFold(shared)
    alone = (SignatureRecorder(), FlopsLedger())
    bare = StreamingPhaseSink()
    for e in events:
        for sink in (fold, bare, *alone):
            sink.emit(e)
    return fold, shared, bare, alone


def assert_shared_equals_alone(events):
    fold, (rec, led), bare, (rec1, led1) = shared_and_alone(events)
    assert rec.signatures == rec1.signatures
    assert led.records == led1.records
    assert led.summary() == led1.summary()
    assert fold.snapshot() == bare.snapshot()
    assert fold.breakdown() == bare.breakdown()
    assert rec.count == led.count == fold.blocksteps
    return fold, rec, led


class TestSharedFoldEqualsStandAlone:
    @settings(max_examples=100, deadline=None)
    @given(forests)
    def test_generated_forests(self, case):
        assert_shared_equals_alone(close_order(*case))

    @staticmethod
    def real_stream(kind):
        sink = InMemorySink()
        system = plummer_model(64, seed=7)
        if kind == "cluster":
            network = SimNetwork(4)
            tracer = Tracer(enabled=True, sinks=[sink],
                            virtual_clock=lambda: network.clock.elapsed)
        else:
            tracer = Tracer(enabled=True, sinks=[sink])
        old = set_tracer(tracer)
        try:
            if kind == "cluster":
                integ = ParallelBlockIntegrator(
                    system, EPS2, CopyAlgorithm(network, EPS2))
            else:
                backend = Grape6Emulator(EPS2) if kind == "grape" else None
                integ = BlockTimestepIntegrator(system, EPS2, backend=backend)
            for _ in range(30):
                integ.step()
        finally:
            set_tracer(old)
        return sink.events

    @pytest.mark.parametrize("kind", ["direct", "grape", "cluster"])
    def test_real_streams(self, kind):
        events = self.real_stream(kind)
        fold, rec, led = assert_shared_equals_alone(events)
        assert rec.count == 30
        # and the identities hold by construction on the real thing
        for record in led.records:
            total = record.real_flops + sum(record.buckets.values())
            assert total == pytest.approx(record.peak_flops, rel=1e-9, abs=1e-6)
            assert record.clock == ("virtual" if kind == "cluster" else "wall")
        for sig in rec.signatures:
            assert sum(sig.shares.values()) == pytest.approx(1.0)
        roots = sum(e.dur_us for e in events if e.parent_id is None)
        assert sum(fold.totals_us.values()) == pytest.approx(roots, rel=1e-9)
        posthoc = PhaseAggregator().consume(events).breakdown()
        for phase in PHASES:
            assert posthoc.wall.totals[phase] == pytest.approx(
                fold.totals_us.get(phase, 0.0), rel=1e-9, abs=1e-6)
