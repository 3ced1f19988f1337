"""The supervisor's sink chain: the same answers, on a call budget.

The always-on sinks under the service (one span fold feeding the
regime tracker and the flops ledger) were rewritten as arithmetic on
what each stage already holds.  This file pins that nothing they *say*
moved:

(a) a golden regime stream recorded at the commit before the rewrite
    (``fb9546b``): regime per blockstep, change list, ``lane()`` and
    ``summary()`` on the full vector, and the assignment by
    ``SCHEDULE_FEATURES`` alone — through both of the tracker's entry
    points, signatures (``update``) and a fold's records
    (``on_blockstep``); hypothesis span trees then pin the two entry
    points to each other bit for bit;
(b) hypothesis span trees through :class:`SpanFold` against a
    brute-force reference kept here: totals, per-name summaries,
    ``outside_us`` and every :class:`BlockstepRecord`;
(c) the ledger's running totals against the sums over
    :meth:`BlockstepEfficiency.from_blockstep` of the same records;
(d) the tracer's direct path (a fold handed each span's fields, no
    :class:`SpanEvent` built) against the event path (an
    :class:`InMemorySink` whose events are replayed), bit for bit, on
    the span trees of (b) and of ``tests/property/test_prop_span_fold.py``
    driven through real tracers on a scripted clock — and the run job's
    way, the same fields held and folded in batches;

and that the chain stays on its budget without reading a clock:
``cProfile``'s call count for the replayed blockstep.
"""

import hashlib
import json
import pickle
import random
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from benchmarks.test_sink_budget import (
    BLOCK_SIZES,
    calls_per_blockstep,
    replay_blocksteps,
    supervisor_tracer,
)
from repro.telemetry import (
    BUCKETS,
    DEFAULT_SPAN_PHASES,
    PHASES,
    SCHEDULE_FEATURES,
    T_OTHER,
    T_PIPE,
    BlockstepEfficiency,
    BlockstepRecord,
    FlopsLedger,
    InMemorySink,
    PhaseSignature,
    RegimeTracker,
    SignatureRecorder,
    SpanEvent,
    SpanFold,
    StreamingKMeans,
    Tracer,
    normalise_shares,
    replay,
)
from repro.service import supervisor as supervisor_mod
from repro.telemetry.phases import JMEM, JMEM_SPAN, ROOT_SPAN
from tests.property.test_prop_span_fold import forests as unnested_forests

# -- (a) the golden regime stream --------------------------------------------

#: No distance of the golden stream lies this close to the spawn
#: threshold or to the runner-up centroid, so an assignment cannot turn
#: on the last bits of a norm.
MARGIN = 1e-9


def golden_stream(count=2000, n=128, seed=24):
    """(signature, the phase times its shares came from) pairs: block
    sizes cycling 1 ... n, phase shares drawn around a size-dependent
    mix from the standard library's generator (whose stream is fixed
    across versions), up to a quarter of the j-memory loads elided."""
    rng = random.Random(seed)
    stream = []
    for i in range(count):
        size = 1 + i % n
        pipe = size / n
        raw = [0.6 - 0.3 * pipe + 0.2 * rng.random(),
               0.2 + 0.3 * pipe + 0.2 * rng.random(),
               0.1 * rng.random(), 0.05 * rng.random(),
               0.05 * rng.random() if i % 7 == 0 else 0.0]
        total = sum(raw)
        stream.append((PhaseSignature(
            blockstep=i, t=i / 1024, n=n, block_size=size,
            wall_us=50.0 + size + rng.random(),
            shares={p: x / total for p, x in zip(PHASES, raw)},
            jmem_loads=3 * n + size,
            jmem_elided=n - size,
            t_start_us=100.0 * i,
        ), raw))
    return stream


def margins(kmeans, vector):
    """(distance to the nearest centroid, gap to the runner-up) by the
    scan the model replaced, one norm per centroid — which the model's
    one expression must agree with."""
    scan = [float(np.linalg.norm(vector - c)) for c in kmeans.centroids]
    index, distance = kmeans.nearest(vector)
    assert index == scan.index(min(scan))
    assert distance == pytest.approx(min(scan), rel=1e-12, abs=1e-15)
    distances = sorted(scan)
    gap = distances[1] - distances[0] if len(distances) > 1 else np.inf
    return distances[0], gap


def digest(values):
    return hashlib.blake2b(
        ",".join(map(str, values)).encode(), digest_size=8).hexdigest()


#: A phase tag outside :data:`PHASES`: a blockstep span's own
#: self-time booked under it reaches no share.
UNSHARED = "unshared"


def blockstep_events(sig, raw_us):
    """One blockstep as the spans a tracer closes: a child per phase
    lasting that phase's time, under a root that lasts the signature's
    wall time and keeps its own remainder under :data:`UNSHARED`.  The
    fold then books each phase's time exactly, so the record's shares
    are the signature's to the bit."""
    root = 6 * sig.blockstep + 1
    kids = [SpanEvent("part", root + 1 + i, root, 1, sig.t_start_us, us,
                      phase, None, None, {})
            for i, (phase, us) in enumerate(zip(PHASES, raw_us))]
    return [*kids, SpanEvent(
        ROOT_SPAN, root, None, 0, sig.t_start_us, sig.wall_us, UNSHARED,
        None, None, {"n_block": sig.block_size, "n": sig.n, "t": sig.t,
                     "jmem_loads": sig.jmem_loads,
                     "jmem_elided": sig.jmem_elided})]


def run_golden(entry="update", **tracker_kwargs):
    """The golden stream through one tracker entry point (``update``, or
    a :class:`SpanFold` serving it fed each blockstep's spans):
    everything the tracker says, with the margin asserted on every
    update."""
    tracker = RegimeTracker(**tracker_kwargs)
    fold = SpanFold([tracker])
    kmeans = tracker.kmeans
    stream = golden_stream()
    signatures = [sig for sig, _ in stream]
    raw, smoothed = [], []
    for sig, raw_us in stream:
        vector = sig.vector()
        if kmeans.k:
            nearest, gap = margins(kmeans, vector)
            assert abs(nearest - kmeans.spawn_distance) > MARGIN
            assert gap > MARGIN
        before = list(kmeans.counts)
        if entry == "update":
            tracker.update(sig)
        else:
            for event in blockstep_events(sig, raw_us):
                fold.emit(event)
        smoothed.append(tracker.current)
        after = kmeans.counts
        raw.append(len(before) if len(after) > len(before) else next(
            i for i, (a, b) in enumerate(zip(before, after)) if a != b))
    projected = []
    for sig in signatures:
        vector = sig.vector()
        scan = sorted(
            float(np.linalg.norm(vector[SCHEDULE_FEATURES] - c[SCHEDULE_FEATURES]))
            for c in kmeans.centroids)
        assert scan[1] - scan[0] > MARGIN
        projected.append(kmeans.nearest(vector, features=SCHEDULE_FEATURES)[0])
    return {
        "raw": digest(raw),
        "smoothed": digest(smoothed),
        "projected": digest(projected),
        "changes": [[c.blockstep, c.t, c.from_regime, c.to_regime]
                    for c in tracker.changes],
        "lane": tracker.lane(),
        "counts": list(kmeans.counts),
        "centroids": digest(
            x for c in kmeans.centroids for x in c.tolist()),
        "summary": tracker.summary(),
    }


#: ``run_golden`` at fb9546b (the parent of the rewrite), by tracker.
#: Floats survive a JSON round trip exactly.
GOLDEN = json.loads(
    Path(__file__).with_name("golden_regime_stream.json").read_text())

TRACKERS = {
    "supervisor": {},
    "fine": {"k_max": 12, "spawn_distance": 0.15, "hold": 2},
}


class TestGoldenRegimeStream:
    @pytest.mark.parametrize("entry", ["update", "fold"])
    @pytest.mark.parametrize("name", sorted(TRACKERS))
    def test_the_regime_a_stream_gets_is_the_regime_it_got(self, name, entry):
        said = json.loads(json.dumps(run_golden(entry, **TRACKERS[name])))
        golden = GOLDEN[name]
        for key in golden:
            assert said[key] == golden[key], key

    def test_the_stream_uses_every_path(self):
        golden = GOLDEN["fine"]
        assert len(golden["counts"]) == 12  # the cluster budget is hit
        assert len(GOLDEN["supervisor"]["counts"]) == 8
        assert len(golden["changes"]) > 20

    def test_signature_shares_are_the_normalised_phase_times(self):
        rng = random.Random(5)
        for _ in range(200):
            keys = rng.sample([*PHASES, JMEM, "made-up"], rng.randint(0, 7))
            record = BlockstepRecord(
                0, None, 128, 8, 0.0, 1.0, None,
                {k: [rng.choice([0.0, -1.0, rng.random() * 90]), 0.0]
                 for k in keys}, 0, 0, 0)
            assert PhaseSignature.from_blockstep(record).shares == (
                normalise_shares(record.phase_us()))


class TestWrongLengthVector:
    """Stacked centroids would broadcast a length-1 vector silently."""

    @pytest.mark.parametrize("length", [1, 3, 5])
    def test_nearest_and_update_name_both_lengths(self, length):
        kmeans = StreamingKMeans()
        kmeans.update(np.arange(4.0))
        for call in (kmeans.nearest, kmeans.update):
            with pytest.raises(ValueError, match=rf"{length}\D.*\D4\b"):
                call(np.zeros(length))
        assert kmeans.counts == [1]
        np.testing.assert_array_equal(kmeans.centroids[0], np.arange(4.0))

    def test_public_shapes(self):
        kmeans = StreamingKMeans(k_max=3)
        assert kmeans.centroids == [] and kmeans.counts == []
        for v in ([0.0, 0.0], [5.0, 5.0], [0.0, 0.5]):
            kmeans.update(np.array(v))
        assert kmeans.counts == [2, 1]
        assert [c.tolist() for c in kmeans.centroids] == [[0.0, 0.25], [5.0, 5.0]]


# -- (b) the fold against brute force ----------------------------------------

NAMES = ["blockstep", "blockstep", "predict", "force", "grape.force",
         JMEM_SPAN, JMEM_SPAN, "net.barrier", "step", "custom", "scaffold"]

nodes = st.fixed_dictionaries({
    "name": st.sampled_from(NAMES),
    "phase": st.none() | st.none() | st.sampled_from(PHASES),
    # small integers: every sum is exact, so == means equal
    "self_wall": st.integers(0, 40),
    "self_virt": st.integers(0, 40),
    "retries": st.sampled_from([0, 0, 0, 2, 5]),
})
trees = st.recursive(
    nodes.map(lambda node: {**node, "kids": []}),
    lambda kids: st.builds(
        lambda node, below: {**node, "kids": below},
        nodes, st.lists(kids, min_size=1, max_size=3)),
    max_leaves=12,
)
forests = st.tuples(st.lists(trees, min_size=1, max_size=4), st.booleans())


def close_order(forest, virtual):
    """The forest as the events a tracer delivers, children first."""
    events, serial = [], [0]

    def close(node, parent_id, depth):
        serial[0] += 1
        span_id = serial[0]
        kids = [close(kid, span_id, depth + 1) for kid in node["kids"]]
        attrs = {"exponent_retries": node["retries"]} if node["retries"] else {}
        if node["name"] == ROOT_SPAN:
            attrs.update(n_block=1 + span_id % 5, n=8, t=span_id / 8,
                         jmem_loads=span_id % 3, jmem_elided=span_id % 2)
        event = SpanEvent(
            node["name"], span_id, parent_id, depth, 10.0 * span_id,
            float(node["self_wall"] + sum(k.dur_us for k in kids)),
            node["phase"], 0.0 if virtual else None,
            float(node["self_virt"] + sum(k.v_dur_us for k in kids))
            if virtual else None,
            attrs,
        )
        events.append(event)
        return event

    for root in forest:
        close(root, None, 0)
    return events


def brute_force(events):
    """What the fold should say, one span at a time: self = duration
    less the direct children, phase by the ancestor rule, the record
    of the nearest enclosing blockstep or else ``outside``."""
    by_id = {e.span_id: e for e in events}
    totals, virtual_totals, spans, outside, cuts = {}, {}, {}, {}, {}
    for e in events:
        kids = [k for k in events if k.parent_id == e.span_id]
        at = e  # the nearest span, from here up, that names a phase
        while at is not None and not (
                at.phase or DEFAULT_SPAN_PHASES.get(at.name)):
            at = by_id.get(at.parent_id)
        phase = T_OTHER if at is None else (
            at.phase or DEFAULT_SPAN_PHASES[at.name])
        key = JMEM if (at is not None and at.name == JMEM_SPAN
                       and phase == T_PIPE) else phase
        wall = e.dur_us - sum(k.dur_us for k in kids)
        virt = None if e.v_dur_us is None else (
            e.v_dur_us - sum(k.v_dur_us for k in kids))
        totals[phase] = totals.get(phase, 0.0) + wall
        if virt is not None:
            virtual_totals[phase] = virtual_totals.get(phase, 0.0) + virt
        summary = spans.setdefault((e.name, phase), [0, 0.0, 0.0])
        summary[0] += 1
        summary[1] += wall
        summary[2] += e.dur_us
        root = e  # the nearest blockstep, from here up
        while root is not None and root.name != ROOT_SPAN:
            root = by_id.get(root.parent_id)
        if root is None:
            outside[key] = outside.get(key, 0.0) + (
                wall if virt is None else virt)
            continue
        cut = cuts.setdefault(root.span_id, [{}, 0])
        pair = cut[0].setdefault(key, [0.0, 0.0])
        pair[0] += wall
        pair[1] += virt or 0.0
        cut[1] += e.attrs.get("exponent_retries", 0)
    records = [
        BlockstepRecord(
            index, e.attrs["t"], e.attrs["n"], e.attrs["n_block"],
            e.t_start_us, e.dur_us, e.v_dur_us, *cuts[e.span_id],
            e.attrs["jmem_loads"], e.attrs["jmem_elided"])
        for index, e in enumerate(e for e in events if e.name == ROOT_SPAN)
    ]
    return totals, virtual_totals, spans, outside, records


class Grab:
    def __init__(self):
        self.records = []

    def on_blockstep(self, record):
        self.records.append(record)


class TestFoldAgainstBruteForce:
    @settings(max_examples=200, deadline=None)
    @given(forests)
    def test_every_view_of_the_fold(self, case):
        events = close_order(*case)
        grab = Grab()
        fold = SpanFold([grab])
        for event in events:
            fold.emit(event)
        totals, virtual_totals, spans, outside, records = brute_force(events)
        assert fold.totals_us == totals
        assert fold.virtual_totals_us == virtual_totals
        assert fold.outside_us == outside
        assert grab.records == records
        assert fold.blocksteps == len(records)
        assert fold.snapshot() == {"n_events": len(events), "wall_us": totals}
        said = fold.breakdown()
        assert {(s.name, s.phase): [s.count, s.self_us, s.total_us]
                for s in said.spans} == spans
        assert len(said.spans) == len(spans)
        assert (said.virtual is None) == (not virtual_totals)


def said_bitwise(tracker):
    """Everything a tracker says, as bytes (floats by their bits)."""
    return pickle.dumps((
        tracker.summary(), tracker.changes, tracker.runs,
        [c.tobytes() for c in tracker.kmeans.centroids]))


class TestTrackerEntryPoints:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(forests, min_size=1, max_size=6),
           st.sampled_from(sorted(TRACKERS)))
    def test_the_fold_record_path_equals_the_signature_path(self, cases, name):
        direct = RegimeTracker(**TRACKERS[name])
        signed = RegimeTracker(**TRACKERS[name])
        folds = (SpanFold([direct]), SpanFold(
            [SignatureRecorder(callback=signed.update, keep=False)]))
        for case in cases:
            for event in close_order(*case):
                for fold in folds:
                    fold.emit(event)
        assert direct.count == signed.count == folds[0].blocksteps
        assert said_bitwise(direct) == said_bitwise(signed)


# -- (c) the ledger's totals are the sum of its records ------------------------


def replayed_records(blocksteps=120, seed=3, virtual=False):
    """Blockstep records of a replayed stream with uneven durations."""
    rng = random.Random(seed)
    events, span_id = [], 0
    for i in range(blocksteps):
        root = span_id = span_id + 1
        kids = []
        for name in ("predict", "force", JMEM_SPAN, "net.barrier", "correct"):
            span_id += 1
            kids.append(SpanEvent(
                name, span_id, root, 1, 0.0, rng.random() * 40, None,
                0.0 if virtual else None,
                rng.random() * 90 if virtual else None,
                {"exponent_retries": 1} if rng.random() < 0.1 else {}))
        events += kids
        events.append(SpanEvent(
            ROOT_SPAN, root, None, 0, 7.0 * i,
            sum(k.dur_us for k in kids) + rng.random() * 9, "host",
            0.0 if virtual else None,
            sum(k.v_dur_us for k in kids) + rng.random() if virtual else None,
            {"n_block": BLOCK_SIZES[i % len(BLOCK_SIZES)] * (i % 11 != 0),
             "n": 128, "t": i / 64}))
    grab = Grab()
    fold = SpanFold([grab])
    for event in events:
        fold.emit(event)
    return grab.records


class TestLedgerTotals:
    @pytest.mark.parametrize("virtual", [False, True])
    def test_totals_are_the_sums_over_from_blockstep(self, virtual):
        records = replayed_records(virtual=virtual)
        ledger = FlopsLedger(keep=False)
        for record in records:
            ledger.on_blockstep(record)
        accounts = [BlockstepEfficiency.from_blockstep(r, ledger.hardware)
                    for r in records]
        peak = real = span = 0.0
        buckets = dict.fromkeys(BUCKETS, 0.0)
        for account in accounts:
            peak += account.peak_flops
            real += account.real_flops
            span += account.dur_us
            for bucket in BUCKETS:
                buckets[bucket] += account.buckets[bucket]
        assert (ledger.peak_flops, ledger.real_flops, ledger.span_us) == (
            peak, real, span)
        assert ledger.bucket_flops == buckets
        assert ledger.count == len(records)
        assert ledger.records == []
        assert ledger.latest == accounts[-1]
        assert ledger.clock == ("virtual" if virtual else "wall")
        assert any(a.buckets["retry"] > 0.0 for a in accounts)

    def test_keep_and_callback_see_every_account(self):
        records = replayed_records(blocksteps=30)
        heard = []
        ledger = FlopsLedger(keep=True, callback=heard.append)
        assert ledger.latest is None
        for record in records:
            ledger.on_blockstep(record)
        accounts = [BlockstepEfficiency.from_blockstep(r, ledger.hardware)
                    for r in records]
        assert ledger.records == accounts == heard
        assert ledger.latest == accounts[-1]
        quiet = FlopsLedger(keep=False)
        for record in records:
            quiet.on_blockstep(record)
        assert quiet.summary() == ledger.summary()


# -- (d) the direct path is the event path -------------------------------------


class ScriptedClock:
    """Whole seconds of wall and virtual time that the driver moves by
    hand, so every duration a tracer computes is an exact float."""

    def __init__(self):
        self.wall = self.virt = 0

    def read_wall(self):
        return float(self.wall)

    def read_virt(self):
        return float(self.virt)


def traced(forest, virtual, sinks):
    """Close ``forest`` through a tracer on a scripted clock: each span
    opens, its children run, then its own self-times pass."""
    clock, opened = ScriptedClock(), [0]

    def run(tracer, node):
        opened[0] += 1
        serial = opened[0]
        attrs = {"exponent_retries": node["retries"]} if node["retries"] else {}
        if node["name"] == ROOT_SPAN:
            attrs.update(n_block=1 + serial % 5, n=8, t=serial / 8,
                         jmem_loads=serial % 3, jmem_elided=serial % 2)
        with tracer.span(node["name"], node["phase"], **attrs):
            for kid in node["kids"]:
                run(tracer, kid)
            clock.wall += node["self_wall"]
            clock.virt += node["self_virt"]

    with mock.patch("repro.telemetry.tracer.perf_counter", clock.read_wall):
        tracer = Tracer(enabled=True, sinks=sinks,
                        virtual_clock=clock.read_virt if virtual else None)
        for root in forest:
            run(tracer, root)
    return tracer


def said_by_fold(fold, records):
    """Everything a fold says, and the records it cut, as bytes (floats
    by their bits, dicts in their order)."""
    return pickle.dumps((
        fold.n_events, fold.blocksteps, dict(fold.totals_us),
        dict(fold.virtual_totals_us), fold.outside_us,
        [(s.name, s.phase, s.count, s.self_us, s.total_us)
         for s in fold.breakdown().spans],
        [(r, r.wall_slots) for r in records]))


class TestDirectPathIsTheEventPath:
    @settings(max_examples=150, deadline=None)
    @given(st.one_of(forests, unnested_forests))
    def test_folds_and_event_sinks(self, case):
        forest, virtual = case
        direct, events, mixed = Grab(), InMemorySink(), Grab()
        alone = InMemorySink()
        folds = [SpanFold([direct]), SpanFold([mixed])]
        traced(forest, virtual, [folds[0]])
        traced(forest, virtual, [events])
        traced(forest, virtual, [folds[1], alone])
        replayed = Grab()
        fold = replay(events.events, replayed)
        said = said_by_fold(fold, replayed.records)
        assert said_by_fold(folds[0], direct.records) == said
        # a fold beside an event sink: the fold as if alone, the sink
        # handed the very events a tracer without folds builds
        assert said_by_fold(folds[1], mixed.records) == said
        assert pickle.dumps(alone.events) == pickle.dumps(events.events)
        # a run job's sink: held, folded whenever three spans wait, and
        # the rest at the end
        batched = Grab()
        held = supervisor_mod.FoldInBatches(SpanFold([batched]))
        with mock.patch.object(supervisor_mod, "FOLD_BATCH", 3):
            traced(forest, virtual, [held])
        assert said_by_fold(held.drain(), batched.records) == said
        # the cut phase vector is the record's wall column in slot order
        for record in direct.records:
            if record.wall_slots is not None:
                assert record.wall_slots == [
                    record.self_us.get(key, [0.0])[0] for key in (*PHASES, JMEM)]
            else:
                assert set(record.self_us) - {*PHASES, JMEM}

    @settings(max_examples=60, deadline=None)
    @given(forests)
    def test_observatories_as_tracer_sinks(self, case):
        forest, virtual = case
        direct = [SignatureRecorder(), FlopsLedger()]
        traced(forest, virtual, direct)
        events = InMemorySink()
        traced(forest, virtual, [events])
        replayed = [SignatureRecorder(), FlopsLedger()]
        for observatory in replayed:
            replay(events.events, observatory)
        assert direct[0].signatures == replayed[0].signatures
        assert direct[1].records == replayed[1].records
        assert direct[1].summary() == replayed[1].summary()


# -- the budget, without a clock -----------------------------------------------

#: Python-level calls (the sum of ``cProfile``'s per-code-object call
#: counts) the sink chain may make for one replayed blockstep.  It was
#: 288 before the rewrite and 140 after it as ``pstats`` counted them
#: (a few low); 124 by this count once the tracker read the fold's record.
CALL_BUDGET = 170


def test_sink_chain_call_budget():
    tracer = supervisor_tracer()
    replay_blocksteps(tracer, 2 * len(BLOCK_SIZES))  # every regime seen
    blocksteps = 400
    calls = calls_per_blockstep(tracer, blocksteps)
    assert calls <= CALL_BUDGET, (
        f"{calls:.0f} calls a blockstep through the supervisor's sink set "
        f"(budget {CALL_BUDGET})")
    (fold,) = tracer.sinks
    assert fold.blocksteps == blocksteps + 2 * len(BLOCK_SIZES)
