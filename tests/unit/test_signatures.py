"""Unit tests for the phase observatory (repro.telemetry.signatures).

Covers the signature vector itself (including the degenerate
zero-active guard the ISSUE calls out: empty blocks must yield 0.0
everywhere, never NaN), the streaming recorder's exact phase
attribution, the deterministic online k-means, the hold-window regime
tracker, and the schema plumbing (records, summaries, trace lane).
"""

import math

import numpy as np
import pytest

from repro.core.individual import BlockTimestepIntegrator
from repro.models import plummer_model
from repro.telemetry import (
    N_BUCKETS,
    PHASES,
    SCHEDULE_FEATURES,
    SIGNATURE_SCHEMA,
    InMemorySink,
    PhaseSignature,
    RegimeTracker,
    SignatureError,
    SignatureRecorder,
    SpanEvent,
    StreamingKMeans,
    Tracer,
    normalise_shares,
    regime_trace_events,
    replay,
    schedule_signature,
    validate_signature_summary,
)

EPS2 = 1.0 / 4096.0


def make_signature(block_size=8, n=64, wall_us=250.0, blockstep=0,
                   shares=None, **kw):
    if shares is None:
        base = {"host": 0.5, "pipe": 0.3, "comm": 0.15, "barrier": 0.05}
        shares = {p: base.get(p, 0.0) for p in PHASES}
    return PhaseSignature(
        blockstep=blockstep, t=0.0, n=n, block_size=block_size,
        wall_us=wall_us, shares=shares, **kw,
    )


class TestPhaseSignature:
    def test_active_fraction(self):
        assert make_signature(block_size=16, n=64).active_fraction == 0.25

    def test_log2_bucket(self):
        assert make_signature(block_size=1).log2_bucket == 0
        assert make_signature(block_size=2).log2_bucket == 1
        assert make_signature(block_size=3).log2_bucket == 1
        assert make_signature(block_size=64).log2_bucket == 6
        # clamped, not overflowing the one-hot range
        assert make_signature(block_size=2 ** 40).log2_bucket == N_BUCKETS - 1

    def test_vector_layout(self):
        sig = make_signature(block_size=8, n=64, jmem_loads=3, jmem_elided=1)
        v = sig.vector()
        assert v.shape == (1 + N_BUCKETS + len(PHASES) + 1,)
        assert v[0] == sig.active_fraction
        sched = v[SCHEDULE_FEATURES]
        # exactly one block-size bucket lights up
        assert np.count_nonzero(sched[1:]) == 1
        assert sched[1 + 3] == 1.0  # log2(8) == 3
        assert v[-1] == pytest.approx(0.25)  # 1 elided of 4 loads

    def test_record_round_trip(self):
        sig = make_signature(jmem_loads=2, jmem_elided=5)
        rec = sig.as_record()
        assert rec["schema"] == SIGNATURE_SCHEMA
        back = PhaseSignature.from_record(rec)
        np.testing.assert_array_equal(sig.vector(), back.vector())
        assert back.block_size == sig.block_size
        assert back.jmem_elided == 5

    def test_foreign_schema_refused(self):
        rec = make_signature().as_record()
        rec["schema"] = "repro.phase_signature/999"
        with pytest.raises(SignatureError):
            PhaseSignature.from_record(rec)


class TestDegenerateGuards:
    """ISSUE satellite: zero-active blocksteps report 0.0, never NaN."""

    def test_empty_block_active_fraction(self):
        sig = make_signature(block_size=0)
        assert sig.active_fraction == 0.0
        assert sig.log2_bucket == -1

    def test_unknown_n(self):
        assert make_signature(n=0).active_fraction == 0.0

    def test_zero_duration_shares(self):
        shares = normalise_shares({p: 0.0 for p in PHASES})
        assert all(s == 0.0 for s in shares.values())
        assert not any(math.isnan(s) for s in shares.values())

    def test_negative_noise_clamped(self):
        shares = normalise_shares({"host": -5.0, "pipe": 10.0})
        assert shares["host"] == 0.0
        assert shares["pipe"] == 1.0

    def test_degenerate_vector_is_finite(self):
        sig = PhaseSignature(
            blockstep=0, t=None, n=0, block_size=0, wall_us=0.0,
            shares={p: 0.0 for p in PHASES},
        )
        v = sig.vector()
        assert np.all(np.isfinite(v))
        assert np.all(v == 0.0)
        assert sig.elision_fraction == 0.0


class TestNormaliseShares:
    def test_shares_sum_to_one(self):
        shares = normalise_shares({"host": 30.0, "pipe": 60.0, "comm": 10.0})
        assert sum(shares.values()) == pytest.approx(1.0)
        assert shares["pipe"] == pytest.approx(0.6)

    def test_every_phase_present(self):
        assert set(normalise_shares({"host": 1.0})) == set(PHASES)


class TestSignatureRecorder:
    def run_instrumented(self, n=16, seed=3, steps=12, keep=True):
        rec = SignatureRecorder(keep=keep)
        sink = InMemorySink()
        tracer = Tracer(enabled=True, sinks=[sink, rec])
        integ = BlockTimestepIntegrator(
            plummer_model(n, seed=seed), EPS2, eta=0.02, tracer=tracer
        )
        for _ in range(steps):
            integ.step()
        return rec, sink

    def test_one_signature_per_blockstep(self):
        rec, _ = self.run_instrumented(steps=12)
        assert rec.count == 12
        assert len(rec.signatures) == 12
        assert [s.blockstep for s in rec.signatures] == list(range(12))

    def test_signatures_carry_schedule(self):
        rec, _ = self.run_instrumented()
        for sig in rec.signatures:
            assert 1 <= sig.block_size <= 16
            assert sig.n == 16
            assert sig.wall_us > 0.0
            assert sum(sig.shares.values()) == pytest.approx(1.0)

    def span(self, name, span_id, parent_id, dur_us, phase=None,
             t_start_us=0.0, **attrs):
        return SpanEvent(
            name=name, span_id=span_id, parent_id=parent_id, depth=0,
            t_start_us=t_start_us, dur_us=dur_us, phase=phase, attrs=attrs,
        )

    def test_exact_self_time_attribution(self):
        """Children fold out of the parent: shares are self-times."""
        rec = SignatureRecorder()
        # closes children-before-parent, like a real tracer stream
        rec.emit(self.span("corrector", 2, 1, 30.0, phase="host"))
        rec.emit(self.span("pipe_run", 3, 1, 50.0, phase="pipe"))
        rec.emit(self.span("blockstep", 1, None, 100.0,
                           n_block=4, n=16, t=0.5))
        assert rec.count == 1
        sig = rec.signatures[0]
        assert sig.block_size == 4
        assert sig.n == 16
        assert sig.wall_us == 100.0
        assert sig.shares["host"] == pytest.approx(0.3)
        assert sig.shares["pipe"] == pytest.approx(0.5)
        # the blockstep's own 20us of unattributed self-time
        assert sig.shares["other"] == pytest.approx(0.2)

    def test_spans_outside_blocksteps_discarded(self):
        rec = SignatureRecorder()
        rec.emit(self.span("startup_force", 1, None, 900.0, phase="host"))
        assert rec.count == 0

    def test_zero_duration_blockstep_never_nan(self):
        """Degenerate guard on the streaming path, not just the vector."""
        rec = SignatureRecorder()
        rec.emit(self.span("blockstep", 1, None, 0.0, n_block=0, n=16))
        sig = rec.signatures[0]
        assert all(s == 0.0 for s in sig.shares.values())
        assert np.all(np.isfinite(sig.vector()))
        assert sig.active_fraction == 0.0

    def test_keep_false_bounds_memory(self):
        rec, _ = self.run_instrumented(keep=False)
        assert rec.signatures == []
        assert rec.count > 0
        assert rec.latest is not None

    def test_replay_from_events(self):
        rec, sink = self.run_instrumented(steps=6)
        replayed = SignatureRecorder()
        replay(sink.events, replayed)
        assert len(replayed.signatures) == len(rec.signatures)
        for a, b in zip(replayed.signatures, rec.signatures):
            np.testing.assert_array_equal(a.vector(), b.vector())


class TestStreamingKMeans:
    def test_deterministic(self):
        vs = [make_signature(block_size=b).vector()
              for b in [1, 64, 1, 64, 2, 32, 1]]
        a, b = StreamingKMeans(), StreamingKMeans()
        assert [a.update(v) for v in vs] == [b.update(v) for v in vs]

    def test_spawns_distinct_clusters(self):
        km = StreamingKMeans(spawn_distance=0.6)
        small = make_signature(block_size=1, n=64).vector()
        large = make_signature(block_size=64, n=64).vector()
        assert km.update(small) == 0
        assert km.update(large) == 1
        assert km.update(small) == 0

    def test_k_max_budget(self):
        km = StreamingKMeans(k_max=2, spawn_distance=0.1)
        for b in [1, 4, 16, 64]:
            km.update(make_signature(block_size=b, n=64).vector())
        assert km.k == 2

    def test_nearest_feature_subspace(self):
        km = StreamingKMeans()
        km.update(make_signature(block_size=1, n=64).vector())
        km.update(make_signature(block_size=64, n=64).vector())
        probe = schedule_signature(0, block_size=64, n=64).vector()
        idx, _ = km.nearest(probe, features=SCHEDULE_FEATURES)
        assert idx == 1

    def test_nearest_empty_raises(self):
        with pytest.raises(ValueError):
            StreamingKMeans().nearest(np.zeros(3))


class TestRegimeTracker:
    def feed(self, tracker, sizes):
        for i, b in enumerate(sizes):
            tracker.update(make_signature(block_size=b, n=64, blockstep=i))

    def test_hold_suppresses_excursions(self):
        tracker = RegimeTracker(hold=3)
        # one odd blockstep must not register as a regime change
        self.feed(tracker, [1] * 10 + [64] + [1] * 10)
        assert tracker.changes == []
        assert tracker.n_regimes == 2  # the cluster exists...
        assert len(tracker.runs) == 1  # ...but the lane never switched

    def test_sustained_switch_detected(self):
        tracker = RegimeTracker(hold=3)
        self.feed(tracker, [1] * 8 + [64] * 8)
        assert len(tracker.changes) == 1
        change = tracker.changes[0]
        assert change.from_regime == 0
        assert change.to_regime == 1

    def test_dominant_regime(self):
        tracker = RegimeTracker(hold=1)
        self.feed(tracker, [1] * 30 + [64] * 10)
        regime, share = tracker.dominant_regime()
        assert regime == 0
        assert share == pytest.approx(0.75)

    def test_empty_tracker(self):
        regime, share = RegimeTracker().dominant_regime()
        assert regime is None
        assert share == 0.0
        assert RegimeTracker().lane() == ""

    def test_lane_format(self):
        tracker = RegimeTracker(hold=1)
        self.feed(tracker, [1] * 4 + [64] * 3 + [1] * 2)
        assert tracker.lane() == "0x4 1x3 0x2"
        assert tracker.lane(max_runs=2) == "... 1x3 0x2"

    def test_summary_validates(self):
        tracker = RegimeTracker(hold=1)
        self.feed(tracker, [1] * 5 + [64] * 5)
        summary = validate_signature_summary(tracker.summary())
        assert summary["count"] == 10
        assert summary["n_regimes"] == 2
        shares = [r["share"] for r in summary["regimes"]]
        assert sum(shares) == pytest.approx(1.0)

    def test_trace_lane_events(self):
        tracker = RegimeTracker(hold=1)
        self.feed(tracker, [1] * 4 + [64] * 4)
        events = regime_trace_events(tracker)
        assert events[0]["ph"] == "M"
        lanes = [e for e in events if e["ph"] == "X"]
        assert len(lanes) == len(tracker.runs)
        assert lanes[0]["args"]["blocksteps"] == 4


class TestValidateSummary:
    def test_rejects_non_object(self):
        with pytest.raises(SignatureError):
            validate_signature_summary([])

    def test_rejects_foreign_schema(self):
        with pytest.raises(SignatureError):
            validate_signature_summary({"schema": "nope", "regimes": []})

    def test_rejects_bad_share(self):
        doc = {"schema": SIGNATURE_SCHEMA,
               "regimes": [{"regime": 0, "count": 3, "share": 1.5}]}
        with pytest.raises(SignatureError):
            validate_signature_summary(doc)
