"""Unit tests for :mod:`repro.telemetry`: tracer, histogram, phase
aggregation, sinks, and the report renderers."""

from __future__ import annotations

import json
import time
from unittest import mock

import numpy as np
import pytest

from repro import telemetry
from repro.telemetry.metrics import pow2_bins
from repro.telemetry import (
    FlopsLedger,
    Histogram,
    InMemorySink,
    PhaseAggregator,
    SignatureRecorder,
    SpanEvent,
    SpanFold,
    T_BARRIER,
    T_COMM,
    T_HOST,
    T_OTHER,
    T_PIPE,
    Tracer,
    breakdown_json,
    get_tracer,
    render_breakdown,
    set_tracer,
)


@pytest.fixture
def clean_global_tracer():
    """Restore the process-wide tracer after a test that swaps it."""
    old = get_tracer()
    yield
    set_tracer(old)


def make_tracer() -> tuple[Tracer, InMemorySink]:
    sink = InMemorySink()
    return Tracer(enabled=True, sinks=[sink]), sink


class TestTracer:
    def test_span_records_duration_and_name(self):
        tracer, sink = make_tracer()
        with tracer.span("work", phase=T_HOST, n=3):
            time.sleep(0.001)
        (event,) = sink.events
        assert event.name == "work"
        assert event.phase == T_HOST
        assert event.attrs == {"n": 3}
        assert event.dur_us >= 1000.0
        assert event.parent_id is None
        assert event.depth == 0

    def test_spans_nest_correctly(self):
        tracer, sink = make_tracer()
        with tracer.span("outer"):
            with tracer.span("middle"):
                with tracer.span("inner"):
                    pass
            with tracer.span("middle2"):
                pass
        by_name = {e.name: e for e in sink.events}
        assert by_name["outer"].parent_id is None
        assert by_name["middle"].parent_id == by_name["outer"].span_id
        assert by_name["inner"].parent_id == by_name["middle"].span_id
        assert by_name["middle2"].parent_id == by_name["outer"].span_id
        assert by_name["outer"].depth == 0
        assert by_name["middle"].depth == 1
        assert by_name["inner"].depth == 2
        # children finish before parents, and durations nest
        assert by_name["inner"].dur_us <= by_name["middle"].dur_us
        assert by_name["middle"].dur_us + by_name["middle2"].dur_us <= (
            by_name["outer"].dur_us + 1.0
        )

    def test_set_attaches_attributes_mid_span(self):
        tracer, sink = make_tracer()
        with tracer.span("retryable") as span:
            span.set(retries=2)
        assert sink.events[0].attrs == {"retries": 2}

    def test_disabled_tracer_emits_nothing(self):
        tracer, sink = make_tracer()
        tracer.enabled = False
        with tracer.span("ghost") as span:
            span.set(x=1)  # null span tolerates the same interface
        tracer.observe("core.block_size", 1.0)
        assert sink.events == []

    def test_tracer_carries_spans_only(self):
        """Run quantities live in the stats objects that count them; the
        tracer has no metric registry, and the per-blockstep hook records
        nothing."""
        tracer, sink = make_tracer()
        tracer.observe("core.block_size", 8)
        assert sink.events == []
        assert not hasattr(tracer, "metrics")
        for name in ("Metrics", "Counter", "Gauge", "render_metrics"):
            assert not hasattr(telemetry, name), name

    def test_disabled_span_is_shared_singleton(self):
        tracer = Tracer(enabled=False)
        assert tracer.span("a") is tracer.span("b")

    def test_virtual_clock_stamps(self):
        vt = {"now": 10.0}
        sink = InMemorySink()
        tracer = Tracer(enabled=True, sinks=[sink], virtual_clock=lambda: vt["now"])
        with tracer.span("comm", phase=T_COMM):
            vt["now"] = 35.0
        (event,) = sink.events
        assert event.v_start_us == 10.0
        assert event.v_dur_us == pytest.approx(25.0)

    def test_global_tracer_swap(self, clean_global_tracer):
        assert get_tracer().enabled is False  # process default is off
        mine = Tracer(enabled=True)
        old = set_tracer(mine)
        assert get_tracer() is mine
        set_tracer(old)
        assert get_tracer() is old

    def test_configure_installs_enabled_tracer(self, clean_global_tracer):
        sink = InMemorySink()
        tracer = telemetry.configure(sinks=[sink])
        assert get_tracer() is tracer
        assert tracer.enabled


class TestMetrics:
    """:mod:`repro.telemetry.metrics`: the histogram the ledgers keep."""

    def test_histogram_moments_and_bins(self):
        h = Histogram("h")
        for v in (1, 2, 4, 8, 8):
            h.observe(v)
        assert h.count == 5
        assert h.mean == pytest.approx(23 / 5)
        assert h.min == 1 and h.max == 8
        # power-of-two bins: 1 -> bin 0, 2 -> bin 2, 4 -> bin 3, 8 -> bin 4
        assert h.bins == {0: 1, 2: 1, 3: 1, 4: 2}

    def test_bin_edges_one_ulp_either_side_of_powers_of_two(self):
        """Bin b covers [2^(b-1), 2^b): the value one ulp below 2^k
        belongs to bin k, and 2^k and the value one ulp above it to
        bin k+1.  (``floor(log2(v))`` rounds the first up from k >= 7.)"""
        for k in range(1, 61):
            edge = 2.0 ** k
            for value, want in ((np.nextafter(edge, 0.0), k),
                                (edge, k + 1),
                                (np.nextafter(edge, np.inf), k + 1)):
                h = Histogram("h")
                h.observe(value)
                assert h.bins == {want: 1}, (k, value)
                assert pow2_bins(np.array([value])).tolist() == [want]

    def test_snapshot_is_json_serialisable(self):
        h = Histogram("h")
        h.observe(3.0)
        snap = json.loads(json.dumps(h.summary()))
        assert snap["count"] == 1 and snap["max"] == 3.0


class TestPhaseAggregation:
    @staticmethod
    def event(name, span_id, parent_id, dur, phase=None, depth=0, v_dur=None):
        return SpanEvent(
            name=name,
            span_id=span_id,
            parent_id=parent_id,
            depth=depth,
            t_start_us=0.0,
            dur_us=dur,
            phase=phase,
            v_start_us=0.0 if v_dur is not None else None,
            v_dur_us=v_dur,
        )

    def test_self_time_attribution_sums_to_root_total(self):
        events = [
            self.event("blockstep", 1, None, 100.0, phase=T_HOST),
            self.event("force", 2, 1, 40.0, phase=T_PIPE, depth=1),
            self.event("net.exchange", 3, 1, 30.0, phase=T_COMM, depth=1),
        ]
        b = PhaseAggregator().consume(events).breakdown()
        assert b.wall.totals[T_HOST] == pytest.approx(30.0)  # 100 - 40 - 30
        assert b.wall.totals[T_PIPE] == pytest.approx(40.0)
        assert b.wall.totals[T_COMM] == pytest.approx(30.0)
        assert b.wall.total_us == pytest.approx(100.0)  # == root span duration

    def test_name_map_and_parent_inheritance(self):
        events = [
            self.event("grape.force", 1, None, 50.0),  # name map -> pipe
            self.event("unmapped-child", 2, 1, 20.0, depth=1),  # inherits pipe
            self.event("mystery", 3, None, 10.0),  # -> other
        ]
        b = PhaseAggregator().consume(events).breakdown()
        assert b.wall.totals[T_PIPE] == pytest.approx(50.0)
        assert b.wall.totals[T_OTHER] == pytest.approx(10.0)

    def test_explicit_phase_wins_over_name_map(self):
        events = [self.event("force", 1, None, 10.0, phase=T_BARRIER)]
        b = PhaseAggregator().consume(events).breakdown()
        assert b.wall.totals[T_BARRIER] == pytest.approx(10.0)

    def test_virtual_domain_aggregates_separately(self):
        events = [
            self.event("net.exchange", 1, None, 5.0, phase=T_COMM, v_dur=200.0),
            self.event("net.barrier", 2, 1, 1.0, phase=T_BARRIER, depth=1, v_dur=120.0),
        ]
        b = PhaseAggregator().consume(events).breakdown()
        assert b.virtual is not None
        assert b.virtual.totals[T_COMM] == pytest.approx(80.0)  # 200 - 120
        assert b.virtual.totals[T_BARRIER] == pytest.approx(120.0)
        assert b.virtual.total_us == pytest.approx(200.0)

    def test_live_tracer_phases_sum_to_root_durations(self):
        tracer, sink = make_tracer()
        for _ in range(3):
            with tracer.span("blockstep", phase=T_HOST):
                with tracer.span("predict"):
                    pass
                with tracer.span("force", phase=T_PIPE):
                    time.sleep(0.0005)
        b = PhaseAggregator().consume(sink.events).breakdown()
        roots = sum(e.dur_us for e in sink.events if e.parent_id is None)
        assert b.wall.total_us == pytest.approx(roots, rel=1e-9)
        assert b.wall.totals[T_PIPE] > 0.0
        assert b.wall.totals[T_HOST] > 0.0

    def test_span_summaries(self):
        tracer, sink = make_tracer()
        for _ in range(4):
            with tracer.span("predict"):
                pass
        b = PhaseAggregator().consume(sink.events).breakdown()
        (summary,) = b.spans
        assert summary.name == "predict"
        assert summary.count == 4
        assert summary.total_us > 0.0
        assert summary.phase == T_HOST  # from the default name map
        assert summary.mean_us == pytest.approx(summary.total_us / 4)


class TestOneAnswer:
    def test_four_readers_agree_on_an_unphased_child(self):
        """blockstep(host) > grape.force > an unphased, unmapped 2 ms
        child: the child's time is pipe time by the ancestor rule, and
        the post-hoc breakdown, the streaming totals, the signature
        shares and the flops buckets all say so (they used to read
        pipe / other / other / host).  The tracer runs on a scripted
        clock, so the 20 us of self time its two ancestors get each is
        exact and a busy machine cannot move the shares."""
        sink = InMemorySink()
        recorder, ledger = SignatureRecorder(), FlopsLedger()
        fold = SpanFold([recorder, ledger])
        now = [0.0]
        with mock.patch("repro.telemetry.tracer.perf_counter", lambda: now[0]):
            tracer = Tracer(enabled=True, sinks=[sink, fold])
            with tracer.span("blockstep", phase=T_HOST, n_block=1, n=2):
                now[0] += 20e-6
                with tracer.span("grape.force"):
                    now[0] += 20e-6
                    with tracer.span("unmapped-child"):
                        now[0] += 0.002

        posthoc = PhaseAggregator().consume(sink.events).breakdown()
        assert posthoc.wall.fraction(T_PIPE) > 0.9
        streaming = fold.snapshot()["wall_us"]
        assert streaming[T_PIPE] / sum(streaming.values()) > 0.9
        assert T_OTHER not in streaming
        assert recorder.latest.shares[T_PIPE] > 0.9
        assert recorder.latest.shares[T_OTHER] == 0.0
        account = ledger.latest
        assert account.buckets["pipeline_idle"] > 0.9 * account.peak_flops
        assert account.buckets["host"] < 0.1 * account.peak_flops
        # and they are the same numbers, not merely the same verdict
        assert posthoc.wall.totals[T_PIPE] == pytest.approx(streaming[T_PIPE])
        (child,) = [s for s in posthoc.spans if s.name == "unmapped-child"]
        assert child.phase == T_PIPE


class TestReport:
    def _breakdown(self):
        tracer, sink = make_tracer()
        with tracer.span("blockstep", phase=T_HOST):
            with tracer.span("force", phase=T_PIPE):
                pass
        return PhaseAggregator().consume(sink.events).breakdown()

    def test_render_breakdown_mentions_paper_phases(self):
        b = self._breakdown()
        text = render_breakdown(b)
        assert "T_host" in text and "T_pipe" in text
        assert "wall [ms]" in text
        assert "blockstep" in text  # span table

    def test_breakdown_json_parses(self):
        b = self._breakdown()
        payload = json.loads(breakdown_json(b))
        assert payload["wall_total_us"] == pytest.approx(b.wall.total_us)
        assert "wall_us" in payload and "spans" in payload


class TestHistogramPercentiles:
    """The pow2-bin percentile helpers feeding the comm and rank
    ledgers (octave resolution, clamped to observed extrema)."""

    def test_empty_histogram(self):
        h = Histogram("h")
        assert h.percentile(0.0) == 0.0
        assert h.percentile(50.0) == 0.0
        assert h.percentile(100.0) == 0.0
        s = h.summary()
        assert s["p50"] == 0.0 and s["p90"] == 0.0 and s["p99"] == 0.0

    def test_extrema_are_exact_not_bin_edges(self):
        """q=0/q=100 report the observed min/max even when both sit
        deep inside a bin (the bin walk would say 8 for a min of 5)."""
        h = Histogram("h")
        for v in (5.0, 6.0, 7.0, 100.0):
            h.observe(v)
        assert h.percentile(0.0) == 5.0
        assert h.percentile(100.0) == 100.0

    def test_single_observation_single_bucket(self):
        h = Histogram("h")
        h.observe(5.0)  # bin 3 covers [4, 8); clamp must report 5, not 8
        assert h.percentile(0.0) == 5.0
        assert h.percentile(50.0) == 5.0
        assert h.percentile(100.0) == 5.0

    def test_percentiles_are_monotone_and_bounded(self):
        h = Histogram("h")
        for v in (1, 2, 4, 8, 8, 64, 128):
            h.observe(v)
        qs = [h.percentile(q) for q in (0, 25, 50, 75, 90, 100)]
        assert qs == sorted(qs)
        assert qs[0] == h.min
        assert qs[-1] == h.max
        # octave resolution: p50 within a factor of two of the true median
        assert 8.0 / 2 <= h.percentile(50.0) <= 8.0 * 2

    def test_out_of_range_q_raises(self):
        h = Histogram("h")
        h.observe(1.0)
        with pytest.raises(ValueError):
            h.percentile(-1.0)
        with pytest.raises(ValueError):
            h.percentile(101.0)

    def test_summary_uses_percentiles(self):
        h = Histogram("core.block_size")
        for v in (2, 2, 4, 16):
            h.observe(v)
        s = h.summary()
        assert s["p50"] in (2.0, 4.0)
        assert s["p90"] == 16.0
        assert s["p99"] == 16.0
