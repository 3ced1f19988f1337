"""Span-correlated sampling profiler (repro.telemetry.sampler).

The acceptance property this file pins: host-side work executed
*inside* ``repro/forces/`` — which the bench path rules book under
``T_pipe`` — is reported under ``T_host`` when a host-phase span is
open, because span correlation outranks the path fallback.  All tests
drive :meth:`SamplingProfiler.tick` with a fake clock and synthetic
frame stacks, so there is no thread and no timing dependence.
"""

import threading

import pytest

from repro.bench.profiling import ATTRIBUTION_RULES
from repro.telemetry import (
    SOURCE_FRAMES,
    SOURCE_NONE,
    SOURCE_SPAN,
    T_COMM,
    T_HOST,
    T_OTHER,
    T_PIPE,
    SamplingProfiler,
    Tracer,
    attribute_sample,
)

#: A frame stack that the path rules unambiguously call pipeline time.
FORCES_FRAMES = [
    ("/repo/src/repro/forces/direct.py", "pack_i_particles"),
    ("/repo/src/repro/core/hermite.py", "step"),
]


class TestAttributeSample:
    def test_path_rules_misattribute_host_work_in_forces(self):
        """The fallback alone: frames in forces/ -> T_pipe.  This is
        the mis-attribution the sampler exists to correct."""
        phase, source, label = attribute_sample((), FORCES_FRAMES)
        assert phase == T_PIPE
        assert source == SOURCE_FRAMES
        assert label == "direct.py:pack_i_particles"

    def test_span_correlation_overrides_path_rules(self):
        """The pinned acceptance case: the same forces/ frames under an
        open host-phase span ("pack i-particle buffers") land in
        T_host, not T_pipe."""
        phase, source, label = attribute_sample(
            [("blockstep", None), ("pack", T_HOST)], FORCES_FRAMES
        )
        assert phase == T_HOST
        assert source == SOURCE_SPAN
        assert label == "pack"

    def test_innermost_span_wins(self):
        phase, _, label = attribute_sample(
            [("outer", T_HOST), ("inner", T_COMM)], []
        )
        assert phase == T_COMM and label == "inner"

    def test_unphased_span_resolves_through_name_map(self):
        """'predict' has no explicit phase but maps to host in
        DEFAULT_SPAN_PHASES."""
        phase, source, label = attribute_sample([("predict", None)], FORCES_FRAMES)
        assert phase == T_HOST and source == SOURCE_SPAN and label == "predict"

    def test_unmappable_open_span_still_counts_as_span_attributed(self):
        """Instrumentation present but phase undeclared: the sample is
        span-sourced 'other', never silently re-routed to path rules."""
        phase, source, label = attribute_sample([("mystery", None)], FORCES_FRAMES)
        assert phase == T_OTHER and source == SOURCE_SPAN and label == "mystery"

    def test_no_span_no_rule_match_is_unattributed(self):
        phase, source, label = attribute_sample(
            (), [("/usr/lib/python3/json/encoder.py", "iterencode")]
        )
        assert phase == T_OTHER and source == SOURCE_NONE

    def test_frame_walk_skips_unmatched_inner_frames(self):
        """Innermost frame unknown (numpy), caller in core/ -> host."""
        frames = [
            ("/site-packages/numpy/_core/multiarray.py", "dot"),
            ("/repo/src/repro/core/predictor.py", "predict_hermite"),
        ]
        phase, source, _ = attribute_sample((), frames)
        assert phase == T_HOST and source == SOURCE_FRAMES

    def test_rules_table_matches_bench_rules(self):
        """The default fallback is literally the bench table (one
        source of truth for path attribution)."""
        phase, _, _ = attribute_sample(
            (), FORCES_FRAMES, frame_rules=ATTRIBUTION_RULES
        )
        assert phase == attribute_sample((), FORCES_FRAMES)[0]


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


def make_sampler(tracer, **kw):
    kw.setdefault("interval_s", 0.001)
    return SamplingProfiler(tracer, clock=FakeClock(), **kw)


class TestSamplingProfilerTick:
    def test_deterministic_ticks_with_fake_clock(self):
        tracer = Tracer(enabled=True)
        sampler = make_sampler(tracer)
        tid = threading.get_ident()
        with tracer.span("force", phase=T_PIPE):
            for k in range(5):
                sampler.tick(now_us=1000.0 * k, frames_by_thread={tid: FORCES_FRAMES})
        assert [s.t_us for s in sampler.samples] == [0.0, 1000.0, 2000.0, 3000.0, 4000.0]
        assert all(s.phase == T_PIPE and s.source == SOURCE_SPAN for s in sampler.samples)

    def test_fake_clock_drives_timestamps(self):
        tracer = Tracer(enabled=True)
        clock = FakeClock()
        sampler = SamplingProfiler(tracer, interval_s=0.001, clock=clock)
        clock.t = 0.0025
        (sample,) = sampler.tick(frames_by_thread={1: FORCES_FRAMES})
        assert sample.t_us == pytest.approx(2500.0)

    def test_span_correlation_only_for_tracer_owner_thread(self):
        """A worker thread's frames are never attributed to the main
        thread's open span — they fall through to path rules."""
        tracer = Tracer(enabled=True)
        sampler = make_sampler(tracer)
        owner = threading.get_ident()
        with tracer.span("pack", phase=T_HOST):
            samples = sampler.tick(
                now_us=0.0,
                frames_by_thread={owner: FORCES_FRAMES, owner + 1: FORCES_FRAMES},
            )
        by_tid = {s.thread_id: s for s in samples}
        assert by_tid[owner].phase == T_HOST
        assert by_tid[owner].source == SOURCE_SPAN
        assert by_tid[owner + 1].phase == T_PIPE
        assert by_tid[owner + 1].source == SOURCE_FRAMES

    def test_retention_cap_counts_drops(self):
        tracer = Tracer(enabled=True)
        sampler = make_sampler(tracer, max_samples=3)
        for k in range(5):
            sampler.tick(now_us=float(k), frames_by_thread={1: FORCES_FRAMES})
        assert len(sampler.samples) == 3
        assert sampler.n_dropped == 2

    def test_rejects_nonpositive_interval(self):
        with pytest.raises(ValueError):
            SamplingProfiler(Tracer(enabled=True), interval_s=0.0)


class TestSamplerReport:
    def _run(self):
        tracer = Tracer(enabled=True)
        sampler = make_sampler(tracer)
        tid = threading.get_ident()
        with tracer.span("force", phase=T_PIPE):
            for k in range(8):
                sampler.tick(now_us=float(k), frames_by_thread={tid: FORCES_FRAMES})
        with tracer.span("pack", phase=T_HOST):
            sampler.tick(now_us=8.0, frames_by_thread={tid: FORCES_FRAMES})
        sampler.tick(now_us=9.0, frames_by_thread={tid: [("unknown.py", "f")]})
        return sampler

    def test_aggregation_and_fractions(self):
        report = self._run().report()
        assert report.n_samples == 10
        assert report.phase_counts == {T_PIPE: 8, T_HOST: 1, T_OTHER: 1}
        assert report.source_counts[SOURCE_SPAN] == 9
        assert report.span_fraction == pytest.approx(0.9)
        assert report.attributed_fraction == pytest.approx(0.9)
        assert report.phase_seconds(T_PIPE) == pytest.approx(8 * 0.001)

    def test_empty_report_is_all_zero(self):
        report = make_sampler(Tracer(enabled=True)).report()
        assert report.n_samples == 0
        assert report.span_fraction == 0.0
        assert report.attributed_fraction == 0.0

    def test_render_names_paper_phases(self):
        text = self._run().report().render()
        assert "T_pipe" in text and "T_host" in text
        assert "span-correlated" in text
        assert "force" in text  # the label table

    def test_as_dict_round_trips_counts(self):
        d = self._run().report().as_dict()
        assert d["n_samples"] == 10
        assert d["phase_counts"][T_PIPE] == 8
        assert d["span_fraction"] == pytest.approx(0.9)


class TestBackgroundThread:
    def test_thread_lifecycle_collects_real_samples(self):
        """The only wall-clock test: a real background sampler over a
        busy loop inside a span.  Asserts lifecycle + attribution, not
        timing (sample count depends on scheduler)."""
        tracer = Tracer(enabled=True)
        sampler = SamplingProfiler(tracer, interval_s=0.0005)
        deadline = __import__("time").perf_counter() + 0.08
        # the span encloses the sampler so every tick — including ones
        # racing stop() — observes an open span
        with tracer.span("force", phase=T_PIPE):
            with sampler:
                while __import__("time").perf_counter() < deadline:
                    sum(range(500))
        assert sampler._thread is None  # stopped
        mine = [s for s in sampler.samples if s.thread_id == tracer.owner_thread]
        for s in mine:
            assert s.phase == T_PIPE and s.source == SOURCE_SPAN

    def test_double_start_raises(self):
        sampler = SamplingProfiler(Tracer(enabled=True), interval_s=0.01)
        with sampler:
            with pytest.raises(RuntimeError):
                sampler.start()
