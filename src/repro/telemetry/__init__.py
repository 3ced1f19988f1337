"""Unified tracing, metrics and phase attribution.

The paper's evaluation method *is* instrumentation: attribute every
microsecond of a run to host computation (``T_host``), GRAPE pipeline
time (``T_pipe``/``T_GRAPE``), communication (``T_comm``) and
synchronisation (``T_barrier``), then tune the dominant term (that is
how the NS 83820 -> Intel 82540EM NIC swap of section 4.4 was found).
This package makes the same attribution observable on the
reproduction's real code paths:

* :class:`Tracer` — span context managers with wall- and virtual-clock
  timestamps, near-free when disabled (the default);
* :class:`Metrics` — counters/gauges/histograms for run quantities
  (block sizes, interactions, bytes per message, exponent retries);
* :class:`SpanFold` — the one streaming self-time fold: rolls spans up
  into the section-4 taxonomy (:class:`PhaseAggregator` feeds it a
  retained list; :func:`render_breakdown` prints the fig. 14/16/18-style
  budget) and hands each closed blockstep to its consumers as one
  :class:`BlockstepRecord`;
* sinks — in-memory, crash-safe JSONL (through
  :mod:`repro.io.runlog`), and the fold itself;
* :class:`SamplingProfiler` — background-thread sampler whose samples
  are attributed to the *currently open span* first and to module-path
  rules only as a fallback (the flight recorder's profiler);
* :mod:`timeline <repro.telemetry.timeline>` — Chrome trace-event
  export of span trees (both clock domains) and sampler ticks, for
  ``chrome://tracing`` / Perfetto.

Quick start::

    from repro import telemetry

    sink = telemetry.InMemorySink()
    tracer = telemetry.configure(sinks=[sink])   # enables globally
    ...  # run an integrator / emulator / simcomm workload
    breakdown = telemetry.PhaseAggregator().consume(sink.events).breakdown()
    print(telemetry.render_breakdown(breakdown))
"""

# import order matters: tracer/phases must land in the package
# namespace before report/sinks pull in repro.io (which closes an
# import cycle back through repro.core's instrumented integrators)
from .metrics import Counter, Gauge, Histogram, Metrics
from .tracer import SpanEvent, Tracer, configure, get_tracer, set_tracer
from .phases import (
    DEFAULT_SPAN_PHASES,
    PAPER_PHASE_NAMES,
    PHASES,
    T_BARRIER,
    T_COMM,
    T_HOST,
    T_OTHER,
    T_PIPE,
    BlockstepRecord,
    PhaseAggregator,
    PhaseBreakdown,
    PhaseTotals,
    SpanFold,
    SpanSummary,
    replay,
    resolve_phase,
)
from .report import breakdown_json, render_breakdown, render_metrics
from .sinks import (
    InMemorySink,
    JSONLSink,
    StreamingPhaseSink,
    read_spans,
)
from .signatures import (
    N_BUCKETS,
    REGIME_PID,
    SCHEDULE_FEATURES,
    SIGNATURE_HEADLINE,
    SIGNATURE_SCHEMA,
    PhaseSignature,
    RegimeChange,
    RegimeTracker,
    SignatureError,
    SignatureRecorder,
    StreamingKMeans,
    normalise_shares,
    regime_trace_events,
    schedule_signature,
    validate_signature_summary,
)
from .sampler import (
    SOURCE_FRAMES,
    SOURCE_NONE,
    SOURCE_SPAN,
    Sample,
    SamplerReport,
    SamplingProfiler,
    attribute_sample,
)
from .timeline import (
    TRACE_PIDS,
    TimelineSink,
    build_timeline,
    sample_events,
    timeline_events,
    validate_timeline,
    write_timeline,
)
from .efficiency import (
    BUCKETS,
    EFFICIENCY_HEADLINE,
    EFFICIENCY_PID,
    EFFICIENCY_SCHEMA,
    BlockstepEfficiency,
    EfficiencyError,
    FlopsLedger,
    HardwareProfile,
    efficiency_from_events,
    efficiency_trace_events,
    validate_efficiency,
)
from .ranks import (
    IDLE_BUCKETS,
    RANK_HEADLINE,
    RANK_PID,
    RANK_SAMPLE_SCHEMA,
    RankBlockstep,
    RankError,
    RankLedger,
    rank_trace_events,
    validate_rank_record,
    validate_rank_section,
)

#: The headline registry: each observatory's :class:`repro.schema.Section`
#: keyed by the name its summary document has in a benchmark entry.  Bus
#: payloads, ``state.json``, the status line, gauges, history rows and
#: reports are projections of it.  (Defined before ``openmetrics`` is
#: imported: the gauge projections read it.)
HEADLINE = {
    section.name: section
    for section in (SIGNATURE_HEADLINE, EFFICIENCY_HEADLINE, RANK_HEADLINE)
}

from .openmetrics import (  # noqa: E402
    OpenMetricsError,
    artifact_metrics,
    job_metrics,
    parse_openmetrics,
    rank_summary_metrics,
    render_openmetrics,
    write_openmetrics,
)

__all__ = [
    "Tracer",
    "SpanEvent",
    "get_tracer",
    "set_tracer",
    "configure",
    "Metrics",
    "Counter",
    "Gauge",
    "Histogram",
    "SpanFold",
    "BlockstepRecord",
    "replay",
    "resolve_phase",
    "PhaseAggregator",
    "PhaseBreakdown",
    "PhaseTotals",
    "SpanSummary",
    "PHASES",
    "PAPER_PHASE_NAMES",
    "DEFAULT_SPAN_PHASES",
    "T_HOST",
    "T_PIPE",
    "T_COMM",
    "T_BARRIER",
    "T_OTHER",
    "InMemorySink",
    "JSONLSink",
    "StreamingPhaseSink",
    "read_spans",
    "PhaseSignature",
    "SignatureRecorder",
    "SignatureError",
    "StreamingKMeans",
    "RegimeTracker",
    "RegimeChange",
    "SIGNATURE_SCHEMA",
    "SCHEDULE_FEATURES",
    "N_BUCKETS",
    "REGIME_PID",
    "normalise_shares",
    "regime_trace_events",
    "schedule_signature",
    "validate_signature_summary",
    "render_breakdown",
    "render_metrics",
    "breakdown_json",
    "SamplingProfiler",
    "Sample",
    "SamplerReport",
    "attribute_sample",
    "SOURCE_SPAN",
    "SOURCE_FRAMES",
    "SOURCE_NONE",
    "TimelineSink",
    "TRACE_PIDS",
    "build_timeline",
    "timeline_events",
    "sample_events",
    "write_timeline",
    "validate_timeline",
    "FlopsLedger",
    "BlockstepEfficiency",
    "HardwareProfile",
    "EfficiencyError",
    "EFFICIENCY_SCHEMA",
    "EFFICIENCY_PID",
    "BUCKETS",
    "efficiency_from_events",
    "efficiency_trace_events",
    "validate_efficiency",
    "RankLedger",
    "RankBlockstep",
    "RankError",
    "RANK_SAMPLE_SCHEMA",
    "RANK_PID",
    "IDLE_BUCKETS",
    "rank_trace_events",
    "validate_rank_record",
    "validate_rank_section",
    "HEADLINE",
    "OpenMetricsError",
    "render_openmetrics",
    "parse_openmetrics",
    "write_openmetrics",
    "artifact_metrics",
    "job_metrics",
    "rank_summary_metrics",
]
