"""Unified tracing and phase attribution.

The paper's evaluation method *is* instrumentation: attribute every
microsecond of a run to host computation (``T_host``), GRAPE pipeline
time (``T_pipe``/``T_GRAPE``), communication (``T_comm``) and
synchronisation (``T_barrier``), then tune the dominant term (that is
how the NS 83820 -> Intel 82540EM NIC swap of section 4.4 was found).
This package makes the same attribution observable on the
reproduction's real code paths:

* :class:`Tracer` — span context managers with wall- and virtual-clock
  timestamps, near-free when disabled (the default).  It records spans
  only: a run quantity (interactions, block sizes, messages, exponent
  retries) is read from the stats object that counts it
  (``integ.stats``, ``emulator.stats``, ``network.stats`` and
  ``network.ledger``);
* :class:`Histogram` — the power-of-two distribution those ledgers
  keep (bytes and flight time per link, task wall times per rank);
* :class:`SpanFold` — the one streaming self-time fold: rolls spans up
  into the section-4 taxonomy (:class:`PhaseAggregator` feeds it a
  retained list; :func:`render_breakdown` prints the fig. 14/16/18-style
  budget) and hands each closed blockstep to its consumers as one
  :class:`BlockstepRecord`;
* sinks — in-memory, and the fold itself;
* :mod:`timeline <repro.telemetry.timeline>` — Chrome trace-event
  export of span trees (both clock domains), for ``chrome://tracing``
  / Perfetto.

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
from .metrics import Histogram
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
from .report import breakdown_json, render_breakdown
from .sinks import InMemorySink, StreamingPhaseSink
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
from .timeline import (
    TRACE_PIDS,
    TimelineSink,
    build_timeline,
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
#: payloads, ``state.json``, the status line and reports are projections
#: of it.
HEADLINE = {
    section.name: section
    for section in (SIGNATURE_HEADLINE, EFFICIENCY_HEADLINE, RANK_HEADLINE)
}

__all__ = [
    "Tracer",
    "SpanEvent",
    "get_tracer",
    "set_tracer",
    "configure",
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
    "StreamingPhaseSink",
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
    "breakdown_json",
    "TimelineSink",
    "TRACE_PIDS",
    "build_timeline",
    "timeline_events",
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
]
