"""Comm-ledger capture: one benchmark trial's network traffic, exported.

The flight recorder (:mod:`repro.bench.profiling`) answers "what ran
when"; this module answers the section-4.4 question "what did the
*network* do" — per-link traffic, per-barrier straggler attribution,
and every coherence exchange, captured from one trial of a registered
benchmark and exported either as a schema-versioned ledger document
(:data:`repro.parallel.ledger.COMM_LEDGER_SCHEMA`) or merged into a
Chrome-trace timeline next to the span film.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from ..io.runlog import write_json_atomic
from ..parallel.ledger import (
    COMM_LEDGER_SCHEMA,
    COMM_PID,
    merge_comm_summaries,
)
from ..telemetry import InMemorySink, SpanEvent, Tracer, set_tracer
from ..telemetry.timeline import write_timeline
from .registry import Benchmark, BenchContext


@dataclass
class CommCapture:
    """One trial's communication record: the full per-network ledgers
    plus the span events that bracket them (for timeline export)."""

    benchmark: str
    params: dict[str, Any]
    ledgers: list[dict[str, Any]] = field(default_factory=list)
    events: list[SpanEvent] = field(default_factory=list)
    trace_events: list[dict[str, Any]] = field(default_factory=list)

    def as_dict(self) -> dict[str, Any]:
        """The ``bench ledger`` document: schema + per-network full
        ledgers + the rolled-up summary section."""
        return {
            "schema": COMM_LEDGER_SCHEMA,
            "benchmark": self.benchmark,
            "params": dict(self.params),
            "ledgers": list(self.ledgers),
            "summary": merge_comm_summaries(
                {k: v for k, v in ledger.items()
                 if k not in ("schema", "barrier_records",
                              "exchange_records")}
                for ledger in self.ledgers
            ),
        }

    def write(self, path: str | Path) -> Path:
        return write_json_atomic(self.as_dict(), path)

    def write_timeline(self, path: str | Path) -> Path:
        """Span film + ledger lanes in one Chrome-trace document."""
        return write_timeline(
            path,
            self.events,
            metadata={"benchmark": self.benchmark,
                      "comm_ledger": "attached"},
            extra_events=self.trace_events,
        )


def capture_comm_ledger(
    bench: Benchmark, params: dict[str, Any]
) -> CommCapture:
    """Run one trial of ``bench`` and capture every attached network's
    comm ledger (setup untimed, like the runner).

    Raises :class:`ValueError` if the trial attaches no simulated
    network — a benchmark with no comm side has no ledger to export.
    """
    state = bench.setup(params) if bench.setup is not None else None
    sink = InMemorySink()
    tracer = Tracer(enabled=True, sinks=[sink])
    ctx = BenchContext(params=dict(params), tracer=tracer, sink=sink)
    old = set_tracer(tracer)
    try:
        bench.fn(ctx, state)
    finally:
        set_tracer(old)
    if not ctx.networks:
        raise ValueError(
            f"benchmark {bench.name!r} attached no simulated network; "
            "nothing to export (pick a cluster/NIC benchmark)"
        )
    trace_events: list[dict[str, Any]] = []
    for i, net in enumerate(ctx.networks):
        # one trace process per network so lanes never interleave
        trace_events += net.ledger.trace_events(
            pid=COMM_PID + i, label=f"net{i}[{net.nic.name}]")
    return CommCapture(
        benchmark=bench.name,
        params=dict(params),
        ledgers=[net.ledger.as_dict() for net in ctx.networks],
        events=list(sink.events),
        trace_events=trace_events,
    )
