"""Span-event sinks: in-memory and the streaming fold.

A sink is anything with ``emit(event)``; optionally it may also accept
a metrics snapshot (``emit_metrics(snapshot)``) and release resources
(``close()``).  The tracer delivers every finished span to each of its
sinks in order, so sinks must stay cheap.  A trace kept on disk is a
Chrome trace document, written on close by
:class:`repro.telemetry.TimelineSink`.
"""

from __future__ import annotations

from typing import Any

from .phases import SpanFold
from .tracer import SpanEvent


class InMemorySink:
    """Retains every event in a list (tests, post-hoc aggregation)."""

    def __init__(self) -> None:
        self.events: list[SpanEvent] = []
        self.metrics_snapshots: list[dict[str, Any]] = []

    def emit(self, event: SpanEvent) -> None:
        self.events.append(event)

    def emit_metrics(self, snapshot: dict[str, Any]) -> None:
        self.metrics_snapshots.append(snapshot)

    def clear(self) -> None:
        self.events.clear()
        self.metrics_snapshots.clear()


#: O(1)-memory phase attribution for arbitrarily long runs: the span
#: fold used bare, with no per-blockstep consumers.  ``snapshot()`` is
#: cheap and safe at any record cadence — the service supervisor turns
#: it into periodic ``phases`` records on the snapshot bus.
StreamingPhaseSink = SpanFold
