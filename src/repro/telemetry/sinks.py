"""Span-event sinks: in-memory and the streaming fold.

A sink is anything with ``emit(event)``; optionally it may also
release resources (``close()``).  The tracer delivers every finished
span to each of its sinks in order, so sinks must stay cheap.  A trace kept on disk is a
Chrome trace document, written on close by
:class:`repro.telemetry.TimelineSink`.
"""

from __future__ import annotations

from .phases import SpanFold
from .tracer import SpanEvent


class InMemorySink:
    """Retains every event in a list (tests, post-hoc aggregation)."""

    def __init__(self) -> None:
        self.events: list[SpanEvent] = []

    def emit(self, event: SpanEvent) -> None:
        self.events.append(event)

    def clear(self) -> None:
        self.events.clear()


#: O(1)-memory phase attribution for arbitrarily long runs: the span
#: fold used bare, with no per-blockstep consumers.  ``snapshot()`` is
#: cheap and safe at any record cadence — the service supervisor turns
#: it into periodic ``phases`` records on the snapshot bus.
StreamingPhaseSink = SpanFold
