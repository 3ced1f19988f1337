"""Span sinks: in-memory and the streaming fold.

A sink is anything with ``span_step(name, span_id, parent_id, phase,
t_start_us, dur_us, v_dur_us, attrs)`` — a fold, handed each finished
span's fields — or with ``emit(event)``, handed one
:class:`~repro.telemetry.tracer.SpanEvent` per span; optionally it may
also release resources (``close()``).  The tracer delivers every
finished span to each of its sinks, so sinks must stay cheap.  A trace
kept on disk is a Chrome trace document, written on close by
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
