"""Span-event sinks: in-memory, JSONL-on-disk, and the streaming fold.

A sink is anything with ``emit(event)``; optionally it may also accept
a metrics snapshot (``emit_metrics(snapshot)``) and release resources
(``close()``).  The tracer delivers every finished span to each of its
sinks in order, so sinks must stay cheap.

The JSONL sink writes through :class:`repro.io.runlog.RunLogger` with
per-record flushing, so a killed run keeps its trace — the same
crash-safety contract as the production run logs the paper's figures
were drawn from.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any

from ..io.runlog import RunLogger, read_runlog_records
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


class JSONLSink:
    """Streams span events to a JSONL run log (``kind="span"`` records).

    Parameters
    ----------
    path:
        Target file; appended to, shareable with :class:`RunLogger`
        sample records.
    flush:
        Per-record flushing (default; crash-safe).
    header:
        Metadata for the log's header record.
    """

    def __init__(self, path: str | Path, flush: bool = True, **header: Any) -> None:
        self._log = RunLogger(path, flush=flush, **header).open()
        self.path = Path(path)

    def emit(self, event: SpanEvent) -> None:
        self._log.record("span", **event.as_record())

    def emit_metrics(self, snapshot: dict[str, Any]) -> None:
        self._log.record("metrics", snapshot=snapshot)

    def close(self) -> None:
        self._log.close()


#: O(1)-memory phase attribution for arbitrarily long runs: the span
#: fold used bare, with no per-blockstep consumers.  ``snapshot()`` is
#: cheap and safe at any record cadence — the service supervisor turns
#: it into periodic ``phases`` records on the snapshot bus.
StreamingPhaseSink = SpanFold


def read_spans(path: str | Path) -> tuple[dict, list[SpanEvent], dict[str, Any]]:
    """Round-trip a JSONL trace back into memory.

    Returns ``(header, events, last_metrics_snapshot)``; the snapshot
    is empty if the tracer was never flushed.
    """
    header, _, by_kind = read_runlog_records(path)
    events = [SpanEvent.from_record(rec) for rec in by_kind.get("span", [])]
    metrics_records = by_kind.get("metrics", [])
    snapshot = metrics_records[-1]["snapshot"] if metrics_records else {}
    return header, events, snapshot
