"""Single-producer, multi-consumer snapshot bus, delivered in place.

The architecture constraint (ROADMAP: the signal-recorder pattern) is
that consumers are **independent**: the archive writer and the live
progress reporter share nothing but the record stream, and a broken
consumer must never stop the integrator.  ``publish`` hands each record
to every consumer in turn, on the producer's thread and in stream
order; a consumer's exception is caught and counted against it alone.
A slow consumer therefore slows the producer, and its cost is paid
inside :meth:`SnapshotBus.emit`, where a profile of the job finds it.
"""

from __future__ import annotations

from typing import Any, Iterable, Protocol, runtime_checkable

from .records import SnapshotRecord, make_record


@runtime_checkable
class SnapshotConsumer(Protocol):
    """Anything that accepts bus records: ``name`` keys the bus
    statistics, ``accept`` is called once per record, ``close`` after
    the final one."""

    name: str

    def accept(self, record: SnapshotRecord) -> None: ...

    def close(self) -> None: ...


class SnapshotBus:
    """The producer-side handle: numbers, stamps and fans out records."""

    def __init__(self, consumers: Iterable[SnapshotConsumer]) -> None:
        self._consumers = list(consumers)
        names = [c.name for c in self._consumers]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate consumer names: {names}")
        self._counts = {name: {"delivered": 0, "errors": 0} for name in names}
        #: Next sequence number to be assigned (a resumed job sets it to
        #: continue its archive's numbering).
        self.seq = 0
        self._closed = False

    def emit(
        self, kind: str, t: float | None = None, **payload: Any
    ) -> SnapshotRecord:
        """Create the next record in the stream and publish it."""
        record = make_record(self.seq, kind, t=t, **payload)
        self.publish(record)
        return record

    def publish(self, record: SnapshotRecord) -> None:
        if self._closed:
            raise RuntimeError("bus is closed")
        self.seq = max(self.seq, record.seq) + 1
        for consumer in self._consumers:
            counts = self._counts[consumer.name]
            try:
                consumer.accept(record)
                counts["delivered"] += 1
            except Exception:
                counts["errors"] += 1

    def stats(self) -> dict[str, dict[str, int]]:
        """Per-consumer delivered/error counters."""
        return {name: dict(counts) for name, counts in self._counts.items()}

    def close(self) -> dict[str, dict[str, int]]:
        """Close the consumers (once); returns :meth:`stats`."""
        if not self._closed:
            self._closed = True
            for consumer in self._consumers:
                try:
                    consumer.close()
                except Exception:
                    self._counts[consumer.name]["errors"] += 1
        return self.stats()

    def __enter__(self) -> "SnapshotBus":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
