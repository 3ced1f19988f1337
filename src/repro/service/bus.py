"""Single-producer, multi-consumer snapshot bus with bounded queues.

The architecture constraint (ROADMAP: the signal-recorder pattern) is
that consumers are **independent**: the archive writer and the live
progress reporter share nothing but the record stream, and a slow or
broken consumer must never stall the integrator.  Concretely:

* each consumer gets its own bounded queue and worker thread;
* ``publish`` is a non-blocking ``put`` — when a consumer's queue is
  full the record is **dropped for that consumer only** and counted,
  never buffered unboundedly, never back-pressured into the producer;
* consumer exceptions are caught, counted and isolated — one consumer
  dying does not affect the stream the others see;
* ``close`` drains what is queued, joins the workers and closes the
  consumers.

``threaded=False`` delivers synchronously in ``publish`` (same
isolation guarantees, no queues) — the deterministic mode tests use,
and the right choice when the consumers are known-cheap.
"""

from __future__ import annotations

import queue
import threading
from typing import Any, Iterable, Protocol, runtime_checkable

from .records import SnapshotRecord, make_record

#: Per-consumer queue capacity; at the supervisor's record cadence this
#: is minutes of slack before a stuck consumer starts losing records.
DEFAULT_QUEUE_CAPACITY = 256


@runtime_checkable
class SnapshotConsumer(Protocol):
    """Anything that accepts bus records.

    ``name`` identifies the consumer in bus statistics; ``accept`` is
    called once per record (from the consumer's own worker thread in
    threaded mode); ``close`` releases resources after the final
    record.
    """

    name: str

    def accept(self, record: SnapshotRecord) -> None: ...

    def close(self) -> None: ...


class _ConsumerLane:
    """One consumer's queue, worker thread and counters."""

    __slots__ = ("consumer", "queue", "thread", "delivered", "dropped", "errors")

    def __init__(self, consumer: SnapshotConsumer, capacity: int) -> None:
        self.consumer = consumer
        self.queue: queue.Queue[SnapshotRecord | None] = queue.Queue(
            maxsize=capacity
        )
        self.thread: threading.Thread | None = None
        self.delivered = 0
        self.dropped = 0
        self.errors = 0

    def deliver(self, record: SnapshotRecord) -> None:
        try:
            self.consumer.accept(record)
            self.delivered += 1
        except Exception:
            self.errors += 1

    def run(self) -> None:
        while True:
            item = self.queue.get()
            if item is None:
                return
            self.deliver(item)


class SnapshotBus:
    """The producer-side handle: numbers, stamps and fans out records."""

    def __init__(
        self,
        consumers: Iterable[SnapshotConsumer],
        capacity: int = DEFAULT_QUEUE_CAPACITY,
        threaded: bool = True,
    ) -> None:
        if capacity < 1:
            raise ValueError("queue capacity must be positive")
        self._lanes = [_ConsumerLane(c, capacity) for c in consumers]
        names = [lane.consumer.name for lane in self._lanes]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate consumer names: {names}")
        self._threaded = bool(threaded)
        self._seq = 0
        self._closed = False
        if self._threaded:
            for lane in self._lanes:
                lane.thread = threading.Thread(
                    target=lane.run,
                    name=f"snapshot-bus:{lane.consumer.name}",
                    daemon=True,
                )
                lane.thread.start()

    # -- producing ----------------------------------------------------------

    def emit(
        self, kind: str, t: float | None = None, **payload: Any
    ) -> SnapshotRecord:
        """Create the next record in the stream and publish it."""
        record = make_record(self._seq, kind, t=t, **payload)
        self.publish(record)
        return record

    def publish(self, record: SnapshotRecord) -> None:
        if self._closed:
            raise RuntimeError("bus is closed")
        self._seq = max(self._seq, record.seq) + 1
        for lane in self._lanes:
            if not self._threaded:
                lane.deliver(record)
            else:
                try:
                    lane.queue.put_nowait(record)
                except queue.Full:
                    lane.dropped += 1

    # -- observability ------------------------------------------------------

    @property
    def seq(self) -> int:
        """Next sequence number to be assigned."""
        return self._seq

    def stats(self) -> dict[str, dict[str, int]]:
        """Per-consumer delivered/dropped/error counters."""
        return {
            lane.consumer.name: {
                "delivered": lane.delivered,
                "dropped": lane.dropped,
                "errors": lane.errors,
            }
            for lane in self._lanes
        }

    # -- shutdown -----------------------------------------------------------

    def close(self) -> dict[str, dict[str, int]]:
        """Drain queues, join workers, close consumers; returns stats."""
        if self._closed:
            return self.stats()
        self._closed = True
        if self._threaded:
            for lane in self._lanes:
                lane.queue.put(None)  # blocking: the sentinel must land
            for lane in self._lanes:
                if lane.thread is not None:
                    lane.thread.join()
        for lane in self._lanes:
            try:
                lane.consumer.close()
            except Exception:
                lane.errors += 1
        return self.stats()

    def __enter__(self) -> "SnapshotBus":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
