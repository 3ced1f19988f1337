"""Snapshot bus: records, fan-out, isolation (repro.service.bus).

Properties pinned here: schema-tagged record round-trips, monotone
sequence numbering, fan-out to every consumer, drop-on-full (a slow
consumer loses records, never stalls the producer), consumer exception
isolation, duplicate-name rejection, and the built-in consumers
(archive round-trip, progress throttling).
"""

import io
import json
import threading
import time

import pytest

from repro.service.bus import SnapshotBus
from repro.service.consumers import ArchiveWriter, ProgressReporter, read_archive
from repro.service.records import (
    KIND_CHECKPOINT,
    KIND_DISCONTINUITY,
    KIND_STATE,
    RECORD_KINDS,
    SNAPSHOT_RECORD_SCHEMA,
    RecordError,
    SnapshotRecord,
    make_record,
)


class Collector:
    """Minimal consumer: remembers everything, optionally slow/broken."""

    def __init__(self, name="collector", delay=0.0, fail=False):
        self.name = name
        self.records = []
        self.delay = delay
        self.fail = fail
        self.closed = False

    def accept(self, record):
        if self.delay:
            time.sleep(self.delay)
        if self.fail:
            raise RuntimeError("boom")
        self.records.append(record)

    def close(self):
        self.closed = True


class TestRecords:
    def test_round_trip(self):
        rec = make_record(3, KIND_STATE, t=0.5, energy=-0.25)
        clone = SnapshotRecord.from_record(rec.as_record())
        assert clone == rec
        assert clone.payload["energy"] == -0.25
        assert rec.as_record()["schema"] == SNAPSHOT_RECORD_SCHEMA

    def test_unknown_kind_rejected(self):
        with pytest.raises(RecordError):
            make_record(0, "gossip")

    def test_foreign_schema_rejected(self):
        rec = make_record(0, KIND_STATE).as_record()
        rec["schema"] = "else.where/2"
        with pytest.raises(RecordError):
            SnapshotRecord.from_record(rec)

    def test_all_kinds_constructible(self):
        for kind in RECORD_KINDS:
            make_record(0, kind)


class TestBusFanOut:
    def test_every_consumer_sees_every_record(self):
        a, b = Collector("a"), Collector("b")
        with SnapshotBus([a, b], threaded=False) as bus:
            for i in range(5):
                bus.emit(KIND_STATE, t=float(i), blocksteps=i)
        assert [r.seq for r in a.records] == list(range(5))
        assert a.records == b.records
        assert a.closed and b.closed

    def test_threaded_delivery(self):
        c = Collector()
        bus = SnapshotBus([c], threaded=True)
        for i in range(20):
            bus.emit(KIND_STATE, t=float(i))
        stats = bus.close()
        assert len(c.records) == 20
        assert stats["collector"]["delivered"] == 20
        assert stats["collector"]["dropped"] == 0

    def test_seq_monotone(self):
        with SnapshotBus([Collector()], threaded=False) as bus:
            first = bus.emit(KIND_STATE)
            second = bus.emit(KIND_CHECKPOINT)
        assert second.seq == first.seq + 1

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            SnapshotBus([Collector("x"), Collector("x")])

    def test_emit_after_close_raises(self):
        bus = SnapshotBus([Collector()], threaded=False)
        bus.close()
        with pytest.raises(RuntimeError):
            bus.emit(KIND_STATE)


class TestIsolation:
    def test_slow_consumer_drops_not_stalls(self):
        """A consumer stuck behind an event must not block the producer:
        excess records are dropped for that lane only."""
        gate = threading.Event()

        class Stuck(Collector):
            def accept(self, record):
                gate.wait(5.0)
                super().accept(record)

        stuck, fast = Stuck("stuck"), Collector("fast")
        bus = SnapshotBus([stuck, fast], capacity=4, threaded=True)
        start = time.monotonic()
        for i in range(50):
            bus.emit(KIND_STATE, t=float(i))
        elapsed = time.monotonic() - start
        assert elapsed < 1.0  # producer never waited on the stuck lane
        gate.set()
        stats = bus.close()
        assert stats["stuck"]["dropped"] > 0
        # records are dropped, never lost track of: every emit is either
        # delivered or counted as dropped, on both lanes
        for lane in ("fast", "stuck"):
            assert stats[lane]["delivered"] + stats[lane]["dropped"] == 50
        assert stats["fast"]["delivered"] > 0

    def test_failing_consumer_counted_not_fatal(self):
        bad, good = Collector("bad", fail=True), Collector("good")
        with SnapshotBus([bad, good], threaded=False) as bus:
            for i in range(3):
                bus.emit(KIND_STATE, t=float(i))
            stats = bus.stats()
        assert stats["bad"]["errors"] == 3
        assert len(good.records) == 3


class TestArchiveWriter:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "bus.jsonl"
        writer = ArchiveWriter(path)
        with SnapshotBus([writer], threaded=False) as bus:
            bus.emit(KIND_STATE, t=0.25, blocksteps=4)
            bus.emit(KIND_DISCONTINUITY, t=0.25, blockstep=4)
        records = read_archive(path)
        assert [r.kind for r in records] == [KIND_STATE, KIND_DISCONTINUITY]
        assert records[0].payload["blocksteps"] == 4

    def test_malformed_line_raises(self, tmp_path):
        path = tmp_path / "bus.jsonl"
        path.write_text("{nope\n")
        with pytest.raises(ValueError):
            read_archive(path)

    def test_append_across_instances(self, tmp_path):
        """A resumed job reopens the archive; earlier records survive."""
        path = tmp_path / "bus.jsonl"
        for offset in (0, 1):
            writer = ArchiveWriter(path)
            writer.accept(make_record(offset, KIND_STATE))
            writer.close()
        assert [r.seq for r in read_archive(path)] == [0, 1]


class TestProgressReporter:
    def test_renders_and_throttles(self):
        out = io.StringIO()
        rep = ProgressReporter(out, every=2)
        with SnapshotBus([rep], threaded=False) as bus:
            for i in range(4):
                bus.emit(
                    KIND_STATE, t=float(i), blocksteps=i,
                    mean_block_size=2.0, energy=-0.25,
                )
            bus.emit(KIND_CHECKPOINT, t=4.0, path="x.npz")
        lines = out.getvalue().splitlines()
        # 2 of 4 throttled states + the checkpoint line
        assert len(lines) == 3
        assert "checkpoint" in lines[-1]
