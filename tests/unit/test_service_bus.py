"""Snapshot bus: records, fan-out, isolation (repro.service.bus).

Properties pinned here: schema-tagged record round-trips, monotone
sequence numbering, in-order fan-out to every consumer on the
producer's thread, consumer exception isolation (a consumer that raises
on every record is counted; a supervisor job carrying one is a fault
cell of ``tests/property/test_prop_invariants.py``), duplicate-name
rejection, and the built-in consumers (archive round-trip, progress
throttling).
"""

import io

import pytest

from repro.service.bus import SnapshotBus
from repro.service.consumers import (
    ArchiveWriter,
    ProgressReporter,
    next_seq,
    read_archive,
)
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
    """Minimal consumer: remembers everything, optionally broken."""

    def __init__(self, name="collector", fail=False):
        self.name = name
        self.records = []
        self.fail = fail
        self.closed = False

    def accept(self, record):
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
        with SnapshotBus([a, b]) as bus:
            for i in range(5):
                bus.emit(KIND_STATE, t=float(i), blocksteps=i)
        assert [r.seq for r in a.records] == list(range(5))
        assert a.records == b.records
        assert a.closed and b.closed

    def test_seq_monotone(self):
        with SnapshotBus([Collector()]) as bus:
            first = bus.emit(KIND_STATE)
            second = bus.emit(KIND_CHECKPOINT)
        assert second.seq == first.seq + 1

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            SnapshotBus([Collector("x"), Collector("x")])

    def test_emit_after_close_raises(self):
        bus = SnapshotBus([Collector()])
        bus.close()
        with pytest.raises(RuntimeError):
            bus.emit(KIND_STATE)


class TestIsolation:
    def test_failing_consumer_counted_not_fatal(self):
        bad, good = Collector("bad", fail=True), Collector("good")
        with SnapshotBus([bad, good]) as bus:
            for i in range(3):
                bus.emit(KIND_STATE, t=float(i))
            stats = bus.stats()
        assert stats["bad"]["errors"] == 3
        assert len(good.records) == 3


class TestArchiveWriter:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "bus.jsonl"
        writer = ArchiveWriter(path)
        with SnapshotBus([writer]) as bus:
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

    def test_next_seq_reads_the_last_line(self, tmp_path):
        path = tmp_path / "bus.jsonl"
        assert next_seq(path) == 0
        path.write_text("")
        assert next_seq(path) == 0
        writer = ArchiveWriter(path)
        with SnapshotBus([writer]) as bus:
            bus.emit(KIND_STATE, t=0.0, note="x" * 10_000)
            assert next_seq(path) == 1
            bus.emit(KIND_STATE, t=0.0, note="y" * 10_000)
        assert next_seq(path) == 2


class TestProgressReporter:
    def test_renders_and_throttles(self):
        out = io.StringIO()
        rep = ProgressReporter(out, every=2)
        with SnapshotBus([rep]) as bus:
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
