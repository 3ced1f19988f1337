"""The snapshot bus's unit of traffic: :class:`SnapshotRecord`.

One producer (the job supervisor) emits a monotonically numbered
stream of records; consumers see the same stream independently.  The
record kinds mirror what a long production run needs to reconstruct
afterwards:

``state``
    Periodic integration sample — time, counters, cheap energy
    estimate (from the maintained potentials; no extra force
    evaluations).
``phases``
    Cumulative telemetry phase totals (the paper's
    T_host/T_pipe/T_comm/T_barrier taxonomy) forwarded from the
    streaming phase sink.
``signature`` / ``efficiency`` / ``rank``
    One observatory's snapshot at a checkpoint: its headline columns as
    flat scalars (so ``tail`` shows them) plus the full summary
    document (``repro.phase_signature/1`` / ``repro.efficiency/1`` /
    ``repro.rank_sample/1``) nested under ``summary``.  Which scalars,
    and that ``state.json`` carries the same values, is the headline
    registry's business (:data:`repro.telemetry.HEADLINE`; the table is
    in ``docs/observability.md``).
``checkpoint``
    A durable checkpoint hit disk (path, blockstep, t).
``discontinuity``
    The stream resumed from a checkpoint: everything between the
    checkpointed blockstep and the kill is *not* in this stream, and
    the record carries both the checkpoint's provenance and the
    resuming process's, so cross-machine/commit resumes are visible.
``job``
    Lifecycle edges (submitted / started / interrupted / completed /
    failed) with status detail.
``bench_artifact``
    A completed sweep's validated ``BENCH_*.json`` artifact body, for
    the history-ingest consumer.

Records are JSON-ready dicts on the wire (``as_record`` /
``from_record``), schema-tagged so archives from future layouts are
refused loudly.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any

from ..schema import check
from ..telemetry import HEADLINE

#: Bump on breaking record-layout changes.
SNAPSHOT_RECORD_SCHEMA = "repro.snapshot_record/1"

KIND_STATE = "state"
KIND_PHASES = "phases"
KIND_CHECKPOINT = "checkpoint"
KIND_DISCONTINUITY = "discontinuity"
KIND_JOB = "job"
KIND_BENCH_ARTIFACT = "bench_artifact"

#: Every kind the bus will emit; consumers may rely on this being
#: exhaustive for the schema version above.  The observatories' kinds
#: (``signature``, ``efficiency``, ``rank``) are the headline registry's.
RECORD_KINDS = (
    KIND_STATE,
    KIND_PHASES,
    *(section.kind for section in HEADLINE.values()),
    KIND_CHECKPOINT,
    KIND_DISCONTINUITY,
    KIND_JOB,
    KIND_BENCH_ARTIFACT,
)


class RecordError(ValueError):
    """Raised for malformed snapshot records."""


@dataclass(frozen=True)
class SnapshotRecord:
    """One immutable bus record."""

    seq: int
    kind: str
    wall_unix: float
    t: float | None = None
    payload: dict[str, Any] = field(default_factory=dict)

    def as_record(self) -> dict[str, Any]:
        rec: dict[str, Any] = {
            "schema": SNAPSHOT_RECORD_SCHEMA,
            "seq": self.seq,
            "kind": self.kind,
            "wall_unix": self.wall_unix,
        }
        if self.t is not None:
            rec["t"] = self.t
        if self.payload:
            rec["payload"] = self.payload
        return rec

    @classmethod
    def from_record(cls, rec: dict[str, Any]) -> "SnapshotRecord":
        check(rec, {"what": "record", "schema": SNAPSHOT_RECORD_SCHEMA},
              "record", RecordError)
        kind = rec.get("kind")
        if kind not in RECORD_KINDS:
            raise RecordError(f"unknown record kind {kind!r}")
        return cls(
            seq=int(rec["seq"]),
            kind=str(kind),
            wall_unix=float(rec["wall_unix"]),
            t=None if rec.get("t") is None else float(rec["t"]),
            payload=dict(rec.get("payload", {})),
        )


def make_record(
    seq: int, kind: str, t: float | None = None, **payload: Any
) -> SnapshotRecord:
    """Build one record, stamping the wall clock."""
    if kind not in RECORD_KINDS:
        raise RecordError(f"unknown record kind {kind!r}")
    return SnapshotRecord(
        seq=seq, kind=kind, wall_unix=time.time(), t=t, payload=payload
    )
