"""The built-in bus consumers: archive and live progress.

Each consumer is self-contained — no consumer imports, references or
depends on another, and all of them are driven purely by the record
stream (the no-cross-coupling rule the bus enforces structurally).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import IO

from .records import (
    KIND_CHECKPOINT,
    KIND_DISCONTINUITY,
    KIND_JOB,
    KIND_STATE,
    SnapshotRecord,
)


class ArchiveWriter:
    """Durable JSONL archive of every record, one line per record.

    Crash-safe like the run logs the paper's figures came from: each
    line is written in one call and flushed, so a killed run keeps
    everything already published.
    """

    def __init__(self, path: str | Path) -> None:
        self.name = "archive"
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fh: IO[str] | None = self.path.open("a")

    def accept(self, record: SnapshotRecord) -> None:
        if self._fh is None:
            raise RuntimeError("archive writer is closed")
        self._fh.write(json.dumps(record.as_record(), sort_keys=True) + "\n")
        self._fh.flush()

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None


def read_archive(path: str | Path) -> list[SnapshotRecord]:
    """Load an archive back; malformed lines and foreign schemas raise."""
    records: list[SnapshotRecord] = []
    with Path(path).open() as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                records.append(SnapshotRecord.from_record(json.loads(line)))
            except (json.JSONDecodeError, ValueError) as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from exc
    return records


class ProgressReporter:
    """Live one-line progress: the terminal face of a running job.

    Renders ``state``/``checkpoint``/``discontinuity``/``job`` records
    as human lines to a stream (stderr by default, or any writable —
    the supervisor points it at ``progress.log`` inside the job
    directory so ``status`` has something recent to show even mid-run).
    """

    def __init__(self, stream: IO[str] | None = None, every: int = 1) -> None:
        self.name = "progress"
        self._stream = stream if stream is not None else sys.stderr
        self._every = max(int(every), 1)
        self._state_seen = 0

    def _line(self, record: SnapshotRecord) -> str | None:
        p = record.payload
        if record.kind == KIND_STATE:
            self._state_seen += 1
            if (self._state_seen - 1) % self._every:
                return None
            return (
                f"t={record.t:.6g} blocksteps={p.get('blocksteps')} "
                f"<n_b>={p.get('mean_block_size', float('nan')):.1f} "
                f"E={p.get('energy', float('nan')):.6g}"
            )
        if record.kind == KIND_CHECKPOINT:
            return f"checkpoint @ t={record.t:.6g} -> {p.get('path')}"
        if record.kind == KIND_DISCONTINUITY:
            return (
                f"RESUME from blockstep {p.get('blockstep')} "
                f"(checkpoint {p.get('path')})"
            )
        if record.kind == KIND_JOB:
            return f"job {p.get('status')}: {p.get('detail', '')}".rstrip(": ")
        return None

    def accept(self, record: SnapshotRecord) -> None:
        line = self._line(record)
        if line is not None:
            self._stream.write(f"[{record.seq}] {line}\n")
            self._stream.flush()

    def close(self) -> None:
        # the reporter does not own its stream
        pass
