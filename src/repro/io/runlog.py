"""Structured run logging: one JSON line per sample.

Production GRAPE runs log blockstep-level diagnostics for post-hoc
performance analysis — exactly the data figs. 14/16/18 were drawn from.
:class:`RunLogger` appends JSON records (time, blockstep counters,
energies) to a file that :func:`read_runlog` loads back as columns.

The logger is crash-safe by default: every record is flushed to the OS
after it is written, so a killed run keeps its samples.  The paper's
production runs survived host crashes precisely because diagnostics
hit disk continuously; pass ``flush=False`` to trade that guarantee
for buffered writes on very chatty logs.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import IO, Any

import numpy as np


class RunLogger:
    """Append-only JSONL logger for integration runs.

    Use as a context manager::

        with RunLogger(path, run="plummer-1k") as log:
            ...
            log.sample(t=integ.t, blocksteps=integ.stats.blocksteps, E=e)

    or open/close explicitly (for long-lived owners such as the
    telemetry JSONL sink)::

        log = RunLogger(path, run="...").open()
        ...
        log.close()

    Parameters
    ----------
    path:
        Target JSONL file (appended to, never truncated).
    flush:
        Flush after every record (default) so a killed process loses
        nothing already logged.
    header:
        Arbitrary metadata written as a ``kind="header"`` record when
        the file is opened.
    """

    def __init__(self, path: str | Path, flush: bool = True, **header: Any) -> None:
        self.path = Path(path)
        self.flush = bool(flush)
        self._fh: IO[str] | None = None
        self._header = header

    def open(self) -> "RunLogger":
        """Open the file and write the header record (idempotent)."""
        if self._fh is None:
            self._fh = self.path.open("a")
            if self._header:
                self._write({"kind": "header", **self._header})
        return self

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "RunLogger":
        return self.open()

    def __exit__(self, *exc) -> None:
        self.close()

    def _write(self, record: dict) -> None:
        if self._fh is None:
            raise RuntimeError("logger used outside its context")
        self._fh.write(json.dumps(record, default=_coerce) + "\n")
        if self.flush:
            self._fh.flush()

    def record(self, kind: str, **fields: Any) -> None:
        """Write one record of an arbitrary kind."""
        self._write({"kind": kind, **fields})

    def sample(self, **fields: Any) -> None:
        """Record one sample (arbitrary JSON-serialisable fields)."""
        self._write({"kind": "sample", **fields})


def _coerce(obj: Any):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, np.generic):
        # covers np.bool_, np.integer, np.floating, ... — .item() yields
        # the equivalent builtin scalar, which json can serialise
        return obj.item()
    raise TypeError(f"not JSON-serialisable: {type(obj)!r}")


def write_json_atomic(doc: Any, path: str | Path) -> Path:
    """Write one whole JSON document (artifact, calibration, job spec
    and state): stable key order, trailing newline, written beside
    ``path`` and renamed over it so a reader never sees a torn file.

    A non-finite number is refused here (``ValueError`` naming the
    document): ``Infinity`` / ``NaN`` are not RFC 8259 JSON, and what
    strict readers — ``jq``, Prometheus, a browser — cannot parse must
    not reach the disk.  A producer that trips this reports 0.0 or omits
    the key, as the observatories' summaries do."""
    path = Path(path)
    try:
        text = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(text + "\n")
    tmp.replace(path)
    return path


def read_runlog(path: str | Path) -> tuple[dict, dict[str, list]]:
    """Load a run log; returns (header, columns-of-samples)."""
    header, columns, _ = read_runlog_records(path)
    return header, columns


def read_runlog_records(
    path: str | Path,
) -> tuple[dict, dict[str, list], dict[str, list[dict]]]:
    """Load a run log keeping non-sample records.

    Returns ``(header, columns, records_by_kind)`` where ``columns``
    collects every non-header record's fields column-wise (the
    historical :func:`read_runlog` view) and ``records_by_kind`` maps
    every non-header kind (``"sample"``, ``"span"``, ``"metrics"``,
    ...) to its list of raw records.
    """
    header: dict = {}
    columns: dict[str, list] = {}
    by_kind: dict[str, list[dict]] = {}
    with Path(path).open() as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            kind = record.pop("kind", "sample")
            if kind == "header":
                header.update(record)
                continue
            by_kind.setdefault(kind, []).append(record)
            for key, value in record.items():
                columns.setdefault(key, []).append(value)
    return header, columns, by_kind
