"""Whole JSON documents written atomically.

Artifacts, calibrations, job specs and job states are each one JSON
document that is rewritten whole; :func:`write_json_atomic` is the one
way they reach the disk.  Record streams have their own writers: the
snapshot bus's archive (:class:`repro.service.ArchiveWriter`) and the
trace timeline (:func:`repro.telemetry.write_timeline`).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any


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
