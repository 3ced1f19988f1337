"""The ``BENCH_*.json`` artifact: schema, validation, read/write.

One artifact is one execution of one suite: an environment
fingerprint, and per benchmark the trial timings with order
statistics, the telemetry phase breakdown (the paper's
T_host/T_pipe/T_comm/T_barrier split of eq. 10), the metrics snapshot
(interactions/step, bytes/message, block sizes), and the
benchmark-defined derived values (speeds in the eq. 9 convention,
model-vs-measured ratios).  The schema is versioned so the regression
gate can refuse artifacts it does not understand instead of
mis-reading them.

Optional root keys thread reproducibility through to the history
store (:mod:`repro.bench.history`): ``seed`` (the ``--seed`` override
applied to every benchmark's workload), ``tag`` (a free-form label
such as ``post-vectorise``) and ``exec_backend`` (the
``--exec-backend`` override applied to every benchmark that dispatches
rank compute).  All are validated when present.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from ..io.runlog import write_json_atomic
from ..parallel.ledger import COMM_LEDGER_SCHEMA
from ..schema import check, list_of, opt
from ..telemetry.efficiency import EFFICIENCY_SPEC
from ..telemetry.ranks import RANK_SECTION_SPEC
from ..telemetry.signatures import SIGNATURE_SUMMARY_SPEC

#: Bump on breaking layout changes; the comparator refuses mismatches.
SCHEMA = "repro.bench/1"

def _unique_names(artifact: dict[str, Any]) -> str | None:
    seen: set[str] = set()
    for entry in artifact["benchmarks"]:
        if entry["name"] in seen:
            return f"duplicate benchmark name {entry['name']!r}"
        seen.add(entry["name"])


#: The artifact layout.  The observatory sections are checked against
#: their own specs in place, so a bad one is an :class:`ArtifactError`
#: naming the benchmark it sits in.
ARTIFACT_SPEC = {
    "what": "artifact root",
    "schema": SCHEMA,
    "fields": {
        "label": None,
        "suite": None,
        "environment": None,
        "seed": opt(int),
        "tag": opt(str),
        "notes": opt(str),
        "exec_backend": opt(str),
        "benchmarks": list_of({"fields": {
            "name": None,
            "paper_ref": None,
            "params": None,
            "trials": {"fields": {"wall_s": None}},
            "stats": {"fields": {"wall_s": None}},
            "phases": {"fields": {"wall_us": None}},
            "comm": opt({
                "schema": COMM_LEDGER_SCHEMA,
                "fields": {"networks": list},
            }),
            "signatures": opt(SIGNATURE_SUMMARY_SPEC),
            "efficiency": opt(EFFICIENCY_SPEC),
            "rank": opt(RANK_SECTION_SPEC),
        }}, nonempty=True),
    },
    "rules": (_unique_names,),
}


class ArtifactError(ValueError):
    """Raised for schema violations and unreadable artifacts."""


def validate_artifact(obj: Any, source: str = "artifact") -> dict[str, Any]:
    """Check ``obj`` against the schema; returns it on success."""
    return check(obj, ARTIFACT_SPEC, source, ArtifactError)


def benchmark_entry(artifact: dict[str, Any], name: str) -> dict[str, Any] | None:
    """The named benchmark's entry, or None."""
    for entry in artifact["benchmarks"]:
        if entry["name"] == name:
            return entry
    return None


def write_artifact(artifact: dict[str, Any], path: str | Path) -> Path:
    """Validate and write one artifact (atomic rename, trailing newline)."""
    validate_artifact(artifact, source=str(path))
    return write_json_atomic(artifact, path)


def read_artifact(path: str | Path) -> dict[str, Any]:
    """Read and validate one artifact; raises :class:`ArtifactError`."""
    path = Path(path)
    try:
        obj = json.loads(path.read_text())
    except OSError as exc:
        raise ArtifactError(f"{path}: cannot read artifact: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ArtifactError(f"{path}: not valid JSON: {exc}") from exc
    return validate_artifact(obj, source=str(path))
