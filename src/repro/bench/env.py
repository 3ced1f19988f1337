"""Environment fingerprint for benchmark artifacts.

The paper's numbers are meaningless without the machine they were
measured on (section 5 quotes host CPU, NIC model and library versions
next to every Tflops figure; the fig. 19 tuning story *is* a change of
environment).  Every ``BENCH_*.json`` therefore records enough of the
substrate to tell "the code got slower" apart from "the machine
changed": interpreter, platform, numpy, CPU count, which tier of the
pairwise, pipeline and Hermite tiles served (compiled or numpy: same
bits, different speed; one field, ``"c"`` only when every tile compiled)
and the git revision the artifact was produced from.
"""

from __future__ import annotations

import os
import platform
import sys
from pathlib import Path
from typing import Any

from ..core import hermite_tile
from ..forces import kernels
from ..hardware import pipeline
from ..parallel import network_tile


def _git_revision(start: Path) -> str | None:
    """Resolve HEAD by reading .git directly (no subprocess: the bench
    CLI must run in minimal CI containers without git installed)."""
    for directory in (start, *start.parents):
        git = directory / ".git"
        if not git.is_dir():
            continue
        try:
            head = (git / "HEAD").read_text().strip()
            if head.startswith("ref: "):
                ref = git / head[5:]
                if ref.is_file():
                    return ref.read_text().strip()
                packed = git / "packed-refs"
                if packed.is_file():
                    for line in packed.read_text().splitlines():
                        if line.endswith(head[5:]) and not line.startswith("#"):
                            return line.split()[0]
                return None
            return head or None
        except OSError:
            return None
    return None


def environment_fingerprint() -> dict[str, Any]:
    """JSON-ready description of the measuring machine."""
    try:
        import numpy

        numpy_version = numpy.__version__
    except Exception:  # pragma: no cover - numpy is a hard dependency
        numpy_version = None
    return {
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "processor": platform.processor() or None,
        "cpu_count": os.cpu_count(),
        "numpy": numpy_version,
        "kernel_tier": (
            "c"
            if kernels.KERNEL_TIER == pipeline.PIPELINE_TIER == hermite_tile.HERMITE_TIER
            == network_tile.NETWORK_TIER == "c"
            else "numpy"
        ),
        "git_revision": _git_revision(Path(__file__).resolve()),
    }
