"""Environment fingerprint: the machine and revision behind a number.

The paper's numbers are meaningless without the machine they were
measured on (section 5 quotes host CPU, NIC model and library versions
next to every Tflops figure; the fig. 19 tuning story *is* a change of
environment).  Every ``BENCH_*.json`` therefore records enough of the
substrate to tell "the code got slower" apart from "the machine
changed": interpreter, platform, numpy, CPU count, which tier the
compiled tiles ran on (compiled or numpy: same bits, different speed;
one field, ``"c"`` only when every tile of ``forces.compiled.TIERS``
compiled) and the git revision the artifact was produced from.  Checkpoint
headers carry the same fingerprint (:mod:`repro.io.checkpoint`), so a
resume across machines or commits is visible; it lives outside
:mod:`repro.bench` so that a checkpoint does not import the harness.

Taking the fingerprint starts no process.  The stdlib's
``platform.platform()`` and ``platform.processor()`` run ``uname -p`` in
a child on Linux, a child as large as the parent that
``RUSAGE_CHILDREN`` then reports as this process's peak memory; so the
platform string is composed here from ``os.uname()`` and
``platform.libc_ver()``, and the processor is not probed.
"""

from __future__ import annotations

import os
import platform
import sys
from pathlib import Path
from typing import Any

from .forces import compiled


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


#: What ``platform.platform()`` writes in place of each character that
#: does not belong in a file name.
_FILENAME_SAFE = str.maketrans({" ": "_", **dict.fromkeys('/\\:;"()', "-")})


def _platform_string() -> str:
    """``platform.platform()``, composed without its ``uname -p`` child.

    On Linux the stdlib joins system, release, machine, processor,
    ``with`` and the libc name + version with ``-``; it drops the
    processor when it is blank (upstream coreutils prints ``unknown``)
    or equals the machine (distributions that patch ``uname -p`` to
    print it).  This is that string for both, read from ``os.uname()``
    and ``platform.libc_ver()``.  Other systems get the stdlib's.
    """
    if sys.platform != "linux":
        return platform.platform()
    system, _, release, _, machine = (
        "" if field == "unknown" else field for field in os.uname())
    words = (system, release, machine, "with", "".join(platform.libc_ver()))
    text = "-".join(word.strip() for word in words if word)
    text = text.translate(_FILENAME_SAFE).replace("unknown", "")
    while "--" in text:
        text = text.replace("--", "-")
    return text.rstrip("-")


def environment_fingerprint() -> dict[str, Any]:
    """JSON-ready description of the measuring machine.

    ``machine`` carries the architecture.  ``processor`` keeps its key
    but reads ``None``: the stdlib can only read it from a ``uname -p``
    child, which prints ``unknown`` or the machine on the systems
    :func:`_platform_string` composes for.
    """
    try:
        import numpy

        numpy_version = numpy.__version__
    except Exception:  # pragma: no cover - numpy is a hard dependency
        numpy_version = None
    return {
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "platform": _platform_string(),
        "machine": platform.machine(),
        "processor": None,
        "cpu_count": os.cpu_count(),
        "numpy": numpy_version,
        "kernel_tier": (
            "c" if all(compiled.TIERS[name][0] == "c" for name in compiled.SOURCES) else "numpy"
        ),
        "git_revision": _git_revision(Path(__file__).resolve()),
    }
