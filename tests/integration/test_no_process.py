"""A run job starts no process.

A child process is as large as its parent at the moment it starts, and
``RUSAGE_CHILDREN`` reports that size as the parent's peak memory once
the child is reaped; a ``uname -p`` child taken for the environment
fingerprint was most of ``service_resume``'s reported memory.  Each case
here runs in a fresh interpreter that installs an audit hook before
anything of the package is imported and records every process-creation
event, then walks the whole run-job path: ``import repro.service``,
submit, ``execute()`` stopped by ``max_blocksteps`` (the first
checkpoint takes the fingerprint), and ``execute(resume=True)`` to
``completed``.

Two things start processes by design and are not covered: a
``process:N`` executor forks its workers (:class:`ProcessBackend`; its
case here is the hook's own positive control), and the first import on
a machine runs the compiler to build the tiles (the tiles are built in
this process before any child runs, so a child only loads them).
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro.service  # noqa: F401 - builds the compiled tiles before any child loads them
from repro.provenance import environment_fingerprint

SRC = Path(__file__).resolve().parents[2] / "src"

#: The audit events a new process raises (``subprocess`` and every
#: ``os`` entry point that forks, execs or spawns).
PROCESS_EVENTS = ("subprocess.Popen", "os.fork", "os.forkpty", "os.posix_spawn",
                  "os.exec", "os.spawn", "os.system")

AUDIT = f"""
import json, sys
events = []
def hook(event, args, watched={PROCESS_EVENTS!r}):
    if event in watched:
        events.append([event, repr(args)[:200]])
sys.addaudithook(hook)
"""


def process_events(body: str) -> tuple[list, str]:
    """The process-creation events of a fresh interpreter running
    ``body`` behind the audit hook, and the last line it printed."""
    script = AUDIT + textwrap.dedent(body) + "\nprint(json.dumps(events))\n"
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(SRC)}, check=False, timeout=300)
    assert out.returncode == 0, out.stderr
    *printed, events = out.stdout.splitlines()
    return json.loads(events), printed[-1] if printed else ""


RUN_JOB = """
import json
from pathlib import Path
import repro.service
from repro.service import Supervisor
from repro.service.jobs import JobSpec
doc = {{"schema": "repro.job/1", "kind": "run", "name": "audited",
        "params": {params}, "checkpoint_every": 4, "sample_every": 4,
        "max_blocksteps": 6, "exec_backend": {spec!r}}}
sup = Supervisor.submit(JobSpec.from_dict(doc), Path({jobdir!r}))
first = sup.execute()
spec = json.loads(sup.paths.spec.read_text())
del spec["max_blocksteps"]
sup.paths.spec.write_text(json.dumps(spec))
print(first, sup.execute(resume=True))
"""

BASE = {"model": "plummer", "n": 16, "seed": 4, "t_end": 0.125}
COPY = {**BASE, "algorithm": "copy", "ranks": 2}

#: (run params, execution spec) of each case.
JOBS = {
    "direct": (BASE, "inline"),
    "emulator": ({**BASE, "backend": "grape"}, "inline"),
    "copy-inline": (COPY, "inline"),
    "copy-thread:2": (COPY, "thread:2"),
}


def run_job(tmp_path, params, spec):
    return process_events(RUN_JOB.format(params=params, spec=spec, jobdir=str(tmp_path / "job")))


@pytest.mark.parametrize("case", sorted(JOBS))
def test_a_run_job_starts_no_process(tmp_path, case):
    events, statuses = run_job(tmp_path, *JOBS[case])
    assert statuses == "interrupted completed"
    assert events == []


def test_a_process_executor_forks_by_design(tmp_path):
    """The one exception, and the hook's positive control."""
    events, statuses = run_job(tmp_path, COPY, "process:2")
    assert statuses == "interrupted completed"
    assert {event for event, _ in events} & {"os.fork", "subprocess.Popen", "os.posix_spawn"}


class TestFingerprint:
    def test_the_platform_is_the_stdlibs(self):
        """``platform`` is what ``platform.platform()`` says, computed in
        another process (that one may start ``uname -p``)."""
        stdlib = subprocess.run(
            [sys.executable, "-c", "import json, platform; print(json.dumps("
             "[platform.platform(), platform.processor(), platform.machine()]))"],
            capture_output=True, text=True, check=True, timeout=60)
        expected, processor, machine = json.loads(stdlib.stdout)
        if processor not in ("", machine):
            pytest.skip(f"uname -p prints {processor!r}, which platform.platform() "
                        "includes and the fingerprint does not probe")
        env = environment_fingerprint()
        assert env["platform"] == expected
        assert env["machine"] == machine and env["processor"] is None

    def test_taking_it_starts_no_process(self):
        events, _ = process_events(
            "from repro.provenance import environment_fingerprint\n"
            "environment_fingerprint()\n")
        assert events == []
