"""The supervisor's durable checkpoint write, and resume past damage.

At each boundary the stepping thread encodes the checkpoint, writes,
fsyncs and renames the file, then rewrites ``state.json`` and only then
publishes the ``checkpoint`` record.  Pinned here:
- a ``checkpoint`` record is published only once its file is on disk,
  and ``state.json`` never names a checkpoint that is not;
- the record comes at its own boundary, after that boundary's
  ``phases`` and headline records;
- an error inside the durable write (ENOSPC) fails the job with that
  error, and a resume still lands on the uninterrupted run's bits;
- on every way out of ``execute`` the job started no thread, and a
  resume leaves no ``*.tmp``;
- across a kill and a resume the archive is numbered 0 ... n-1, and
  the closing lines of ``progress.log`` count no consumer error;
- a resume walks past checkpoints it cannot read, says how many, and
  still lands on the reference bits.
"""

import ast
import errno
import json
import multiprocessing
import os
import signal
import threading
import zipfile
from pathlib import Path

import pytest

from repro.core.individual import BlockTimestepIntegrator
from repro.io.checkpoint import read_checkpoint
from repro.io.snapshot import read_snapshot
from repro.parallel import WorkerLost
from repro.service import supervisor as supervisor_mod
from repro.service.bus import SnapshotBus
from repro.service.consumers import read_archive
from repro.service.jobs import JobError, JobSpec
from repro.service.supervisor import Supervisor

PARAMS = {"model": "plummer", "n": 32, "seed": 9, "t_end": 0.25,
          "eta": 0.02, "backend": "direct"}
PARALLEL = {"model": "plummer", "n": 24, "seed": 17, "t_end": 0.125,
            "eta": 0.02, "backend": "direct", "algorithm": "copy", "ranks": 4}


def submit(root: Path, name: str, params=PARAMS, **spec) -> Supervisor:
    doc = {"schema": "repro.job/1", "kind": "run", "name": name,
           "params": dict(params), "checkpoint_every": 8, "sample_every": 4,
           **spec}
    return Supervisor.submit(JobSpec.from_dict(doc), root / name)


def lift_budget(sup: Supervisor) -> None:
    doc = json.loads(sup.paths.spec.read_text())
    doc.pop("max_blocksteps", None)
    sup.paths.spec.write_text(json.dumps(doc))


def final_bits(sup: Supervisor) -> bytes:
    system, _ = read_snapshot(sup.paths.final_snapshot)
    return b"".join(getattr(system, k).tobytes() for k in ("pos", "vel", "t", "dt"))


def threads_since(before: set[threading.Thread]) -> list[threading.Thread]:
    """Threads alive now that were not in ``before``."""
    return [t for t in threading.enumerate() if t not in before]


def archive(sup: Supervisor) -> list:
    return read_archive(sup.paths.archive)


@pytest.fixture(scope="module")
def reference(tmp_path_factory):
    """The uninterrupted serial run's final bits."""
    sup = submit(tmp_path_factory.mktemp("ref"), "ref")
    assert sup.execute() == "completed"
    return final_bits(sup)


@pytest.fixture(scope="module")
def parallel_reference(tmp_path_factory):
    sup = submit(tmp_path_factory.mktemp("pref"), "pref", params=PARALLEL)
    assert sup.execute() == "completed"
    return final_bits(sup)


class Watcher:
    """A bus consumer that, on every record, checks what the durability
    contract promises a reader at that moment and which threads are
    alive that were not when it was made; optionally runs
    ``act(record)`` too."""

    name = "watcher"

    def __init__(self, paths, act=None):
        self.paths, self.act = paths, act
        self.before = set(threading.enumerate())
        self.seen = 0
        self.new_threads: list[threading.Thread] = []
        self.readable: list[bool] = []
        self.state_names_a_file: list[bool] = []

    def accept(self, record):
        self.seen += 1
        self.new_threads += threads_since(self.before)
        if record.kind == "checkpoint":
            path = Path(record.payload["path"])
            ck = read_checkpoint(path)
            self.readable.append(ck.blocksteps == record.payload["blockstep"])
        state = json.loads(self.paths.state.read_text())
        if "last_checkpoint" in state:
            self.state_names_a_file.append(
                Path(state["last_checkpoint"]).is_file())
        if self.act is not None:
            self.act(record)

    def close(self):
        pass


def watch(monkeypatch, sup: Supervisor, act=None) -> Watcher:
    """Add a :class:`Watcher` to the bus ``sup.execute`` builds."""
    watcher = Watcher(sup.paths, act)
    monkeypatch.setattr(
        supervisor_mod, "SnapshotBus",
        lambda consumers: SnapshotBus([*consumers, watcher]))
    return watcher


class TestDurability:
    def test_a_checkpoint_record_names_a_durable_file(
            self, tmp_path, monkeypatch, reference):
        sup = submit(tmp_path, "watched")
        watcher = watch(monkeypatch, sup)
        assert sup.execute() == "completed"
        records = archive(sup)
        checkpoints = [r for r in records if r.kind == "checkpoint"]
        assert len(watcher.readable) == len(checkpoints) >= 3
        assert all(watcher.readable)
        assert watcher.state_names_a_file and all(watcher.state_names_a_file)
        assert final_bits(sup) == reference

    def test_each_checkpoint_record_is_published_at_its_own_boundary(
            self, tmp_path):
        """Its boundary's ``phases`` and headline records come first, at
        the same ``t``, and nothing else between them; the last one
        comes right before the job's terminal record."""
        sup = submit(tmp_path, "order")
        assert sup.execute() == "completed"
        records = archive(sup)
        at = {kind: [i for i, r in enumerate(records) if r.kind == kind]
              for kind in ("phases", "checkpoint")}
        assert len(at["checkpoint"]) == len(at["phases"]) >= 3
        for own, i in zip(at["phases"], at["checkpoint"]):
            between = records[own + 1:i]
            assert {r.kind for r in between} == {"signature", "efficiency"}
            assert {r.t for r in records[own:i + 1]} == {records[i].t}
        assert [r.kind for r in records[-2:]] == ["checkpoint", "job"]


class TestWriterFaults:
    def test_enospc_fails_the_job_and_a_resume_lands_on_the_reference(
            self, tmp_path, monkeypatch, reference):
        sup = submit(tmp_path, "full")
        fsync, calls = os.fsync, []

        def full_disk(fd):
            calls.append(fd)
            if len(calls) == 3:
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            fsync(fd)

        monkeypatch.setattr(os, "fsync", full_disk)
        watcher = watch(monkeypatch, sup)
        with pytest.raises(OSError) as raised:
            sup.execute()
        monkeypatch.undo()
        assert raised.value.errno == errno.ENOSPC
        assert watcher.seen and not watcher.new_threads
        state = json.loads(sup.paths.state.read_text())
        assert state["status"] == "failed"
        assert state["error"] == f"OSError: {raised.value}"
        (failed,) = [r for r in archive(sup)
                     if r.kind == "job" and r.payload["status"] == "failed"]
        assert "No space left" in failed.payload["detail"]
        # two checkpoints landed and were published; the third did not
        assert sum(r.kind == "checkpoint" for r in archive(sup)) == 2

        assert sup.execute(resume=True) == "completed"
        (seam,) = [r for r in archive(sup) if r.kind == "discontinuity"]
        assert seam.payload["torn_writes_removed"] == 1
        assert seam.payload["blockstep"] == 16
        assert not list(sup.paths.root.rglob("*.tmp"))
        assert final_bits(sup) == reference


def _interrupt_with_sigterm(monkeypatch):
    if threading.current_thread() is not threading.main_thread():
        pytest.skip("signal handlers need the main thread")
    fired = []

    def act(record):
        if record.kind == "state" and record.payload["blocksteps"] >= 20 \
                and not fired:
            fired.append(True)
            os.kill(os.getpid(), signal.SIGTERM)

    return "interrupted", act


def _fail_in_a_step(monkeypatch):
    step, calls = BlockTimestepIntegrator.step, []

    def failing(self):
        calls.append(None)
        if len(calls) == 21:
            raise RuntimeError("injected step failure")
        return step(self)

    monkeypatch.setattr(BlockTimestepIntegrator, "step", failing)
    return RuntimeError, None


def _lose_a_worker(monkeypatch):
    def act(record):
        if record.kind == "checkpoint" and record.payload["blockstep"] == 16:
            victim = multiprocessing.active_children()[0]
            os.kill(victim.pid, signal.SIGKILL)
            victim.join(2.0)

    return WorkerLost, act


EXITS = {
    "completed": (PARAMS, {}, lambda monkeypatch: ("completed", None)),
    "blockstep_budget": (PARAMS, {"max_blocksteps": 20},
                         lambda monkeypatch: ("interrupted", None)),
    "sigterm": (PARAMS, {}, _interrupt_with_sigterm),
    "failed": (PARAMS, {}, _fail_in_a_step),
    "worker_lost": (PARALLEL, {"exec_backend": "process:2"}, _lose_a_worker),
}


@pytest.mark.parametrize("exit_path", list(EXITS))
def test_no_writer_outlives_execute_and_a_resume_leaves_no_tmp(
        tmp_path, monkeypatch, exit_path, request):
    """``execute`` starts no thread: every record, up to the last, finds
    only the threads that were alive before it began."""
    params, spec, arrange = EXITS[exit_path]
    sup = submit(tmp_path, exit_path, params=params, **spec)
    expected, act = arrange(monkeypatch)
    watcher = watch(monkeypatch, sup, act)
    if isinstance(expected, str):
        assert sup.execute() == expected
    else:
        with pytest.raises(expected):
            sup.execute()
    monkeypatch.undo()
    assert watcher.seen and not watcher.new_threads
    if exit_path == "worker_lost":
        assert not multiprocessing.active_children()

    lift_budget(sup)
    watcher = watch(monkeypatch, sup)
    assert sup.execute(resume=True) == "completed"
    monkeypatch.undo()
    assert watcher.seen and not watcher.new_threads
    assert not list(sup.paths.root.rglob("*.tmp"))
    reference = request.getfixturevalue(
        "parallel_reference" if params is PARALLEL else "reference")
    assert final_bits(sup) == reference


class TestResumePastDamage:
    def interrupted(self, tmp_path) -> Supervisor:
        sup = submit(tmp_path, "damaged", max_blocksteps=33)
        assert sup.execute() == "interrupted"
        lift_budget(sup)
        return sup

    def test_skips_unreadable_checkpoints_and_lands_on_the_reference(
            self, tmp_path, reference):
        sup = self.interrupted(tmp_path)
        files = sup.paths.checkpoint_files()
        assert len(files) >= 4
        newest, second, readable = files[-1], files[-2], files[-3]
        data = bytearray(newest.read_bytes())
        with zipfile.ZipFile(newest) as archive_:
            info = archive_.getinfo("vel.npy")
        data[info.header_offset + 30 + len(info.filename) + 20 + 300] ^= 0x01
        newest.write_bytes(bytes(data))
        second.write_bytes(second.read_bytes()[:700])

        assert sup.execute(resume=True) == "completed"
        (seam,) = [r for r in archive(sup) if r.kind == "discontinuity"]
        assert seam.payload["unreadable_checkpoints_skipped"] == 2
        assert seam.payload["path"] == str(readable)
        assert "torn_writes_removed" not in seam.payload
        assert final_bits(sup) == reference

    def test_a_readable_newest_is_not_mentioned(self, tmp_path):
        sup = self.interrupted(tmp_path)
        assert sup.execute(resume=True) == "completed"
        (seam,) = [r for r in archive(sup) if r.kind == "discontinuity"]
        assert "unreadable_checkpoints_skipped" not in seam.payload

    def test_no_readable_checkpoint_is_a_job_error(self, tmp_path):
        sup = self.interrupted(tmp_path)
        for path in sup.paths.checkpoint_files():
            path.write_bytes(b"")
        before = set(threading.enumerate())
        with pytest.raises(JobError, match="unreadable"):
            sup.execute(resume=True)
        assert not threads_since(before)


def test_the_archive_is_numbered_across_a_kill_and_a_resume(
        tmp_path, reference):
    """One stream, 0 ... n-1, across the seam; each segment's closing
    progress line counts every record delivered and no error."""
    sup = submit(tmp_path, "numbered", max_blocksteps=20)
    assert sup.execute() == "interrupted"
    first = len(archive(sup))
    lift_budget(sup)
    assert sup.execute(resume=True) == "completed"
    records = archive(sup)
    assert [r.seq for r in records] == list(range(len(records)))
    assert records[first].kind == "discontinuity"
    closing = [ast.literal_eval(line.removeprefix("consumers: "))
               for line in sup.paths.progress.read_text().splitlines()
               if line.startswith("consumers: ")]
    assert [c["archive"]["delivered"] for c in closing] == [
        first, len(records) - first]
    for counts in closing:
        assert all(c["errors"] == 0 for c in counts.values())
    assert final_bits(sup) == reference
