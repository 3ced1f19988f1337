"""Simulation service end-to-end (``python -m repro.service``).

The acceptance path from the ISSUE: submit a run job, kill it
mid-flight (budget in-process, SIGTERM out-of-process), resume from
the newest checkpoint, and land on a final snapshot **bit-identical**
to an uninterrupted reference — with an explicit ``discontinuity``
record carrying both provenance fingerprints at the resume point.
Also pins the CLI surface: exit codes, status/tail/validate, the
retired sweep and calibrate kinds refused before a job directory
exists, and the layering: a checkpointed run job loads no
``repro.bench`` module.
"""

import argparse
import json
import os
import re
import shlex
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.io.snapshot import read_snapshot
from repro.service.cli import main
from repro.service.consumers import read_archive

SRC = Path(__file__).resolve().parents[2] / "src"

RUN_PARAMS = {
    "model": "plummer", "n": 32, "seed": 9, "t_end": 0.25,
    "eta": 0.02, "backend": "direct",
}


def write_spec(path, **overrides):
    doc = {
        "schema": "repro.job/1", "kind": "run", "name": "itest",
        "params": dict(RUN_PARAMS), "checkpoint_every": 16,
        "sample_every": 8,
    }
    doc.update(overrides)
    path.write_text(json.dumps(doc))
    return path


def assert_final_identical(jobdir_a, jobdir_b):
    sys_a, _ = read_snapshot(Path(jobdir_a) / "final.npz")
    sys_b, _ = read_snapshot(Path(jobdir_b) / "final.npz")
    for name in ("pos", "vel", "t", "dt"):
        np.testing.assert_array_equal(
            getattr(sys_a, name), getattr(sys_b, name), err_msg=name
        )


@pytest.fixture(scope="module")
def reference_job(tmp_path_factory):
    """One uninterrupted run all interruption tests compare against."""
    root = tmp_path_factory.mktemp("reference")
    spec = write_spec(root / "job.json", name="reference")
    code = main(["submit", str(spec), "--dir", str(root / "jobs")])
    assert code == 0
    return root / "jobs" / "reference"


class TestRunLifecycle:
    def test_completed_run(self, reference_job):
        assert (reference_job / "final.npz").exists()
        state = json.loads((reference_job / "state.json").read_text())
        assert state["status"] == "completed"
        records = read_archive(reference_job / "bus.jsonl")
        kinds = {r.kind for r in records}
        assert {"job", "state", "checkpoint", "phases"} <= kinds
        assert not any(r.kind == "discontinuity" for r in records)
        seqs = [r.seq for r in records]
        assert seqs == sorted(seqs)

    def test_status_and_tail(self, reference_job, capsys):
        assert main(["status", str(reference_job), "--format", "json"]) == 0
        (status,) = json.loads(capsys.readouterr().out)
        assert status["status"] == "completed"
        assert status["archive_records"] > 0 and status["checkpoints"]

        assert main(["tail", str(reference_job), "-n", "5",
                     "--kind", "checkpoint"]) == 0
        out = capsys.readouterr().out
        assert "checkpoint" in out

    def test_validate(self, tmp_path, capsys):
        spec = write_spec(tmp_path / "ok.json")
        assert main(["validate", str(spec)]) == 0
        capsys.readouterr()
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"schema": "repro.job/1", "kind": "run",
                                   "name": "x", "params": {}}))
        assert main(["validate", str(bad)]) == 2

    def test_duplicate_submit_rejected(self, reference_job, tmp_path):
        spec = write_spec(tmp_path / "job.json", name="reference")
        code = main(["submit", str(spec),
                     "--dir", str(reference_job.parent)])
        assert code == 2


class TestBudgetInterruptResume:
    def test_bit_identical_after_resume(self, reference_job, tmp_path):
        """Blockstep budget -> exit 3; lift budget, resume -> exit 0;
        final snapshot identical to the uninterrupted reference."""
        spec = write_spec(tmp_path / "job.json", name="budget",
                          max_blocksteps=16)
        jobs = tmp_path / "jobs"
        assert main(["submit", str(spec), "--dir", str(jobs)]) == 3
        jobdir = jobs / "budget"
        state = json.loads((jobdir / "state.json").read_text())
        assert state["status"] == "interrupted"
        assert "budget" in state["reason"]

        # lift the budget on the persisted spec, then resume
        doc = json.loads((jobdir / "job.json").read_text())
        del doc["max_blocksteps"]
        (jobdir / "job.json").write_text(json.dumps(doc))
        assert main(["resume", str(jobdir)]) == 0

        assert_final_identical(jobdir, reference_job)
        records = read_archive(jobdir / "bus.jsonl")
        disc = [r for r in records if r.kind == "discontinuity"]
        assert len(disc) == 1
        payload = disc[0].payload
        assert payload["blockstep"] == 16
        assert "environment" in payload["checkpoint_provenance"]
        assert "environment" in payload["resume_provenance"]
        assert "torn_writes_removed" not in payload  # none: not mentioned

    def test_a_kill_inside_a_write_leaves_no_litter(
            self, reference_job, tmp_path):
        """SIGKILL between an atomic write's temp file and its rename
        leaves the temp file for ever: resume removes them, says how
        many, and continues from the newest *whole* checkpoint."""
        spec = write_spec(tmp_path / "job.json", name="torn",
                          max_blocksteps=24)
        jobs = tmp_path / "jobs"
        assert main(["submit", str(spec), "--dir", str(jobs)]) == 3
        jobdir = jobs / "torn"
        whole = sorted((jobdir / "checkpoints").glob("ckpt_*.npz"))
        # a checkpoint torn mid-write, newer than every real one, and
        # a state.json the kill caught before its rename
        torn = jobdir / "checkpoints" / "ckpt_0000000032.npz.tmp"
        torn.write_bytes(whole[-1].read_bytes()[:1000])
        (jobdir / "state.json.tmp").write_text('{"status": "runn')

        doc = json.loads((jobdir / "job.json").read_text())
        del doc["max_blocksteps"]
        (jobdir / "job.json").write_text(json.dumps(doc))
        assert main(["resume", str(jobdir)]) == 0

        assert_final_identical(jobdir, reference_job)
        assert not list(jobdir.rglob("*.tmp"))
        (seam,) = [r for r in read_archive(jobdir / "bus.jsonl")
                   if r.kind == "discontinuity"]
        assert seam.payload["torn_writes_removed"] == 2
        assert seam.payload["blockstep"] == 24
        assert seam.payload["path"] == str(whole[-1])

    def test_resume_completed_is_noop(self, reference_job):
        assert main(["resume", str(reference_job)]) == 0


class TestSigtermResume:
    def test_kill_mid_flight(self, tmp_path):
        """A real SIGTERM to a real process: checkpoint-and-exit 3,
        then an in-process resume reaches the identical final state."""
        # a run long enough (~1 s) that the signal lands mid-flight
        params = {**RUN_PARAMS, "n": 64, "seed": 13, "t_end": 1.0}
        ref_spec = write_spec(tmp_path / "ref.json", name="sigref",
                              params=params)
        assert main(["submit", str(ref_spec),
                     "--dir", str(tmp_path / "ref_jobs")]) == 0
        reference_job = tmp_path / "ref_jobs" / "sigref"

        spec = write_spec(tmp_path / "job.json", name="victim",
                          params=params, checkpoint_every=8)
        jobs = tmp_path / "jobs"
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.service", "submit", str(spec),
             "--dir", str(jobs)],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        # wait for the first checkpoint so the kill lands mid-flight
        ckdir = jobs / "victim" / "checkpoints"
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline:
            if ckdir.is_dir() and any(ckdir.glob("ckpt_*.npz")):
                break
            if proc.poll() is not None:
                break
            time.sleep(0.02)
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
        out, err = proc.communicate(timeout=60)
        jobdir = jobs / "victim"
        state = json.loads((jobdir / "state.json").read_text())
        if proc.returncode == 0:
            # tiny machines can finish before the signal lands; the
            # run is then just another completed reference
            assert state["status"] == "completed"
        else:
            assert proc.returncode == 3, err.decode()
            assert state["status"] == "interrupted"
            assert main(["resume", str(jobdir)]) == 0
            records = read_archive(jobdir / "bus.jsonl")
            assert sum(r.kind == "discontinuity" for r in records) == 1
        assert_final_identical(jobdir, reference_job)


class TestRetiredKinds:
    COMMANDS = {"sweep": "python -m repro.bench run",
                "calibrate": "python -m repro.bench run"}

    @pytest.mark.parametrize("kind", COMMANDS)
    def test_refused_before_a_job_directory_exists(self, tmp_path, capsys, kind):
        """A sweep or calibrate spec is not a job: ``validate`` and
        ``submit`` refuse it (exit 2) naming the bench command that runs
        sweeps."""
        command = self.COMMANDS[kind]
        spec = write_spec(tmp_path / "job.json", kind=kind)
        jobs = tmp_path / "jobs"
        for argv in (["validate", str(spec)],
                     ["submit", str(spec), "--dir", str(jobs)]):
            assert main(argv) == 2
            assert command in capsys.readouterr().err
        assert not jobs.exists()

    @pytest.mark.parametrize("kind", COMMANDS)
    def test_every_bench_command_it_names_exists(self, tmp_path, capsys, kind):
        """The refusal sends the user to the bench CLI: every ``python -m
        repro.bench ...`` in it is a subcommand that CLI has, and its
        whole command line parses."""
        from repro.bench.cli import build_parser

        assert main(["validate", str(write_spec(tmp_path / "job.json",
                                                kind=kind))]) == 2
        named = re.findall(r"`python -m repro\.bench ([^`]+)`",
                           capsys.readouterr().err)
        (commands,) = (action.choices for action in build_parser()._actions
                       if isinstance(action, argparse._SubParsersAction))
        assert named and {line.split()[0] for line in named} <= set(commands)
        for line in named:
            build_parser().parse_args(shlex.split(line))


class TestLayering:
    def test_a_checkpointed_run_loads_no_bench_module(self, tmp_path):
        """The service is not the harness: in a fresh interpreter, a run
        job through two or more checkpoints (whose headers carry the
        environment fingerprint) imports no ``repro.bench`` module."""
        script = f"""
import sys
from pathlib import Path
import repro.service as service
from repro.io import read_checkpoint
spec = service.JobSpec.from_dict({{
    "schema": "repro.job/1", "kind": "run", "name": "layers",
    "params": {{"n": 16, "seed": 2, "t_end": 0.0625}},
    "checkpoint_every": 4, "sample_every": 4}})
sup = service.Supervisor.submit(spec, Path({str(tmp_path / "job")!r}))
assert sup.execute() == "completed"
files = sup.paths.checkpoint_files()
assert len(files) >= 2, files
assert read_checkpoint(files[0]).provenance["environment"]["python"]
print(sorted(m for m in sys.modules if m.split(".")[:2] == ["repro", "bench"]))
"""
        out = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=120,
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "[]"


class TestPhaseObservatory:
    """The run job streams regime signatures through the bus."""

    def test_signature_records_on_bus(self, reference_job):
        records = [r for r in read_archive(reference_job / "bus.jsonl")
                   if r.kind == "signature"]
        assert records, "run emitted no signature records"
        from repro.telemetry import validate_signature_summary
        for rec in records:
            payload = rec.payload
            assert payload["blocksteps"] > 0
            assert payload["n_regimes"] >= 1
            assert 0.0 < payload["dominant_share"] <= 1.0
            assert isinstance(payload["lane"], str) and payload["lane"]
            validate_signature_summary(payload["summary"])
        # monotone: later snapshots have seen at least as many blocksteps
        counts = [r.payload["blocksteps"] for r in records]
        assert counts == sorted(counts)

    def test_state_carries_regime(self, reference_job):
        state = json.loads((reference_job / "state.json").read_text())
        assert state["n_regimes"] >= 1
        assert "regime" in state and "regime_lane" in state
        assert 0.0 < state["dominant_share"] <= 1.0

    def test_status_line_shows_regime(self, reference_job, capsys):
        assert main(["status", str(reference_job)]) == 0
        line = capsys.readouterr().out
        assert "regime=" in line
        assert "dominant" in line

    def test_tail_signature_records(self, reference_job, capsys):
        assert main(["tail", str(reference_job), "-n", "3",
                     "--kind", "signature"]) == 0
        out = capsys.readouterr().out
        assert "signature" in out
        assert "dominant_share=" in out


PARALLEL_PARAMS = {
    "model": "plummer", "n": 24, "seed": 17, "t_end": 0.125,
    "eta": 0.02, "backend": "direct", "algorithm": "copy", "ranks": 3,
}


def write_parallel_spec(path, **overrides):
    doc = {
        "schema": "repro.job/1", "kind": "run", "name": "ptest",
        "params": dict(PARALLEL_PARAMS), "checkpoint_every": 8,
        "sample_every": 8,
    }
    doc.update(overrides)
    path.write_text(json.dumps(doc))
    return path


class TestParallelRunJob:
    """Run jobs driving a simulated-cluster algorithm, placed on an
    execution backend chosen in the spec — and re-placed on resume."""

    @pytest.fixture(scope="class")
    def parallel_reference(self, tmp_path_factory):
        """Uninterrupted parallel run on the inline backend."""
        root = tmp_path_factory.mktemp("pref")
        spec = write_parallel_spec(root / "job.json", name="pref")
        assert main(["submit", str(spec), "--dir", str(root / "jobs")]) == 0
        return root / "jobs" / "pref"

    def test_completed_parallel_run(self, parallel_reference):
        assert (parallel_reference / "final.npz").exists()
        state = json.loads((parallel_reference / "state.json").read_text())
        assert state["status"] == "completed"

    def test_exec_backend_placement_is_invisible(
        self, parallel_reference, tmp_path
    ):
        """The same job on real worker processes lands on a bitwise
        identical final snapshot."""
        spec = write_parallel_spec(tmp_path / "job.json", name="procs",
                                   exec_backend="process:2")
        jobs = tmp_path / "jobs"
        assert main(["submit", str(spec), "--dir", str(jobs)]) == 0
        assert_final_identical(jobs / "procs", parallel_reference)

    def test_resume_may_switch_backend(self, parallel_reference, tmp_path):
        """Kill on the process backend, resume on threads: placement is
        per-segment and never shows up in the result."""
        spec = write_parallel_spec(tmp_path / "job.json", name="pswitch",
                                   exec_backend="process:2",
                                   max_blocksteps=8)
        jobs = tmp_path / "jobs"
        assert main(["submit", str(spec), "--dir", str(jobs)]) == 3
        jobdir = jobs / "pswitch"
        state = json.loads((jobdir / "state.json").read_text())
        assert state["status"] == "interrupted"

        doc = json.loads((jobdir / "job.json").read_text())
        del doc["max_blocksteps"]
        doc["exec_backend"] = "thread:2"
        (jobdir / "job.json").write_text(json.dumps(doc))
        assert main(["resume", str(jobdir)]) == 0

        assert_final_identical(jobdir, parallel_reference)
        records = read_archive(jobdir / "bus.jsonl")
        assert len([r for r in records if r.kind == "discontinuity"]) == 1

    def test_lost_worker_is_a_failed_resumable_job(self, tmp_path, monkeypatch):
        """A worker process killed between blocksteps ends the job
        ``failed`` with a named error — not a hang — and a resume from
        the last checkpoint lands on the uninterrupted inline run's
        bits."""
        import multiprocessing

        from repro.parallel import WorkerLost
        from repro.service import supervisor
        from repro.service.jobs import JobSpec

        def submit(name, exec_backend):
            spec = JobSpec.from_dict({
                "schema": "repro.job/1", "kind": "run", "name": name,
                "params": dict(PARALLEL_PARAMS, ranks=4),
                "checkpoint_every": 4, "sample_every": 8,
                "exec_backend": exec_backend,
            })
            return supervisor.Supervisor.submit(spec, tmp_path / name)

        reference = submit("lost-ref", "inline")
        assert reference.execute() == "completed"

        written = []
        write_checkpoint = supervisor.write_checkpoint

        def kill_after_second(path, *args, **kwargs):
            write_checkpoint(path, *args, **kwargs)
            written.append(path)
            if len(written) == 2:
                victim = multiprocessing.active_children()[0]
                os.kill(victim.pid, signal.SIGKILL)
                victim.join(2.0)

        sup = submit("lost", "process:2")
        monkeypatch.setattr(supervisor, "write_checkpoint", kill_after_second)
        with pytest.raises(WorkerLost):
            sup.execute()
        monkeypatch.undo()
        assert not multiprocessing.active_children()
        state = json.loads((sup.paths.root / "state.json").read_text())
        assert state["status"] == "failed"
        assert state["error"].startswith("WorkerLost:")
        failed = [r for r in read_archive(sup.paths.root / "bus.jsonl")
                  if r.kind == "job" and r.payload.get("status") == "failed"]
        assert len(failed) == 1

        assert sup.execute(resume=True) == "completed"
        assert_final_identical(sup.paths.root, reference.paths.root)

    def test_bad_exec_backend_rejected(self, tmp_path, capsys):
        spec = write_parallel_spec(tmp_path / "bad.json",
                                   exec_backend="mpi:4")
        assert main(["validate", str(spec)]) == 2

    def test_ranks_without_algorithm_rejected(self, tmp_path, capsys):
        params = dict(PARALLEL_PARAMS)
        del params["algorithm"]
        spec = write_parallel_spec(tmp_path / "bad.json", params=params)
        assert main(["validate", str(spec)]) == 2


class TestRankObservatoryService:
    """Parallel run jobs stream real-execution rank telemetry through
    the bus, the state document and the status line."""

    @pytest.fixture(scope="class")
    def rank_job(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("rankjob")
        spec = write_parallel_spec(root / "job.json", name="rankjob",
                                   exec_backend="thread:2")
        assert main(["submit", str(spec), "--dir", str(root / "jobs")]) == 0
        return root / "jobs" / "rankjob"

    def test_rank_records_on_bus(self, rank_job):
        from repro.telemetry import validate_rank_section

        records = [r for r in read_archive(rank_job / "bus.jsonl")
                   if r.kind == "rank"]
        assert records, "run emitted no rank records"
        for rec in records:
            payload = rec.payload
            assert payload["blocksteps"] > 0 and payload["tasks"] > 0
            assert payload["n_ranks"] == PARALLEL_PARAMS["ranks"]
            assert 0.0 <= payload["utilisation"] <= 1.0
            assert payload["real_skew_us_mean"] >= 0.0
            validate_rank_section(payload["summary"])
        counts = [r.payload["blocksteps"] for r in records]
        assert counts == sorted(counts)

    def test_state_carries_rank_section(self, rank_job):
        state = json.loads((rank_job / "state.json").read_text())
        rank = state["rank"]
        assert rank["n_ranks"] == PARALLEL_PARAMS["ranks"]
        assert 0.0 <= rank["utilisation"] <= 1.0
        assert rank["real_skew_us_mean"] >= 0.0
        assert rank["publish_bytes_per_step"] > 0.0

    def test_status_line_shows_ranks(self, rank_job, capsys):
        assert main(["status", str(rank_job)]) == 0
        line = capsys.readouterr().out
        assert f"ranks={PARALLEL_PARAMS['ranks']}" in line
        assert "util=" in line and "skew=" in line

    def test_status_watch_refreshes(self, rank_job, capsys):
        assert main(["status", str(rank_job), "--watch", "0.01",
                     "--iterations", "2"]) == 0
        out = capsys.readouterr().out
        assert out.count("rankjob") == 2
        assert "\n\n" in out  # blank line between refreshes

    def test_tail_rank_records(self, rank_job, capsys):
        assert main(["tail", str(rank_job), "-n", "3",
                     "--kind", "rank"]) == 0
        out = capsys.readouterr().out
        assert "rank" in out and "utilisation=" in out
