"""The job supervisor: budgets, checkpoints, signals, resume.

One :class:`Supervisor` owns one job directory and drives one run job
through its lifecycle, on the one thread that steps the integrator.
The loop is:

* step the block-timestep integrator;
* every ``sample_every`` blocksteps publish a ``state`` record;
* every ``checkpoint_every`` blocksteps (or ``checkpoint_every_s``
  wall seconds) fold the spans closed since the last boundary
  (:class:`FoldInBatches`), publish ``phases`` and the headline
  records, then write the checkpoint durably (write, fsync, rename),
  rewrite ``state.json`` to name it and publish its ``checkpoint``
  record;
* on SIGTERM/SIGINT, wall-budget or blockstep-budget exhaustion:
  checkpoint, mark the job ``interrupted`` and exit cleanly;
* on completion: final checkpoint, raw ``final.npz`` snapshot,
  ``completed`` state.

Because the write returns only once the file is on disk, a
``checkpoint`` record always names a durable file and ``state.json``
never names one that is missing; a write error is raised at the
boundary and fails the job.

``execute(resume=True)`` restores the newest readable checkpoint and
continues **bit identically** (the kill-point cells of
``tests/property/test_prop_invariants.py``), publishing a
``discontinuity`` record first: the archive downstream of a resume is
explicit about the records that never happened, about checkpoints it
had to pass over, and about whether the resuming process runs the same
commit/machine the checkpoint came from.  Its records continue the
archive's sequence numbers; a last archive line a kill tore in half is
cut back to the newline before it first, and its bytes are reported.

Wall budgets are cumulative: each checkpoint carries the wall seconds
consumed so far in its ``clocks`` block, so a job killed and resumed
five times still respects one total budget.
"""

from __future__ import annotations

import signal
import time
from pathlib import Path
from typing import Any, IO

import numpy as np

from ..core.individual import BlockTimestepIntegrator
from ..io.checkpoint import (
    CheckpointError,
    checkpoint_provenance,
    read_checkpoint,
    restore_integrator,
    write_checkpoint,
)
from ..io.runlog import write_json_atomic
from ..io.snapshot import write_snapshot
from ..telemetry import (
    HEADLINE,
    FlopsLedger,
    RankLedger,
    RegimeTracker,
    SpanFold,
    Tracer,
    set_tracer,
)
from .bus import SnapshotBus
from .consumers import (
    ArchiveWriter,
    ProgressReporter,
    cut_torn_tail,
    next_seq,
)
from .jobs import (
    JobError,
    JobPaths,
    JobSpec,
    build_backend,
    build_integrator,
    build_parallel,
    build_system,
    load_job,
    read_state,
    run_param,
    write_state,
)
from .records import (
    KIND_CHECKPOINT,
    KIND_DISCONTINUITY,
    KIND_JOB,
    KIND_PHASES,
    KIND_STATE,
)


class GracefulShutdown:
    """Context manager turning SIGTERM/SIGINT into a checked flag.

    The handler only sets a flag — the supervisor finishes the current
    blockstep, checkpoints, and exits on its own schedule, which is
    what makes the interruption resumable instead of corrupting.
    Outside the main thread (some test runners) signal handlers cannot
    be installed (``signal.signal`` raises ``ValueError``); the manager
    degrades to a never-triggered flag.
    """

    SIGNALS = (signal.SIGTERM, signal.SIGINT)

    def __init__(self) -> None:
        self.triggered = False
        self.signum: int | None = None
        self._old: dict[int, Any] = {}

    def _handle(self, signum, frame) -> None:
        self.triggered = True
        self.signum = signum

    def __enter__(self) -> "GracefulShutdown":
        for sig in self.SIGNALS:
            try:
                self._old[sig] = signal.signal(sig, self._handle)
            except ValueError:  # not the main thread
                break
        return self

    def __exit__(self, *exc) -> None:
        for sig, old in self._old.items():
            signal.signal(sig, old)
        self._old.clear()


class Supervisor:
    """Owns one job directory; see the module docstring."""

    def __init__(self, jobdir: str | Path) -> None:
        self.paths = JobPaths(Path(jobdir))

    # -- lifecycle ----------------------------------------------------------

    @classmethod
    def submit(cls, spec: JobSpec, jobdir: str | Path) -> "Supervisor":
        """Create the job directory and enqueue ``spec`` (status
        ``queued``); does not execute."""
        sup = cls(jobdir)
        paths = sup.paths
        if paths.spec.exists():
            raise JobError(f"{paths.spec}: job already exists")
        paths.root.mkdir(parents=True, exist_ok=True)
        write_json_atomic(spec.as_dict(), paths.spec)
        write_state(paths, "queued", name=spec.name, kind=spec.kind)
        return sup

    def execute(self, resume: bool = False) -> str:
        """Run (or resume) the job to a terminal or interrupted state.

        Returns the final status string (``completed`` /
        ``interrupted`` / ``failed``).
        """
        spec = load_job(self.paths.spec)
        archive = self.paths.archive
        # a kill inside an archive write leaves half a line: the record
        # never happened, so the resumed stream takes its seq
        torn_bytes = cut_torn_tail(archive) if resume else 0
        try:
            seq = next_seq(archive)
        except (ValueError, KeyError, TypeError) as exc:
            raise JobError(
                f"{archive}: the last record does not parse ({exc})") from exc
        progress_fh: IO[str] = self.paths.progress.open("a")
        bus = SnapshotBus(
            [ArchiveWriter(archive), ProgressReporter(progress_fh)])
        bus.seq = seq
        try:
            return self._execute_run(spec, bus, resume, torn_bytes)
        finally:
            stats = bus.close()
            progress_fh.write(f"consumers: {stats}\n")
            progress_fh.close()

    # -- run jobs -----------------------------------------------------------

    def _execute_run(self, spec: JobSpec, bus: SnapshotBus, resume: bool,
                     torn_bytes: int) -> str:
        params = spec.params
        backend = build_backend(params)
        fold, regimes, eff = always_on_sinks(
            backend if hasattr(backend, "peak_flops") else None)
        spans = FoldInBatches(fold)
        tracer = Tracer(enabled=True, sinks=[spans])
        # a parallel run's virtual-time results are bit-identical on
        # every execution backend (property-pinned), so the spec's
        # exec_backend — and even a resume that switches it — is purely
        # a placement choice
        algorithm = build_parallel(params, exec_backend=spec.exec_backend)
        # rank observatory: real-execution telemetry from the dispatch
        # observer; keep=False — running totals only, O(1) for
        # unbounded runs (no per-blockstep records, so no placement
        # cross-attribution here — the bench harness does that)
        ranks = RankLedger(keep=False) if algorithm is not None else None
        # keyed as the headline registry keys its sections
        observatories = {"signatures": regimes, "efficiency": eff, "rank": ranks}

        if resume:
            # a kill between an atomic write's temp file and its rename
            # leaves the temp file; nothing reads one, nothing else
            # removes one
            torn = [*self.paths.root.glob("*.tmp"),
                    *self.paths.checkpoints.glob("*.tmp")]
            for path in torn:
                path.unlink()
            # newest first, past any a disk or a kill has damaged
            unreadable = 0
            for ck_path in reversed(self.paths.checkpoint_files()):
                try:
                    ck = read_checkpoint(ck_path)
                    break
                except CheckpointError:
                    unreadable += 1
            else:
                raise JobError(
                    f"{self.paths.root}: no checkpoint to resume from"
                    + (f" ({unreadable} unreadable)" if unreadable else ""))
            integ = restore_integrator(
                ck, backend=backend, tracer=tracer, algorithm=algorithm
            )
            rng = ck.rng
            wall_consumed = float(ck.clocks.get("wall_s", 0.0))
            bus.emit(
                KIND_DISCONTINUITY,
                t=integ.t,
                blockstep=integ.stats.blocksteps,
                path=str(ck_path),
                checkpoint_provenance=ck.provenance,
                resume_provenance=checkpoint_provenance(),
                **({"torn_writes_removed": len(torn)} if torn else {}),
                **({"torn_archive_bytes": torn_bytes} if torn_bytes else {}),
                **({"unreadable_checkpoints_skipped": unreadable}
                   if unreadable else {}),
            )
        else:
            integ = build_integrator(
                build_system(params), params,
                backend=backend, algorithm=algorithm, tracer=tracer,
            )
            rng = np.random.default_rng(run_param(params, "seed"))
            wall_consumed = 0.0

        if ranks is not None and hasattr(integ, "observe_ranks"):
            integ.observe_ranks(ranks)

        bus.emit(
            KIND_JOB,
            t=integ.t,
            status="resumed" if resume else "started",
            detail=f"{spec.name}: n={integ.system.n}, t_end={params['t_end']}",
        )
        write_state(
            self.paths, "running", name=spec.name, kind=spec.kind,
            t=integ.t, blocksteps=integ.stats.blocksteps,
        )

        t_end = float(params["t_end"])
        segment_t0 = time.perf_counter()
        last_ck_wall = segment_t0

        def total_wall() -> float:
            return wall_consumed + (time.perf_counter() - segment_t0)

        def checkpoint(reason: str) -> dict[str, Any]:
            """Publish ``phases`` and the headlines, make the checkpoint
            durable, name it in ``state.json`` and only then publish its
            ``checkpoint`` record; returns the ``state.json`` fields."""
            nonlocal last_ck_wall
            bus.emit(KIND_PHASES, t=integ.t, **spans.drain().snapshot())
            blockstep = integ.stats.blocksteps
            path = self.paths.checkpoint_path(blockstep)
            fields: dict[str, Any] = {
                **publish_headlines(bus, integ.t, observatories),
                "t": integ.t, "blocksteps": blockstep,
                "wall_s": total_wall(), "last_checkpoint": str(path),
            }
            write_checkpoint(
                path, integ, rng=rng,
                clocks={"wall_s": total_wall(), "t": float(integ.t)},
                metadata={"job": spec.name, "reason": reason,
                          "params": dict(params)},
            )
            write_state(self.paths, "running", name=spec.name, kind=spec.kind,
                        **fields)
            bus.emit(KIND_CHECKPOINT, t=integ.t, path=str(path),
                     blockstep=blockstep, reason=reason)
            last_ck_wall = time.perf_counter()
            return fields

        interrupted: str | None = None
        try:
            old_tracer = set_tracer(tracer)
            try:
                with GracefulShutdown() as stop:
                    while True:
                        if stop.triggered:
                            interrupted = f"signal {stop.signum}"
                            break
                        if integ.scheduler.next_time() > t_end:
                            break
                        integ.step()
                        n_done = integ.stats.blocksteps
                        if n_done % spec.sample_every == 0:
                            self._emit_state(bus, integ)
                        if spec.max_blocksteps is not None and (
                            n_done >= spec.max_blocksteps
                        ):
                            interrupted = (
                                f"blockstep budget ({spec.max_blocksteps})")
                            break
                        if spec.max_wall_s is not None and (
                            total_wall() >= spec.max_wall_s
                        ):
                            interrupted = f"wall budget ({spec.max_wall_s:g} s)"
                            break
                        if n_done % spec.checkpoint_every == 0 or (
                            spec.checkpoint_every_s is not None
                            and time.perf_counter() - last_ck_wall
                            >= spec.checkpoint_every_s
                        ):
                            checkpoint("cadence")
            finally:
                set_tracer(old_tracer)
                if algorithm is not None:
                    algorithm.executor.close()

            if interrupted is not None:
                fields = checkpoint("interrupt")
                bus.emit(KIND_JOB, t=integ.t, status="interrupted",
                         detail=interrupted)
                write_state(
                    self.paths, "interrupted", name=spec.name, kind=spec.kind,
                    **{**fields, "wall_s": total_wall(), "reason": interrupted},
                )
                return "interrupted"

            self._emit_state(bus, integ)
            fields = checkpoint("final")
            write_snapshot(
                self.paths.final_snapshot, integ.system, t=integ.t,
                metadata={"job": spec.name, "blocksteps": integ.stats.blocksteps,
                          "rng": rng} if rng is not None
                else {"job": spec.name, "blocksteps": integ.stats.blocksteps},
            )
            bus.emit(KIND_JOB, t=integ.t, status="completed",
                     detail=f"{integ.stats.blocksteps} blocksteps, "
                            f"{integ.stats.particle_steps} particle steps")
            write_state(
                self.paths, "completed", name=spec.name, kind=spec.kind,
                **{**fields, "wall_s": total_wall(),
                   "final_snapshot": str(self.paths.final_snapshot)},
            )
            return "completed"
        except Exception as exc:
            write_state(
                self.paths, "failed", name=spec.name, kind=spec.kind,
                error=f"{type(exc).__name__}: {exc}",
            )
            bus.emit(KIND_JOB, status="failed",
                     detail=f"{type(exc).__name__}: {exc}")
            raise

    @staticmethod
    def _emit_state(bus: SnapshotBus, integ: BlockTimestepIntegrator) -> None:
        """Publish one ``state`` sample from maintained quantities only
        (no extra force evaluations — safe at any cadence)."""
        s = integ.system
        kinetic = 0.5 * float(np.sum(s.mass * np.sum(s.vel * s.vel, axis=1)))
        potential = 0.5 * float(np.sum(s.mass * s.pot))
        stats = integ.stats
        bus.emit(
            KIND_STATE,
            t=integ.t,
            blocksteps=stats.blocksteps,
            particle_steps=stats.particle_steps,
            interactions=stats.interactions,
            mean_block_size=stats.mean_block_size,
            last_block_size=(stats.block_sizes[-1]
                             if stats.block_sizes else None),
            energy=kinetic + potential,
            kinetic=kinetic,
            potential=potential,
        )

    # -- inspection ---------------------------------------------------------

    def status(self) -> dict[str, Any]:
        """state.json plus checkpoint inventory, for the CLI."""
        state = read_state(self.paths)
        checkpoints = (
            sorted(p.name for p in self.paths.checkpoints.glob("ckpt_*.npz"))
            if self.paths.checkpoints.is_dir()
            else []
        )
        return {
            **state,
            "jobdir": str(self.paths.root),
            "checkpoints": checkpoints,
            "archive_records": _count_lines(self.paths.archive),
        }


#: Closed spans a run job holds before it folds them, besides at every
#: checkpoint boundary: about a hundred blocksteps (a job at the default
#: cadence of 64 blocksteps folds at its boundaries only).
FOLD_BATCH = 512


class FoldInBatches:
    """A run job's tracer sink: it keeps each closed span's fields and
    hands them to the fold in one pass, at every checkpoint boundary
    (:meth:`drain`) and whenever :data:`FOLD_BATCH` spans wait.

    The fold sees the spans in the order they closed, so it cuts the
    same records and says the same numbers as if fed span by span; the
    pass runs with the fold's and the observatories' code and data warm,
    where span by span it ran cold between two slices of physics (at
    about 2.5 times its replayed cost, ``benchmarks/test_sink_budget.py``).
    """

    def __init__(self, fold: SpanFold) -> None:
        self.fold = fold
        self._spans: list[tuple] = []

    def span_step(self, *fields: Any) -> None:
        spans = self._spans
        spans.append(fields)
        if len(spans) >= FOLD_BATCH:
            self.drain()

    def drain(self) -> SpanFold:
        """Fold every waiting span; returns the fold, now up to date."""
        step = self.fold.span_step
        for fields in self._spans:
            step(*fields)
        self._spans.clear()
        return self.fold


def always_on_sinks(
    hardware: Any = None,
) -> tuple[SpanFold, RegimeTracker, FlopsLedger]:
    """The sink chain every run job traces into, and the two
    observatories it feeds.

    One pass over the span stream serves all three: the fold's own
    totals are the ``phases`` record; the streaming regime tracker and
    the flops ledger, priced against ``hardware``'s introspected peak
    (or the paper's single host), each reduce the fold's per-blockstep
    records.  Nothing is kept per blockstep, so a week-long run stays
    O(1).  A job feeds the fold through :class:`FoldInBatches`.
    """
    regimes = RegimeTracker()
    eff = FlopsLedger(hardware=hardware, keep=False)
    return SpanFold([regimes, eff]), regimes, eff


def publish_headlines(
    bus: SnapshotBus, t: float, observatories: dict[str, Any]
) -> dict[str, Any]:
    """Publish one bus record per observatory that has seen a blockstep
    (keyed as :data:`repro.telemetry.HEADLINE` keys its sections) and
    return the matching ``state.json`` fields.

    Each ``summary()`` is taken once; the record's flat scalars and the
    state fields are both projections of that one document through the
    section's headline columns, so the bus, ``state.json`` and
    ``status`` cannot disagree.  Only the columns those two faces carry
    are read.
    """
    fields: dict[str, Any] = {}
    for name, observatory in observatories.items():
        if observatory is not None and observatory.count:
            section, doc = HEADLINE[name], observatory.summary()
            values = {column.name: column.value(doc)
                      for column in section.columns
                      if column.bus or column.state}
            bus.emit(section.kind, t=t, **section.project("bus", values),
                     summary=doc)
            fields.update(section.project("state", values))
    return fields


def _count_lines(path: Path) -> int:
    if not path.exists():
        return 0
    with path.open("rb") as fh:
        return sum(1 for _ in fh)
