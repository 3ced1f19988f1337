"""Simulation-as-a-service: durable jobs, checkpoints, snapshot bus.

The paper's headline results are week-long production runs on shared
hardware (§5: 1.8M-particle Kuiper belt over ~400 wall-clock hours,
2M-particle BH binary) — the regime where one-shot scripts die and
take their state with them.  This package turns a run into a job:

* :mod:`repro.service.jobs` — JSON run-job specs (``repro.job/1``)
  and the on-disk job directory;
* :mod:`repro.service.records` / :mod:`repro.service.bus` — a single
  producer streaming schema-tagged :class:`SnapshotRecord`\\ s to
  independent consumers over bounded queues (a slow consumer drops,
  never stalls the integrator);
* :mod:`repro.service.consumers` — archive writer and live progress
  reporter;
* :mod:`repro.service.supervisor` — checkpoint cadence, wall/step
  budgets, SIGTERM -> checkpoint-and-exit, crash-resume with an
  explicit ``discontinuity`` record (bit-identical continuation,
  property-pinned);
* ``python -m repro.service`` — ``submit`` / ``status`` / ``resume``
  / ``tail``.

Nothing here imports :mod:`repro.bench`: a benchmark sweep is
``python -m repro.bench run``, not a job.

Checkpoint serialisation itself lives in :mod:`repro.io.checkpoint`
(``repro.checkpoint/1``).
"""

from .records import (
    KIND_CHECKPOINT,
    KIND_DISCONTINUITY,
    KIND_JOB,
    KIND_PHASES,
    KIND_STATE,
    RECORD_KINDS,
    SNAPSHOT_RECORD_SCHEMA,
    RecordError,
    SnapshotRecord,
    make_record,
)
from .bus import DEFAULT_QUEUE_CAPACITY, SnapshotBus, SnapshotConsumer
from .consumers import ArchiveWriter, ProgressReporter, read_archive
from .jobs import (
    JOB_SCHEMA,
    STATE_SCHEMA,
    STATUSES,
    JobError,
    JobPaths,
    JobSpec,
    load_job,
    read_state,
    write_state,
)
from .supervisor import GracefulShutdown, Supervisor, always_on_sinks

__all__ = [
    "SNAPSHOT_RECORD_SCHEMA",
    "RECORD_KINDS",
    "KIND_STATE",
    "KIND_PHASES",
    "KIND_CHECKPOINT",
    "KIND_DISCONTINUITY",
    "KIND_JOB",
    "SnapshotRecord",
    "RecordError",
    "make_record",
    "SnapshotBus",
    "SnapshotConsumer",
    "DEFAULT_QUEUE_CAPACITY",
    "ArchiveWriter",
    "ProgressReporter",
    "read_archive",
    "JOB_SCHEMA",
    "STATE_SCHEMA",
    "STATUSES",
    "JobSpec",
    "JobError",
    "JobPaths",
    "load_job",
    "read_state",
    "write_state",
    "GracefulShutdown",
    "Supervisor",
    "always_on_sinks",
]
