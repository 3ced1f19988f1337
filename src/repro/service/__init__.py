"""Simulation-as-a-service: durable jobs, checkpoints, snapshot bus.

The paper's headline results are week-long production runs on shared
hardware (§5: 1.8M-particle Kuiper belt over ~400 wall-clock hours,
2M-particle BH binary) — the regime where one-shot scripts die and
take their state with them.  This package turns a run into a job:

* :mod:`repro.service.jobs` — JSON job specs (``repro.job/1``:
  run / sweep / calibrate) and the on-disk job directory;
* :mod:`repro.service.records` / :mod:`repro.service.bus` — a single
  producer streaming schema-tagged :class:`SnapshotRecord`\\ s to
  independent consumers over bounded queues (a slow consumer drops,
  never stalls the integrator);
* :mod:`repro.service.consumers` — archive writer, live progress
  reporter, bench-history ingester;
* :mod:`repro.service.supervisor` — checkpoint cadence, wall/step
  budgets, SIGTERM -> checkpoint-and-exit, crash-resume with an
  explicit ``discontinuity`` record (bit-identical continuation,
  property-pinned);
* ``python -m repro.service`` — ``submit`` / ``status`` / ``resume``
  / ``tail``.

Checkpoint serialisation itself lives in :mod:`repro.io.checkpoint`
(``repro.checkpoint/1``).
"""

from .records import (
    KIND_BENCH_ARTIFACT,
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
from .consumers import (
    ArchiveWriter,
    BenchHistoryIngester,
    ProgressReporter,
    read_archive,
)
from .jobs import (
    JOB_KINDS,
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
    "KIND_BENCH_ARTIFACT",
    "SnapshotRecord",
    "RecordError",
    "make_record",
    "SnapshotBus",
    "SnapshotConsumer",
    "DEFAULT_QUEUE_CAPACITY",
    "ArchiveWriter",
    "ProgressReporter",
    "BenchHistoryIngester",
    "read_archive",
    "JOB_SCHEMA",
    "STATE_SCHEMA",
    "JOB_KINDS",
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
