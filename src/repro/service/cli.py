"""``python -m repro.service`` — submit / status / resume / tail /
metrics.

Exit codes are supervisor-facing and deliberate:

* 0 — job completed (or query commands succeeded);
* 1 — job failed (exception inside the workload);
* 2 — operational error (bad spec, unknown job directory, nothing to
  resume from);
* 3 — job interrupted-but-checkpointed (SIGTERM or budget): the job is
  resumable, and a wrapper script can tell "re-run me later" apart
  from "I am broken".
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Sequence

from ..bench.history import DEFAULT_HISTORY_PATH
from ..telemetry import (
    HEADLINE,
    job_metrics,
    render_openmetrics,
    write_openmetrics,
)
from .consumers import read_archive
from .jobs import JobError, JobPaths, JobSpec, load_job, read_state
from .supervisor import Supervisor

_EXIT_BY_STATUS = {"completed": 0, "failed": 1, "interrupted": 3}


def _execute(sup: Supervisor, resume: bool) -> int:
    try:
        status = sup.execute(resume=resume)
    except JobError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # workload failure: state.json says 'failed'
        print(f"job failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    print(f"job {status} [{sup.paths.root}]")
    return _EXIT_BY_STATUS.get(status, 1)


def _cmd_submit(args: argparse.Namespace) -> int:
    try:
        spec = load_job(args.spec)
    except JobError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    jobdir = Path(args.dir) / (args.id or spec.name)
    try:
        sup = Supervisor.submit(
            spec, jobdir,
            history_path=args.history if args.ingest_history else None,
        )
    except JobError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"submitted {spec.kind} job {spec.name!r} -> {jobdir}")
    if args.no_run:
        return 0
    return _execute(sup, resume=False)


def _cmd_resume(args: argparse.Namespace) -> int:
    sup = Supervisor(
        args.jobdir,
        history_path=args.history if args.ingest_history else None,
    )
    if not sup.paths.spec.exists():
        print(f"error: {sup.paths.spec}: no such job", file=sys.stderr)
        return 2
    try:
        state = read_state(sup.paths)
    except JobError:
        state = {}
    if state.get("status") == "completed":
        print(f"job already completed [{sup.paths.root}]")
        return 0
    # a queued job (submit --no-run) or a non-run kind has no checkpoint
    # yet: "resume" degrades to a fresh execution
    return _execute(sup, resume=sup.paths.latest_checkpoint() is not None)


def _resolve_jobdirs(args: argparse.Namespace) -> list[Path]:
    jobdirs = [Path(d) for d in args.jobdir]
    if not jobdirs and args.dir:
        root = Path(args.dir)
        jobdirs = sorted(
            p.parent for p in root.glob("*/job.json")
        ) if root.is_dir() else []
    return jobdirs


def _collect_statuses(jobdirs: list[Path]) -> list[dict]:
    rows = []
    for jobdir in jobdirs:
        sup = Supervisor(jobdir)
        rows.append(sup.status())
    return rows


def _status_line(st: dict) -> str:
    line = (
        f"{st.get('name', '?'):24s} {st.get('kind', '?'):9s} "
        f"{st['status']:11s}"
    )
    if "t" in st:
        line += f" t={st['t']:.6g}"
    if "blocksteps" in st:
        line += f" blocksteps={st['blocksteps']}"
    if "wall_s" in st:
        line += f" wall={st['wall_s']:.1f}s"
    for section in HEADLINE.values():
        values = section.collect("state", st)
        if values:
            line += section.status.format(**section.shown(values))
    line += (
        f" checkpoints={len(st['checkpoints'])}"
        f" records={st['archive_records']}"
    )
    if st.get("reason"):
        line += f" ({st['reason']})"
    if st.get("error"):
        line += f" [{st['error']}]"
    return line


def _cmd_status(args: argparse.Namespace) -> int:
    watch = getattr(args, "watch", None)
    iterations = getattr(args, "iterations", None)
    shown = 0
    while True:
        jobdirs = _resolve_jobdirs(args)
        if not jobdirs:
            print("no jobs found", file=sys.stderr)
            return 2
        try:
            rows = _collect_statuses(jobdirs)
        except JobError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        if args.format == "json":
            print(json.dumps(rows, indent=2, sort_keys=True))
        else:
            if watch is not None and shown:
                print()  # blank line between refreshes, no screen games
            for st in rows:
                print(_status_line(st))
        shown += 1
        if watch is None or (iterations is not None and shown >= iterations):
            return 0
        sys.stdout.flush()
        try:
            time.sleep(watch)
        except KeyboardInterrupt:
            return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    jobdirs = _resolve_jobdirs(args)
    if not jobdirs:
        print("no jobs found", file=sys.stderr)
        return 2
    samples = []
    for jobdir in jobdirs:
        sup = Supervisor(jobdir)
        try:
            status = sup.status()
        except JobError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        samples.extend(job_metrics(status.get("name", jobdir.name), status))
    if args.out:
        path = write_openmetrics(args.out, samples)
        print(f"wrote {path} ({len(samples)} metric samples)",
              file=sys.stderr)
    else:
        sys.stdout.write(render_openmetrics(samples))
    return 0


def _cmd_tail(args: argparse.Namespace) -> int:
    paths = JobPaths(Path(args.jobdir))
    if not paths.archive.exists():
        print(f"error: {paths.archive}: no archive yet", file=sys.stderr)
        return 2
    try:
        records = read_archive(paths.archive)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.kind:
        records = [r for r in records if r.kind in set(args.kind)]
    for record in records[-args.lines:]:
        if args.format == "json":
            print(json.dumps(record.as_record(), sort_keys=True))
        else:
            t = "-" if record.t is None else f"{record.t:.6g}"
            payload = {
                k: v for k, v in record.payload.items()
                if not isinstance(v, (dict, list))
            }
            body = " ".join(f"{k}={v}" for k, v in payload.items())
            print(f"[{record.seq:6d}] {record.kind:13s} t={t:10s} {body}")
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    try:
        spec = load_job(args.spec)
    except JobError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"ok: {spec.kind} job {spec.name!r}")
    print(json.dumps(spec.as_dict(), indent=2, sort_keys=True))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description="durable simulation service: checkpointed jobs, "
        "streaming snapshot bus, crash-resume",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def _runner_common(p):
        p.add_argument("--history", default=str(DEFAULT_HISTORY_PATH),
                       help="bench history file the sweep-artifact "
                       f"consumer appends to (default {DEFAULT_HISTORY_PATH})")
        p.add_argument("--ingest-history", action="store_true",
                       help="attach the bench-history consumer to the bus")

    p_sub = sub.add_parser("submit", help="create a job directory from a "
                           "spec and execute it")
    p_sub.add_argument("spec", help="job spec JSON (repro.job/1)")
    p_sub.add_argument("--dir", default="jobs",
                       help="parent directory for job dirs (default jobs/)")
    p_sub.add_argument("--id", default=None,
                       help="job directory name (default: the spec's name)")
    p_sub.add_argument("--no-run", action="store_true",
                       help="enqueue only (status 'queued'); execute later "
                       "with 'resume' for run jobs")
    _runner_common(p_sub)
    p_sub.set_defaults(func=_cmd_submit)

    p_res = sub.add_parser("resume", help="continue an interrupted job from "
                           "its newest checkpoint")
    p_res.add_argument("jobdir")
    _runner_common(p_res)
    p_res.set_defaults(func=_cmd_resume)

    p_st = sub.add_parser("status", help="summarise job state")
    p_st.add_argument("jobdir", nargs="*",
                      help="job directories (default: all under --dir)")
    p_st.add_argument("--dir", default="jobs")
    p_st.add_argument("--format", choices=("text", "json"), default="text")
    p_st.add_argument("--watch", type=float, default=None, metavar="SECONDS",
                      help="re-render every SECONDS until interrupted "
                      "(live view of a running job)")
    p_st.add_argument("--iterations", type=int, default=None, metavar="N",
                      help="with --watch, stop after N refreshes "
                      "(default: run until interrupted)")
    p_st.set_defaults(func=_cmd_status)

    p_met = sub.add_parser(
        "metrics",
        help="project job states into OpenMetrics gauges (Prometheus "
        "text exposition: progress, efficiency, rank skew/utilisation)")
    p_met.add_argument("jobdir", nargs="*",
                       help="job directories (default: all under --dir)")
    p_met.add_argument("--dir", default="jobs")
    p_met.add_argument("--out", default=None, metavar="PATH",
                       help="write to PATH (e.g. metrics.prom for a "
                       "node-exporter textfile collector); stdout if "
                       "omitted")
    p_met.set_defaults(func=_cmd_metrics)

    p_tail = sub.add_parser("tail", help="print the newest snapshot-bus "
                            "records of a job")
    p_tail.add_argument("jobdir")
    p_tail.add_argument("-n", "--lines", type=int, default=20)
    p_tail.add_argument("--kind", action="append",
                        help="restrict to this record kind (repeatable)")
    p_tail.add_argument("--format", choices=("text", "json"), default="text")
    p_tail.set_defaults(func=_cmd_tail)

    p_val = sub.add_parser("validate", help="validate a job spec without "
                           "creating anything")
    p_val.add_argument("spec")
    p_val.set_defaults(func=_cmd_validate)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)
