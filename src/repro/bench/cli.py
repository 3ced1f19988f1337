"""``python -m repro.bench`` — run / compare / report / profile /
history / list.

Exit codes are CI-facing and deliberate:

* 0 — success (for ``compare``: no regression, or ``--warn-only``);
* 1 — the regression gate tripped (wall-time regression or model
  drift);
* 2 — operational error (unreadable artifact, schema mismatch,
  unknown benchmark/suite) — always fatal, even under ``--warn-only``,
  because a gate that cannot read its inputs is not a passing gate.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Sequence

from ..perfmodel.calibrate import (
    DEFAULT_CALIBRATION_PATH,
    CalibrationError,
    calibrate_artifacts,
    load_calibration,
    merge_calibration,
    save_calibration,
)
from ..service.jobs import RUN_PARAMS
from ..telemetry import (
    SignatureError,
    artifact_metrics,
    write_openmetrics,
    write_timeline,
)
from .artifact import ArtifactError, read_artifact, write_artifact
from .comm import capture_comm_ledger
from .compare import compare_artifacts
from .history import (
    DEFAULT_DRIFT_THRESHOLD,
    DEFAULT_HISTORY_PATH,
    DEFAULT_REL_THRESHOLD,
    HistoryError,
    ingest_artifact,
    prune_history,
    read_history,
    render_history_plot,
    render_history_table,
)
from .profiling import flight_record_benchmark, profile_benchmark
from .registry import REGISTRY
from .report import (
    render_artifact_markdown,
    render_artifact_text,
    render_compare_markdown,
    render_compare_text,
    render_profile_text,
)
from .runner import run_suite
from .sampling import (
    DEFAULT_BOOTSTRAP,
    DEFAULT_MAX_ERROR,
    DEFAULT_MIN_PREFIX,
    DEFAULT_PREFIX_FRACTION,
    DEFAULT_VALIDATE_REPEATS,
    render_estimate_text,
    sampled_estimate,
    validate_sampling,
    write_sample_artifact,
)

# registration side effect: populate REGISTRY with the built-in sweeps
from . import suites as _suites  # noqa: F401
from . import efficiency as _efficiency  # noqa: F401


def _cmd_run(args: argparse.Namespace) -> int:
    try:
        artifact = run_suite(
            args.suite,
            repeats=args.repeats,
            warmup=args.warmup,
            label=args.label,
            names=args.bench or None,
            progress=lambda line: print(f"  {line}", file=sys.stderr),
            seed=args.seed,
            tag=args.tag,
            notes=args.notes,
            exec_backend=args.exec_backend,
        )
    except KeyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.out:
        write_artifact(artifact, args.out)
        print(f"wrote {args.out} ({len(artifact['benchmarks'])} benchmarks)")
    else:
        print(json.dumps(artifact, indent=2, sort_keys=True))
    if args.metrics:
        samples = artifact_metrics(artifact)
        path = write_openmetrics(args.metrics, samples)
        print(f"wrote {path} ({len(samples)} metric samples)",
              file=sys.stderr)
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    current = read_artifact(args.current)
    baseline = read_artifact(args.baseline)
    calibration = (
        load_calibration(args.calibration) if args.calibration else None
    )
    result = compare_artifacts(
        current,
        baseline,
        rel_threshold=args.threshold,
        drift_threshold=None if args.no_drift else args.drift_threshold,
        calibration=calibration,
    )
    if result.calibrated:
        print(
            f"calibrated environment: drift threshold tightened to "
            f"{result.drift_threshold:.0%}",
            file=sys.stderr,
        )
    if args.format == "json":
        print(json.dumps(result.as_dict(), indent=2, sort_keys=True))
    elif args.format == "markdown":
        print(render_compare_markdown(result))
    else:
        print(render_compare_text(result))
    if result.ok:
        return 0
    if args.warn_only:
        print("warning: regression detected (exit 0 due to --warn-only)",
              file=sys.stderr)
        return 0
    return 1


def _cmd_report(args: argparse.Namespace) -> int:
    artifact = read_artifact(args.artifact)
    if args.format == "json":
        print(json.dumps(artifact, indent=2, sort_keys=True))
    elif args.format == "markdown":
        print(render_artifact_markdown(artifact))
    else:
        print(render_artifact_text(artifact))
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    try:
        bench = REGISTRY.get(args.bench)
        params = bench.params_for(args.suite)
    except KeyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.timeline is None:
        attr = profile_benchmark(bench, params, top=args.top)
        if args.format == "json":
            print(json.dumps(attr.as_dict(), indent=2, sort_keys=True))
        else:
            print(render_profile_text(attr))
        return 0
    # flight-recorder mode: one trial observed by cProfile, the span
    # tracer and the sampler together; the span tree + sampler ticks
    # become a chrome://tracing / Perfetto timeline
    recording = flight_record_benchmark(
        bench, params, top=args.top, interval_s=args.interval / 1.0e3
    )
    path = write_timeline(
        args.timeline,
        recording.events,
        samples=recording.samples,
        metadata={"benchmark": bench.name, "suite": args.suite,
                  "params": params},
    )
    if args.format == "json":
        print(json.dumps(recording.as_dict(), indent=2, sort_keys=True))
    else:
        print(render_profile_text(recording.attribution))
        print()
        print(recording.sampler_report.render())
    print(
        f"wrote {path} ({len(recording.events)} spans, "
        f"{len(recording.samples)} samples); load in chrome://tracing "
        f"or https://ui.perfetto.dev",
        file=sys.stderr,
    )
    return 0


def _cmd_calibrate(args: argparse.Namespace) -> int:
    artifacts = [read_artifact(p) for p in args.artifacts]
    update = calibrate_artifacts(artifacts)
    calibration = merge_calibration(load_calibration(args.out), update)
    if args.dry_run:
        print(json.dumps(update, indent=2, sort_keys=True))
        return 0
    save_calibration(calibration, args.out)
    for key, env in update["environments"].items():
        nics = ", ".join(
            f"{name}: flight {fit.get('barrier_flight_us', float('nan')):.1f} us"
            + (
                f", rtt {fit['rtt_latency_us']:.0f} us @ "
                f"{fit['bandwidth_mbs']:.0f} MB/s"
                if "rtt_latency_us" in fit
                else ""
            )
            for name, fit in sorted(env["nics"].items())
        ) or "(no comm data)"
        scale = env.get("host_scale")
        print(f"env {key}: {env['n_artifacts']} artifact(s); {nics}")
        if scale is not None:
            print(f"env {key}: host scale {scale:.3g} "
                  f"(model us -> measured us)")
        for name, anchor in sorted(env["model_anchors"].items()):
            print(f"env {key}: anchor {name}: model/measured {anchor:.3g}")
    print(f"wrote {args.out} "
          f"({len(calibration['environments'])} environment(s))")
    return 0


def _cmd_ledger(args: argparse.Namespace) -> int:
    try:
        bench = REGISTRY.get(args.bench)
        params = bench.params_for(args.suite)
    except KeyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        capture = capture_comm_ledger(bench, params)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.out:
        path = capture.write(args.out)
        print(f"wrote {path} ({len(capture.ledgers)} network ledger(s))")
    else:
        print(json.dumps(capture.as_dict(), indent=2, sort_keys=True))
    if args.timeline:
        path = capture.write_timeline(args.timeline)
        print(
            f"wrote {path} ({len(capture.trace_events)} comm events); "
            f"load in chrome://tracing or https://ui.perfetto.dev",
            file=sys.stderr,
        )
    return 0


def _cmd_sample(args: argparse.Namespace) -> int:
    # the run flags are a run job's params: sampling checks them against
    # the service's table, so a bad value is the JobError submit gives
    params: dict[str, Any] = {
        "model": args.model,
        "n": args.n,
        "seed": args.seed,
        "eta": args.eta,
        "backend": args.backend,
    }
    if args.eps is not None:
        params["eps"] = args.eps
    common = dict(
        min_prefix=args.min_prefix,
        n_bootstrap=args.bootstrap,
        timeline=args.timeline,
    )
    try:
        if args.validate:
            estimate = validate_sampling(
                params, args.t_end, repeats=args.repeats, **common
            )
        else:
            estimate = sampled_estimate(params, args.t_end, **common)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        print(json.dumps(estimate.as_artifact(), indent=2, sort_keys=True))
    else:
        print(render_estimate_text(estimate))
    if args.out:
        path = write_sample_artifact(estimate.as_artifact(), args.out)
        print(f"wrote {path}", file=sys.stderr)
    if args.timeline:
        print(
            f"wrote {args.timeline} (span film + regime lane); load in "
            f"chrome://tracing or https://ui.perfetto.dev",
            file=sys.stderr,
        )
    if args.validate:
        v = estimate.validation or {}
        error = v.get("median_rel_error", float("inf"))
        fraction = v.get("simulated_fraction", 1.0)
        if error > args.max_error:
            print(
                f"validation FAILED: median error {error:.2%} exceeds "
                f"{args.max_error:.0%}",
                file=sys.stderr,
            )
            return 1
        if fraction > DEFAULT_PREFIX_FRACTION + 0.05:
            print(
                f"validation FAILED: simulated {fraction:.1%} of blocksteps "
                f"(budget {DEFAULT_PREFIX_FRACTION:.0%})",
                file=sys.stderr,
            )
            return 1
        print(
            f"validation passed: median error {error:.2%} <= "
            f"{args.max_error:.0%} at {fraction:.1%} of blocksteps simulated",
            file=sys.stderr,
        )
    return 0


def _cmd_history(args: argparse.Namespace) -> int:
    if args.history_command == "ingest":
        appended_any = False
        for artifact_path in args.artifacts:
            artifact = read_artifact(artifact_path)
            row, appended = ingest_artifact(
                artifact, args.history, force=args.force, notes=args.notes
            )
            appended_any = appended_any or appended
            status = "ingested" if appended else "already present (skipped)"
            print(
                f"{artifact_path}: {status} "
                f"[suite {row['suite']}, env {row['env_key']}, "
                f"rev {(row['git_revision'] or '-')[:10]}]"
            )
        rows = read_history(args.history)
        print(f"{args.history}: {len(rows)} rows")
        return 0
    if args.history_command == "prune":
        if not args.drop_env and not args.keep_env and args.keep_last is None:
            print("error: nothing to prune (pass --drop-env/--keep-env "
                  "and/or --keep-last)", file=sys.stderr)
            return 2
        kept, dropped = prune_history(
            args.history,
            drop_envs=args.drop_env or (),
            keep_envs=args.keep_env or (),
            keep_last=args.keep_last,
            dry_run=args.dry_run,
        )
        verb = "would drop" if args.dry_run else "dropped"
        print(f"{args.history}: {verb} {dropped} row(s), kept {kept}")
        return 0
    rows = read_history(args.history)
    if args.history_command == "table":
        print(
            render_history_table(
                rows,
                fmt=args.format,
                suite=args.suite,
                env=args.env,
            )
        )
        return 0
    if args.history_command == "plot":
        print(
            render_history_plot(
                rows,
                suite=args.suite,
                env=args.env,
                benchmarks=args.bench or None,
                width=args.width,
            )
        )
        return 0
    raise AssertionError(f"unhandled history command {args.history_command!r}")


def _cmd_list(args: argparse.Namespace) -> int:
    rows: list[dict[str, Any]] = []
    for bench in REGISTRY:
        rows.append(
            {
                "name": bench.name,
                "title": bench.title,
                "paper_ref": bench.paper_ref,
                "suites": sorted(bench.suites),
            }
        )
    if args.format == "json":
        print(json.dumps(rows, indent=2))
    else:
        for row in rows:
            print(
                f"{row['name']:28s} [{', '.join(row['suites'])}] "
                f"{row['title']} ({row['paper_ref']})"
            )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="benchmark harness: run the paper's sweeps, write "
        "BENCH_*.json artifacts, gate regressions, profile phases",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a suite and write an artifact")
    p_run.add_argument("--suite", default="smoke",
                       help="suite name (micro/smoke/full; default smoke)")
    p_run.add_argument("--out", default=None,
                       help="artifact path (BENCH_<label>.json); stdout if omitted")
    p_run.add_argument("--repeats", type=int, default=3)
    p_run.add_argument("--warmup", type=int, default=1)
    p_run.add_argument("--label", default=None,
                       help="artifact label (defaults to the suite name)")
    p_run.add_argument("--bench", action="append",
                       help="restrict to this benchmark (repeatable)")
    p_run.add_argument("--exec-backend", default=None, dest="exec_backend",
                       metavar="SPEC",
                       help="override the execution backend of every "
                            "benchmark that dispatches rank compute "
                            "(inline | thread[:N] | process[:N])")
    p_run.add_argument("--seed", type=int, default=None,
                       help="override the workload seed of every benchmark "
                       "(recorded in the artifact for reproducibility)")
    p_run.add_argument("--tag", default=None,
                       help="free-form label recorded in the artifact and "
                       "its history row (e.g. 'post-vectorise')")
    p_run.add_argument("--notes", default=None,
                       help="free-text provenance recorded in the artifact "
                       "and its history row (e.g. 'dedicated box, "
                       "governor pinned')")
    p_run.add_argument("--metrics", default=None, metavar="PATH",
                       help="also write the artifact's headline gauges "
                       "(wall medians, fraction of peak, rank skew / "
                       "utilisation) as an OpenMetrics text file "
                       "scrapeable by Prometheus")
    p_run.set_defaults(func=_cmd_run)

    p_cmp = sub.add_parser("compare", help="regression gate: current vs baseline")
    p_cmp.add_argument("current")
    p_cmp.add_argument("baseline")
    p_cmp.add_argument("--threshold", type=float, default=DEFAULT_REL_THRESHOLD,
                       help="relative slowdown threshold (default 0.5)")
    p_cmp.add_argument("--warn-only", action="store_true",
                       help="report regressions but exit 0 (CI soft gate)")
    p_cmp.add_argument("--drift-threshold", type=float,
                       default=DEFAULT_DRIFT_THRESHOLD,
                       help="relative model_over_measured drift that fails "
                       "the gate (same-environment artifacts only; "
                       "default 0.5)")
    p_cmp.add_argument("--no-drift", action="store_true",
                       help="disable the model-drift check")
    p_cmp.add_argument("--calibration", default=None, metavar="PATH",
                       help="calibration file (bench calibrate); when it "
                       "covers the current environment the drift threshold "
                       "tightens to 10%%")
    p_cmp.add_argument("--format", choices=("text", "markdown", "json"),
                       default="text")
    p_cmp.set_defaults(func=_cmd_compare)

    p_cal = sub.add_parser(
        "calibrate",
        help="fit perfmodel constants from BENCH_*.json artifacts "
        "(ledger-fed least squares, keyed by environment)")
    p_cal.add_argument("artifacts", nargs="+",
                       help="artifact files to fit from")
    p_cal.add_argument("--out", default=str(DEFAULT_CALIBRATION_PATH),
                       help=f"calibration file to merge into "
                       f"(default {DEFAULT_CALIBRATION_PATH})")
    p_cal.add_argument("--dry-run", action="store_true",
                       help="print the fit without writing")
    p_cal.set_defaults(func=_cmd_calibrate)

    p_led = sub.add_parser(
        "ledger",
        help="capture one benchmark trial's comm ledger (per-link "
        "traffic, barrier straggler attribution, exchanges)")
    p_led.add_argument("--bench", default="cluster_speed",
                       help="benchmark to capture (must attach a "
                       "simulated network)")
    p_led.add_argument("--suite", default="smoke")
    p_led.add_argument("--out", default=None, metavar="PATH",
                       help="ledger JSON path; stdout if omitted")
    p_led.add_argument("--timeline", default=None, metavar="PATH",
                       help="also write the trial's spans + comm lanes "
                       "as Chrome trace-event JSON")
    p_led.set_defaults(func=_cmd_ledger)

    p_smp = sub.add_parser(
        "sample",
        help="sampled-run estimator: scout the blockstep schedule on the "
        "cheap backend, simulate a prefix on the target backend, "
        "extrapolate full-run wall time per regime")
    p_smp.add_argument("--model", default="plummer",
                       help="workload model (default plummer)")
    p_smp.add_argument("--n", type=int, default=64)
    p_smp.add_argument("--seed", type=int, default=13)
    p_smp.add_argument("--t-end", type=float, default=1.0, dest="t_end")
    p_smp.add_argument("--eta", type=float,
                       default=RUN_PARAMS["eta"].default)
    p_smp.add_argument("--eps", type=float, default=None,
                       help="softening (defaults to the constant 1/64 law)")
    p_smp.add_argument("--backend", default="grape",
                       help="target backend to price (default grape)")
    p_smp.add_argument("--min-prefix", type=int, default=DEFAULT_MIN_PREFIX,
                       help="blockstep floor for the probe budget")
    p_smp.add_argument("--bootstrap", type=int, default=DEFAULT_BOOTSTRAP,
                       help="bootstrap resamples for the error bars")
    p_smp.add_argument("--validate", action="store_true",
                       help="also run the workload exhaustively and gate on "
                       "the median estimator error (CI mode)")
    p_smp.add_argument("--repeats", type=int,
                       default=DEFAULT_VALIDATE_REPEATS,
                       help="exhaustive repeats under --validate "
                       f"(default {DEFAULT_VALIDATE_REPEATS}; median error "
                       "is the gate)")
    p_smp.add_argument("--max-error", type=float, default=DEFAULT_MAX_ERROR,
                       help="median relative error that fails --validate "
                       f"(default {DEFAULT_MAX_ERROR})")
    p_smp.add_argument("--out", default=None, metavar="PATH",
                       help="write the repro.phase_signature/1 sample "
                       "artifact (SIG_*.json)")
    p_smp.add_argument("--timeline", default=None, metavar="PATH",
                       help="write the probe's span film + regime lane as "
                       "Chrome trace-event JSON")
    p_smp.add_argument("--format", choices=("text", "json"), default="text")
    p_smp.set_defaults(func=_cmd_sample)

    p_rep = sub.add_parser("report", help="render an artifact")
    p_rep.add_argument("artifact")
    p_rep.add_argument("--format", choices=("text", "markdown", "json"),
                       default="text")
    p_rep.set_defaults(func=_cmd_report)

    p_prof = sub.add_parser("profile",
                            help="cProfile one benchmark, attribute phases; "
                            "--timeline adds the full flight recorder")
    p_prof.add_argument("--bench", default="single_host_speed")
    p_prof.add_argument("--suite", default="smoke")
    p_prof.add_argument("--top", type=int, default=15)
    p_prof.add_argument("--timeline", default=None, metavar="PATH",
                        help="also sample the trial and write its span tree "
                        "+ sampler ticks as Chrome trace-event JSON")
    p_prof.add_argument("--interval", type=float, default=2.0,
                        help="sampler interval in ms (with --timeline; "
                        "default 2)")
    p_prof.add_argument("--format", choices=("text", "json"), default="text")
    p_prof.set_defaults(func=_cmd_profile)

    p_hist = sub.add_parser(
        "history",
        help="bench trajectory across commits (ingest / table / plot)")
    hist_sub = p_hist.add_subparsers(dest="history_command", required=True)

    def _hist_common(p):
        p.add_argument("--history", default=str(DEFAULT_HISTORY_PATH),
                       help=f"history file (default {DEFAULT_HISTORY_PATH})")

    p_ing = hist_sub.add_parser(
        "ingest", help="append BENCH_*.json artifacts to the history")
    p_ing.add_argument("artifacts", nargs="+",
                       help="artifact files to ingest")
    p_ing.add_argument("--force", action="store_true",
                       help="append even if the (env, revision, suite, "
                       "label) key already exists")
    p_ing.add_argument("--notes", default=None,
                       help="free-text provenance attached to the ingested "
                       "row(s), overriding any notes in the artifact")
    _hist_common(p_ing)
    p_ing.set_defaults(func=_cmd_history)

    p_tab = hist_sub.add_parser(
        "table", help="render the per-suite trajectory table")
    p_tab.add_argument("--suite", default=None,
                       help="restrict to one suite")
    p_tab.add_argument("--env", default=None,
                       help="restrict to one environment fingerprint key")
    p_tab.add_argument("--format", choices=("text", "markdown"),
                       default="text")
    _hist_common(p_tab)
    p_tab.set_defaults(func=_cmd_history)

    p_plot = hist_sub.add_parser(
        "plot", help="terminal sparklines of median wall time per ingest")
    p_plot.add_argument("--suite", default=None)
    p_plot.add_argument("--env", default=None)
    p_plot.add_argument("--bench", action="append",
                        help="restrict to this benchmark (repeatable)")
    p_plot.add_argument("--width", type=int, default=48)
    _hist_common(p_plot)
    p_plot.set_defaults(func=_cmd_history)

    p_prune = hist_sub.add_parser(
        "prune", help="drop retired environments / trim old rows")
    p_prune.add_argument("--drop-env", action="append", metavar="KEY",
                         help="drop every row of this environment "
                         "fingerprint key (repeatable)")
    p_prune.add_argument("--keep-env", action="append", metavar="KEY",
                         help="keep only rows of these environment keys "
                         "(repeatable; mutually exclusive with --drop-env)")
    p_prune.add_argument("--keep-last", type=int, default=None, metavar="N",
                         help="keep only the newest N rows per "
                         "(env, suite, label) series")
    p_prune.add_argument("--dry-run", action="store_true",
                         help="report what would be dropped without writing")
    _hist_common(p_prune)
    p_prune.set_defaults(func=_cmd_history)

    p_list = sub.add_parser("list", help="list registered benchmarks")
    p_list.add_argument("--format", choices=("text", "json"), default="text")
    p_list.set_defaults(func=_cmd_list)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ArtifactError, HistoryError, CalibrationError, SignatureError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # stdout closed early (e.g. piped through ``head``); not an error
        sys.stderr.close()
        return 0
