"""Append-only bench history: the repo's own "33.4 -> 35.3" trajectory.

Section 6 of the paper is a *history*: the same sweep re-measured
across tuning iterations, presented as sustained speed per revision
(the 33.4 -> 35.3 Tflops arc).  One ``BENCH_*.json`` artifact is a
point; this module persists those points across commits into
``benchmarks/history.jsonl`` and renders the trajectory — per
benchmark, the median wall time over time, the delta against the
previous measurement, and whether the analytic perfmodel's
model-over-measured ratio drifted (a drift means the model or the code
changed character, not just speed).

Rows are keyed by environment fingerprint + git revision so
measurements from different machines never get compared as if they
were a code change: the trajectory renderers group by environment, and
the drift check in :mod:`repro.bench.compare` only fires when both
artifacts come from the same fingerprint.

The file is JSONL and append-only — ingesting the same artifact twice
is a no-op (idempotent CI), and unknown row schemas raise rather than
silently skewing the table.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable

try:  # POSIX; on platforms without it ingest degrades to lockless
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None  # type: ignore[assignment]

from ..io.tables import format_table
from ..schema import check
from ..telemetry import BUCKETS
from .artifact import validate_artifact

#: Bump on breaking row-layout changes.
HISTORY_SCHEMA = "repro.bench.history/1"

#: Where CI and the CLI keep the trajectory by default.
DEFAULT_HISTORY_PATH = Path("benchmarks") / "history.jsonl"

#: Relative change of ``model_over_measured`` between consecutive rows
#: (or artifact pairs) that counts as model drift.  Wall-clock medians
#: on shared runners scatter ~30%, so the flag is deliberately wider.
DEFAULT_DRIFT_THRESHOLD = 0.5

#: Total-variation distance between consecutive regime mixes (the
#: share of blocksteps each regime claims) that counts as a regime-mix
#: shift.  0.25 means a quarter of the run's blocksteps moved to a
#: different regime — the workload changed character, not just speed.
DEFAULT_SHIFT_THRESHOLD = 0.25

#: Absolute drop of fraction-of-peak between consecutive rows that
#: raises the EFF flag: the run got a tenth of the machine *less*
#: efficient — real Tflops regressed even if wall medians look fine.
DEFAULT_EFF_DROP_THRESHOLD = 0.10

#: Absolute jump of the real-skew fraction (total real straggler skew
#: over total dispatch span, from the rank observatory) between
#: consecutive rows that raises the SKEW flag: the real machine's
#: load balance got materially worse since the previous ingest even if
#: the virtual model says nothing changed.
DEFAULT_SKEW_JUMP_THRESHOLD = 0.15

#: Environment-fingerprint fields that define "the same machine".  The
#: kernel tier is one: the tiers agree bit for bit but not in speed, so
#: medians from either side of a tier change are not one series.
_ENV_KEY_FIELDS = ("python", "implementation", "platform", "machine",
                   "cpu_count", "numpy", "kernel_tier")


class HistoryError(ValueError):
    """Raised for unreadable history files and unknown row schemas."""


def env_key(environment: dict[str, Any]) -> str:
    """Short stable hash of the fingerprint fields that identify a
    machine (excludes the git revision: same box, any commit)."""
    basis = json.dumps(
        {k: environment.get(k) for k in _ENV_KEY_FIELDS}, sort_keys=True
    )
    return hashlib.sha256(basis.encode()).hexdigest()[:12]


def artifact_row(artifact: dict[str, Any]) -> dict[str, Any]:
    """Distil one validated artifact into one history row."""
    validate_artifact(artifact, source="history ingest")
    env = artifact["environment"]
    benchmarks: dict[str, dict[str, Any]] = {}
    for entry in artifact["benchmarks"]:
        stats = entry["stats"]["wall_s"]
        bench: dict[str, Any] = {
            "median_s": float(stats["median"]),
            "iqr_s": float(stats.get("iqr", 0.0)),
            "n": int(stats.get("n", 0)),
        }
        ratio = entry.get("derived", {}).get("model_over_measured")
        if isinstance(ratio, (int, float)) and not isinstance(ratio, bool):
            bench["model_over_measured"] = float(ratio)
        signatures = entry.get("signatures")
        if isinstance(signatures, dict) and signatures.get("regimes"):
            # phase-observatory distillation: enough to render the
            # per-regime columns and compare the mix across ingests.
            # The mix is keyed by the regime's log2 block-size bucket,
            # not its id — ids are assigned in discovery order, so a
            # reordered schedule would relabel identical regimes and
            # read as a spurious shift.
            mix: dict[str, int] = {}
            for reg in signatures["regimes"]:
                mean = float(reg.get("mean_block_size", 0.0))
                bucket = int(mean).bit_length() - 1 if mean >= 1.0 else -1
                key = f"b{bucket}"
                mix[key] = mix.get(key, 0) + int(reg["count"])
            bench["regimes"] = {
                "n": int(signatures.get("n_regimes",
                                        len(signatures["regimes"]))),
                "dominant": signatures.get("dominant_regime"),
                "dominant_share": float(signatures.get("dominant_share", 0.0)),
                "mix": mix,
            }
        efficiency = entry.get("efficiency")
        if isinstance(efficiency, dict) and "fraction_of_peak" in efficiency:
            # efficiency-observatory distillation: the achieved fraction
            # of peak and the per-bucket loss fractions (of peak), so
            # the trajectory can show where the flops went per ingest
            bench["efficiency"] = {
                "fraction_of_peak": float(efficiency["fraction_of_peak"]),
                "real_gflops": float(efficiency.get("real_gflops", 0.0)),
                "buckets": {
                    b: float((efficiency.get("buckets") or {})
                             .get(b, {}).get("fraction", 0.0))
                    for b in BUCKETS
                },
            }
        rank = entry.get("rank")
        if isinstance(rank, dict) and "real_skew_us" in rank:
            # rank-observatory distillation: enough to render the
            # real-execution columns and flag skew jumps across ingests.
            # The fraction normalises total straggler skew by the total
            # dispatch span so runs of different lengths compare.
            skew = rank.get("real_skew_us") or {}
            span = float(rank.get("span_wall_us", 0.0))
            distilled: dict[str, Any] = {
                "real_skew_us_mean": float(skew.get("mean", 0.0)),
                "skew_fraction": (
                    float(skew.get("total", 0.0)) / span if span > 0 else 0.0
                ),
                "utilisation": float(rank.get("utilisation", 0.0)),
                "publish_bytes_per_step": float(
                    rank.get("publish_bytes_per_step", 0.0)
                ),
            }
            placement = rank.get("placement")
            if isinstance(placement, dict):
                distilled["placement_gap_us_mean"] = float(
                    (placement.get("gap_us") or {}).get("mean", 0.0)
                )
            bench["rank"] = distilled
        benchmarks[entry["name"]] = bench
    row = {
        "schema": HISTORY_SCHEMA,
        "label": artifact["label"],
        "suite": artifact["suite"],
        "created_unix": artifact.get("created_unix"),
        "ingested_unix": time.time(),
        "git_revision": env.get("git_revision"),
        "env_key": env_key(env),
        "seed": artifact.get("seed"),
        "tag": artifact.get("tag"),
        "benchmarks": benchmarks,
    }
    notes = artifact.get("notes")
    if notes is not None:
        row["notes"] = str(notes)
    return row


def _row_key(row: dict[str, Any]) -> tuple:
    """Idempotence key: one (machine, commit, suite, label) is one row.

    Artifacts without a git revision (source tarballs) fall back to the
    artifact creation time so repeated ingests still dedupe."""
    return (
        row.get("env_key"),
        row.get("git_revision") or row.get("created_unix"),
        row.get("suite"),
        row.get("label"),
    )


def read_history(path: str | Path) -> list[dict[str, Any]]:
    """All rows, file order (which is ingest order).  Missing file is
    an empty history; malformed lines and foreign schemas raise."""
    path = Path(path)
    if not path.exists():
        return []
    rows: list[dict[str, Any]] = []
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        if not line.strip():
            continue
        try:
            row = json.loads(line)
        except json.JSONDecodeError as exc:
            raise HistoryError(f"{path}:{lineno}: not valid JSON: {exc}") from exc
        rows.append(check(row, {"what": "row", "schema": HISTORY_SCHEMA},
                          f"{path}:{lineno}", HistoryError))
    return rows


@contextmanager
def _history_lock(path: Path):
    """Advisory exclusive lock serialising read-check-append cycles.

    The lock lives in a sibling ``.lock`` file so readers of the
    history itself never contend; on platforms without ``fcntl`` the
    lock degrades to nothing (appends are still atomic, only the
    cross-process dedupe check races)."""
    if fcntl is None:  # pragma: no cover - non-POSIX fallback
        yield
        return
    lock_path = path.with_suffix(path.suffix + ".lock")
    lock_path.parent.mkdir(parents=True, exist_ok=True)
    fd = os.open(lock_path, os.O_CREAT | os.O_RDWR, 0o644)
    try:
        fcntl.flock(fd, fcntl.LOCK_EX)
        yield
    finally:
        fcntl.flock(fd, fcntl.LOCK_UN)
        os.close(fd)


def _append_row(path: Path, row: dict[str, Any]) -> None:
    """One ``O_APPEND`` write per record: concurrent appenders may
    interleave *rows* but never *bytes within a row*, so the file stays
    line-parseable under any write race."""
    line = (json.dumps(row, sort_keys=True) + "\n").encode()
    path.parent.mkdir(parents=True, exist_ok=True)
    fd = os.open(path, os.O_APPEND | os.O_CREAT | os.O_WRONLY, 0o644)
    try:
        os.write(fd, line)
    finally:
        os.close(fd)


def ingest_artifact(
    artifact: dict[str, Any],
    path: str | Path,
    force: bool = False,
    notes: str | None = None,
) -> tuple[dict[str, Any], bool]:
    """Append ``artifact``'s row to the history file.

    Returns ``(row, appended)``; ``appended`` is False when a row with
    the same (machine, commit, suite, label) key already exists and
    ``force`` is not set — re-running CI on the same commit must not
    duplicate points.  The read-check-append cycle holds an advisory
    file lock and the append is a single ``O_APPEND`` write, so
    concurrent writers (CI jobs, service consumers) neither interleave
    bytes nor double-ingest.  ``notes`` annotates the row (overriding
    any notes already in the artifact) — quiet-runner provenance such
    as "dedicated box, pinned governor".
    """
    row = artifact_row(artifact)
    if notes is not None:
        row["notes"] = str(notes)
    path = Path(path)
    with _history_lock(path):
        existing = read_history(path)
        if not force and any(_row_key(r) == _row_key(row) for r in existing):
            return row, False
        _append_row(path, row)
    return row, True


def prune_history(
    path: str | Path,
    drop_envs: Iterable[str] = (),
    keep_envs: Iterable[str] = (),
    keep_last: int | None = None,
    dry_run: bool = False,
) -> tuple[int, int]:
    """Drop retired rows from the history file (ROADMAP ask).

    ``drop_envs`` removes every row whose ``env_key`` is listed
    (retired machines); ``keep_envs`` instead removes every row whose
    ``env_key`` is *not* listed (keep-only form; mutually exclusive
    with ``drop_envs``).  ``keep_last`` then trims each
    (env, suite, label, benchmark-set) series to its newest N rows, so
    a long-lived machine's trajectory stays bounded.  The file is
    rewritten atomically; ``dry_run`` computes without writing.

    Returns ``(kept, dropped)`` row counts.
    """
    drop = set(drop_envs)
    keep = set(keep_envs)
    if drop and keep:
        raise HistoryError("pass either drop_envs or keep_envs, not both")
    if keep_last is not None and keep_last < 1:
        raise HistoryError("keep_last must be at least 1")
    rows = read_history(path)
    survivors = [
        r for r in rows
        if r.get("env_key") not in drop
        and (not keep or r.get("env_key") in keep)
    ]
    if keep_last is not None:
        # newest-N per (env, suite, label): file order is ingest order
        by_series: dict[tuple, list[int]] = {}
        for i, row in enumerate(survivors):
            series = (row.get("env_key"), row.get("suite"), row.get("label"))
            by_series.setdefault(series, []).append(i)
        wanted = {
            i for indices in by_series.values() for i in indices[-keep_last:]
        }
        survivors = [r for i, r in enumerate(survivors) if i in wanted]
    kept, dropped = len(survivors), len(rows) - len(survivors)
    if not dry_run and dropped:
        path = Path(path)
        tmp = path.with_suffix(path.suffix + ".tmp")
        tmp.write_text(
            "".join(json.dumps(r, sort_keys=True) + "\n" for r in survivors)
        )
        tmp.replace(path)
    return kept, dropped


# -- trajectory -------------------------------------------------------------


def regime_mix_shift(
    prev: dict[str, int], current: dict[str, int]
) -> float:
    """Total-variation distance between two regime mixes in [0, 1].

    Mixes are blockstep counts per log2 block-size bucket (the
    label-stable regime fingerprint :func:`artifact_row` distils from
    a signature summary); 0.0 means identical share distributions, 1.0
    means disjoint bucket sets.
    """
    p_total = sum(prev.values()) or 1
    c_total = sum(current.values()) or 1
    return 0.5 * sum(
        abs(prev.get(r, 0) / p_total - current.get(r, 0) / c_total)
        for r in set(prev) | set(current)
    )


@dataclass(frozen=True)
class TrajectoryPoint:
    """One benchmark's state in one history row, with deltas."""

    benchmark: str
    suite: str
    env_key: str
    git_revision: str | None
    tag: str | None
    seed: Any
    median_s: float
    iqr_s: float
    delta: float | None           # (median / previous median) - 1
    model_over_measured: float | None
    model_drift: float | None     # (ratio / previous ratio) - 1
    regime_count: int | None = None
    dominant_share: float | None = None
    regime_shift: float | None = None   # TV distance vs previous mix
    fraction_of_peak: float | None = None
    bucket_fractions: dict[str, float] | None = None
    eff_drop: float | None = None       # previous frac - current frac
    skew_fraction: float | None = None  # total real skew / total span
    rank_utilisation: float | None = None
    skew_jump: float | None = None      # current fraction - previous

    def drifted(self, threshold: float = DEFAULT_DRIFT_THRESHOLD) -> bool:
        return self.model_drift is not None and abs(self.model_drift) > threshold

    def shifted(self, threshold: float = DEFAULT_SHIFT_THRESHOLD) -> bool:
        return self.regime_shift is not None and self.regime_shift > threshold

    def eff_dropped(self, threshold: float = DEFAULT_EFF_DROP_THRESHOLD) -> bool:
        return self.eff_drop is not None and self.eff_drop > threshold

    def skewed(self, threshold: float = DEFAULT_SKEW_JUMP_THRESHOLD) -> bool:
        return self.skew_jump is not None and self.skew_jump > threshold


def trajectory(
    rows: Iterable[dict[str, Any]],
    suite: str | None = None,
    env: str | None = None,
) -> dict[str, list[TrajectoryPoint]]:
    """Per-benchmark point series (ingest order) with deltas.

    Deltas compare consecutive points of the *same* benchmark on the
    *same* environment fingerprint, so a machine change starts a fresh
    baseline instead of reading as a regression.
    """
    series: dict[str, list[TrajectoryPoint]] = {}
    last_median: dict[tuple[str, str], float] = {}
    last_ratio: dict[tuple[str, str], float] = {}
    last_mix: dict[tuple[str, str], dict[str, int]] = {}
    last_frac: dict[tuple[str, str], float] = {}
    last_skew: dict[tuple[str, str], float] = {}
    for row in rows:
        if suite is not None and row.get("suite") != suite:
            continue
        if env is not None and row.get("env_key") != env:
            continue
        for name, bench in sorted(row.get("benchmarks", {}).items()):
            key = (row.get("env_key", ""), name)
            median = float(bench["median_s"])
            prev = last_median.get(key)
            delta = (median / prev - 1.0) if prev and prev > 0 else None
            ratio = bench.get("model_over_measured")
            prev_ratio = last_ratio.get(key)
            drift = None
            if ratio is not None and prev_ratio:
                drift = ratio / prev_ratio - 1.0
            regimes = bench.get("regimes") or {}
            mix = regimes.get("mix") or None
            prev_mix = last_mix.get(key)
            shift = None
            if mix and prev_mix:
                shift = regime_mix_shift(prev_mix, mix)
            efficiency = bench.get("efficiency") or {}
            frac = efficiency.get("fraction_of_peak")
            prev_frac = last_frac.get(key)
            eff_drop = None
            if frac is not None and prev_frac is not None:
                eff_drop = prev_frac - float(frac)
            rank = bench.get("rank") or {}
            skew_fraction = rank.get("skew_fraction")
            prev_skew = last_skew.get(key)
            skew_jump = None
            if skew_fraction is not None and prev_skew is not None:
                skew_jump = float(skew_fraction) - prev_skew
            series.setdefault(name, []).append(
                TrajectoryPoint(
                    benchmark=name,
                    suite=row.get("suite", "?"),
                    env_key=row.get("env_key", ""),
                    git_revision=row.get("git_revision"),
                    tag=row.get("tag"),
                    seed=row.get("seed"),
                    median_s=median,
                    iqr_s=float(bench.get("iqr_s", 0.0)),
                    delta=delta,
                    model_over_measured=ratio,
                    model_drift=drift,
                    regime_count=(
                        int(regimes["n"]) if "n" in regimes else None
                    ),
                    dominant_share=regimes.get("dominant_share"),
                    regime_shift=shift,
                    fraction_of_peak=(
                        float(frac) if frac is not None else None
                    ),
                    bucket_fractions=efficiency.get("buckets") or None,
                    eff_drop=eff_drop,
                    skew_fraction=(
                        float(skew_fraction)
                        if skew_fraction is not None else None
                    ),
                    rank_utilisation=rank.get("utilisation"),
                    skew_jump=skew_jump,
                )
            )
            last_median[key] = median
            if ratio is not None:
                last_ratio[key] = ratio
            if mix:
                last_mix[key] = mix
            if frac is not None:
                last_frac[key] = float(frac)
            if skew_fraction is not None:
                last_skew[key] = float(skew_fraction)
    return series


def _sha(rev: str | None) -> str:
    return (rev or "-")[:10]


def _traj_rows(
    series: dict[str, list[TrajectoryPoint]],
    drift_threshold: float,
    shift_threshold: float = DEFAULT_SHIFT_THRESHOLD,
    eff_threshold: float = DEFAULT_EFF_DROP_THRESHOLD,
    skew_threshold: float = DEFAULT_SKEW_JUMP_THRESHOLD,
) -> list[tuple]:
    rows: list[tuple] = []
    for name in sorted(series):
        for i, pt in enumerate(series[name]):
            flags = []
            if pt.drifted(drift_threshold):
                flags.append("DRIFT")
            if pt.shifted(shift_threshold):
                flags.append("SHIFT")
            if pt.eff_dropped(eff_threshold):
                flags.append("EFF")
            if pt.skewed(skew_threshold):
                flags.append("SKEW")
            rows.append(
                (
                    name if i == 0 else "",
                    i + 1,
                    _sha(pt.git_revision),
                    pt.tag or "-",
                    pt.median_s * 1.0e3,
                    f"{pt.delta * 100.0:+.1f}%" if pt.delta is not None else "-",
                    f"{pt.model_over_measured:.3g}"
                    if pt.model_over_measured is not None
                    else "-",
                    str(pt.regime_count)
                    if pt.regime_count is not None
                    else "-",
                    f"{pt.dominant_share * 100.0:.0f}%"
                    if pt.dominant_share is not None
                    else "-",
                    f"{pt.fraction_of_peak:.2%}"
                    if pt.fraction_of_peak is not None
                    else "-",
                    f"{pt.skew_fraction:.1%}"
                    if pt.skew_fraction is not None
                    else "-",
                    " ".join(flags),
                )
            )
    return rows


_TRAJ_HEADERS = ("benchmark", "#", "revision", "tag", "median [ms]",
                 "delta", "model/meas", "regimes", "dom", "eff", "skew",
                 "flags")


def _eff_rows(series: dict[str, list[TrajectoryPoint]]) -> list[tuple]:
    """Efficiency-observatory block: the per-bucket loss fractions of
    each point that carried a flops waterfall (one column per bucket)."""
    rows: list[tuple] = []
    for name in sorted(series):
        points = [p for p in series[name] if p.bucket_fractions is not None]
        for i, pt in enumerate(points):
            buckets = pt.bucket_fractions or {}
            rows.append(
                (
                    name if i == 0 else "",
                    i + 1,
                    _sha(pt.git_revision),
                    f"{pt.fraction_of_peak:.2%}"
                    if pt.fraction_of_peak is not None
                    else "-",
                    *(f"{buckets.get(b, 0.0):.2%}" for b in BUCKETS),
                )
            )
    return rows


_EFF_HEADERS = ("benchmark", "#", "revision", "eff", *BUCKETS)


def render_history_table(
    rows: Iterable[dict[str, Any]],
    fmt: str = "text",
    suite: str | None = None,
    env: str | None = None,
    drift_threshold: float = DEFAULT_DRIFT_THRESHOLD,
    shift_threshold: float = DEFAULT_SHIFT_THRESHOLD,
) -> str:
    """The per-suite trajectory table (text or markdown).

    One block per suite present in the history; each benchmark's points
    appear in ingest order with the delta against its previous
    measurement on the same machine, the model-vs-measured DRIFT flag,
    and — where artifacts carried phase signatures — the regime count,
    dominant-regime share, and a SHIFT flag when the regime mix moved
    by more than ``shift_threshold`` (total variation) since the
    previous ingest.  The paper's Table 1 presentation for this repo's
    own tuning arc.
    """
    rows = list(rows)
    suites = [suite] if suite is not None else sorted(
        {r.get("suite", "?") for r in rows}
    )
    blocks: list[str] = []
    for s in suites:
        series = trajectory(rows, suite=s, env=env)
        if not series:
            continue
        table_rows = _traj_rows(series, drift_threshold, shift_threshold)
        eff_rows = _eff_rows(series)
        n_points = sum(len(v) for v in series.values())
        if fmt == "markdown":
            head = [f"### Trajectory — suite `{s}` ({n_points} points)", ""]
            md = ["| " + " | ".join(_TRAJ_HEADERS) + " |",
                  "|" + "|".join(" --- " for _ in _TRAJ_HEADERS) + "|"]
            for r in table_rows:
                cells = [f"{c:.4g}" if isinstance(c, float) else str(c) for c in r]
                md.append("| " + " | ".join(cells) + " |")
            if eff_rows:
                md += ["", f"#### Efficiency buckets — suite `{s}`", "",
                       "| " + " | ".join(_EFF_HEADERS) + " |",
                       "|" + "|".join(" --- " for _ in _EFF_HEADERS) + "|"]
                md += ["| " + " | ".join(str(c) for c in r) + " |"
                       for r in eff_rows]
            blocks.append("\n".join(head + md))
        else:
            block = (
                f"# trajectory — suite {s!r} ({n_points} points)\n\n"
                + format_table(_TRAJ_HEADERS, table_rows)
            )
            if eff_rows:
                block += (
                    f"\n\n## efficiency buckets — suite {s!r}\n\n"
                    + format_table(_EFF_HEADERS, eff_rows)
                )
            blocks.append(block)
    if not blocks:
        return "(history is empty)"
    return "\n\n".join(blocks)


_SPARK = "▁▂▃▄▅▆▇█"


def _sparkline(values: list[float], width: int) -> str:
    if not values:
        return ""
    if len(values) > width:
        # keep the newest points; the old tail is the least interesting
        values = values[-width:]
    lo, hi = min(values), max(values)
    if hi <= lo:
        return _SPARK[0] * len(values)
    scale = (len(_SPARK) - 1) / (hi - lo)
    return "".join(_SPARK[int((v - lo) * scale)] for v in values)


def render_history_plot(
    rows: Iterable[dict[str, Any]],
    suite: str | None = None,
    env: str | None = None,
    benchmarks: list[str] | None = None,
    width: int = 48,
) -> str:
    """Terminal sparkline per benchmark: median wall time over ingests."""
    series = trajectory(rows, suite=suite, env=env)
    if benchmarks:
        series = {k: v for k, v in series.items() if k in set(benchmarks)}
    if not series:
        return "(history is empty)"
    out_rows = []
    for name in sorted(series):
        points = series[name]
        medians = [p.median_s * 1.0e3 for p in points]
        # regime columns only where artifacts carried phase signatures
        counts = [p.regime_count for p in points if p.regime_count is not None]
        shares = [
            p.dominant_share for p in points if p.dominant_share is not None
        ]
        out_rows.append(
            (
                name,
                len(medians),
                f"{min(medians):.2f}..{max(medians):.2f}",
                _sparkline(medians, width),
                str(counts[-1]) if counts else "-",
                _sparkline([s * 100.0 for s in shares], width)
                if shares else "-",
            )
        )
    return format_table(
        ("benchmark", "points", "median range [ms]", "trend (old -> new)",
         "regimes", "dom share (old -> new)"),
        out_rows,
    )
