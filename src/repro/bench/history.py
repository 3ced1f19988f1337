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
from typing import Any, Callable, Iterable

try:  # POSIX; on platforms without it ingest degrades to lockless
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None  # type: ignore[assignment]

from ..io.tables import format_table, markdown_table
from ..schema import Column, Section, check
from ..telemetry import BUCKETS, HEADLINE
from .artifact import validate_artifact

#: Bump on breaking row-layout changes.
HISTORY_SCHEMA = "repro.bench.history/1"

#: Where CI and the CLI keep the trajectory by default.
DEFAULT_HISTORY_PATH = Path("benchmarks") / "history.jsonl"

REGRESSED = "REGRESSED"
IMPROVED = "IMPROVED"
DRIFT = "DRIFT"

#: Relative threshold on the median wall time.  Wide on purpose: the
#: flag is for algorithmic regressions (2x and worse), and sustained
#: background load on a shared runner routinely shifts whole runs by
#: 30-40%.  Tighten with ``compare --threshold`` on quiet hosts.
DEFAULT_REL_THRESHOLD = 0.5

#: The median's noise floor is this many relative IQRs wide.
IQR_FACTOR = 3.0

#: Relative change of ``model_over_measured`` between a point and its
#: predecessor that counts as model drift.  Wall-clock medians scatter
#: ~30% on shared runners and the ratio inherits that scatter, so the
#: flag is deliberately wide; the virtual-clock benchmarks
#: (deterministic measured side) can be held much tighter with
#: ``compare --drift-threshold``.
DEFAULT_DRIFT_THRESHOLD = 0.5

#: Drift threshold ``compare`` applies instead when the current
#: artifact's environment has a ledger-fed calibration entry
#: (:mod:`repro.perfmodel.calibrate`): on a machine the model was
#: actually fitted to, the ratio is expected stable to 10%.
CALIBRATED_DRIFT_THRESHOLD = 0.1

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


# -- columns ----------------------------------------------------------------


def model_ratio(entry: dict[str, Any]) -> float | None:
    """A benchmark entry's ``model_over_measured`` (the analytic eq. 10
    model's prediction over the measured median), if it publishes one."""
    value = (entry.get("derived") or {}).get("model_over_measured")
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    return float(value)


#: The artifact-level columns, read from a benchmark entry itself; the
#: observatory sections (``repro.telemetry.HEADLINE``) are read from the
#: entry's summary documents.  Together they are everything a history
#: row keeps of a benchmark.
BENCH = Section(None, columns=(
    Column("median_s", read=("stats", "wall_s", "median"), history=True),
    Column("iqr_s", read=("stats", "wall_s", "iqr"), history=True),
    Column("n", read=("stats", "wall_s", "n"), history=True),
    Column("model_over_measured", "{:.3g}", model_ratio, history=True),
))
SECTIONS = (BENCH, *HEADLINE.values())

#: Every column a history row keeps, by name.
COLUMNS = {c.name: c for s in SECTIONS for c in s.columns if c.history}


def entry_bench(entry: dict[str, Any]) -> dict[str, Any]:
    """Distil one benchmark entry into its history-row object: the
    artifact-level columns flat, each observatory section that read
    anything as a nested object."""
    bench: dict[str, Any] = {}
    for s in SECTIONS:
        doc = entry.get(s.name) if s.name else entry
        bench.update(s.project("history", s.read(doc)))
    return bench


def bench_values(bench: dict[str, Any]) -> dict[str, Any]:
    """Column values, by column name, out of one history-row object."""
    values: dict[str, Any] = {}
    for s in SECTIONS:
        values.update(s.collect("history", bench))
    return {k: v for k, v in values.items() if v is not None}


def artifact_row(artifact: dict[str, Any]) -> dict[str, Any]:
    """Distil one validated artifact into one history row."""
    validate_artifact(artifact, source="history ingest")
    env = artifact["environment"]
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
        "benchmarks": {
            entry["name"]: entry_bench(entry)
            for entry in artifact["benchmarks"]
        },
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
    label-stable regime fingerprint a history row keeps of a signature
    summary); 0.0 means identical share distributions, 1.0 means
    disjoint bucket sets.
    """
    p_total = sum(prev.values()) or 1
    c_total = sum(current.values()) or 1
    return 0.5 * sum(
        abs(prev.get(r, 0) / p_total - current.get(r, 0) / c_total)
        for r in set(prev) | set(current)
    )


def noise_band(
    prev: dict[str, Any], cur: dict[str, Any], threshold: float
) -> float:
    """The median rule's band: a change only counts when it clears both
    the relative threshold *and* the run-to-run scatter of the
    measurement itself (the IQRs of both sides)."""
    noise = IQR_FACTOR * max(
        v.get("iqr_s", 0.0) / v["median_s"] for v in (prev, cur))
    return max(threshold, noise)


@dataclass(frozen=True)
class Rule:
    """One delta rule: how a column's value is compared with its
    predecessor's, and the flag a change beyond the threshold raises.

    Without ``change`` the rule is a symmetric ratio band: the delta is
    ``current / previous - 1`` and the flag is ``up`` above
    ``1 + band``, ``down`` below ``1 / (1 + band)``.  With it the delta
    is ``change(previous, current)`` and ``up`` flags it above the
    threshold (one-sided: the good direction is not an alert).
    """

    column: str
    threshold: float
    up: str
    down: str | None = None
    change: Callable[[Any, Any], float] | None = None
    band: Callable[[dict[str, Any], dict[str, Any], float], float] | None = None
    #: Holds across machines too (``compare`` against a foreign
    #: baseline); every other rule needs one environment fingerprint.
    any_env: bool = False


#: Every flag of the trajectory table and the regression gate, each
#: threshold stated once.
RULES = (
    Rule("median_s", DEFAULT_REL_THRESHOLD, REGRESSED, IMPROVED,
         band=noise_band, any_env=True),
    Rule("model_over_measured", DEFAULT_DRIFT_THRESHOLD, DRIFT, DRIFT),
    # total-variation distance between consecutive regime mixes (the
    # share of blocksteps each regime claims): 0.25 means a quarter of
    # the run's blocksteps moved to a different regime — the workload
    # changed character, not just speed
    Rule("mix", 0.25, "SHIFT", change=regime_mix_shift),
    # absolute drop of fraction-of-peak: the run got a tenth of the
    # machine *less* efficient — real Tflops regressed even if wall
    # medians look fine
    Rule("fraction_of_peak", 0.10, "EFF", change=lambda prev, cur: prev - cur),
    # absolute jump of the real-skew fraction (total real straggler skew
    # over total dispatch span, from the rank observatory): the real
    # machine's load balance got materially worse since the previous
    # ingest even if the virtual model says nothing changed
    Rule("skew_fraction", 0.15, "SKEW", change=lambda prev, cur: cur - prev),
)


def judge(
    prev: dict[str, Any],
    cur: dict[str, Any],
    thresholds: dict[str, float | None] | None = None,
) -> tuple[dict[str, float], tuple[str, ...]]:
    """Run every rule over one (predecessor, current) pair of column
    values; returns ``(deltas, flags)`` keyed / ordered as :data:`RULES`.

    A rule whose column is absent on either side (or not positive, for
    a ratio) yields neither.  ``thresholds`` overrides a rule's
    threshold by column; ``None`` there switches the rule off.
    """
    deltas: dict[str, float] = {}
    flags: list[str] = []
    for rule in RULES:
        threshold = (thresholds or {}).get(rule.column, rule.threshold)
        p, c = prev.get(rule.column), cur.get(rule.column)
        if threshold is None or p is None or c is None:
            continue
        if rule.change is not None:
            delta = rule.change(p, c)
            flag = rule.up if delta > threshold else None
        elif p > 0.0 and c > 0.0:
            band = rule.band(prev, cur, threshold) if rule.band else threshold
            ratio = c / p
            delta = ratio - 1.0
            flag = (rule.up if ratio > 1.0 + band
                    else rule.down if ratio < 1.0 / (1.0 + band) else None)
        else:
            continue
        deltas[rule.column] = delta
        if flag:
            flags.append(flag)
    return deltas, tuple(flags)


@dataclass(frozen=True)
class TrajectoryPoint:
    """One benchmark's state in one history row: its column values, the
    deltas against its predecessor on the same machine, and the flags
    those deltas raised (see :data:`RULES`)."""

    benchmark: str
    suite: str
    env_key: str
    git_revision: str | None
    tag: str | None
    seed: Any
    values: dict[str, Any]
    deltas: dict[str, float]
    flags: tuple[str, ...]


def trajectory(
    rows: Iterable[dict[str, Any]],
    suite: str | None = None,
    env: str | None = None,
) -> dict[str, list[TrajectoryPoint]]:
    """Per-benchmark point series (ingest order) with deltas.

    Deltas compare consecutive points of the *same* benchmark on the
    *same* environment fingerprint, so a machine change starts a fresh
    baseline instead of reading as a regression.  The predecessor of a
    column is the last row that carried it.
    """
    series: dict[str, list[TrajectoryPoint]] = {}
    last: dict[tuple[str, str], dict[str, Any]] = {}
    for row in rows:
        if suite is not None and row.get("suite") != suite:
            continue
        if env is not None and row.get("env_key") != env:
            continue
        for name, bench in sorted(row.get("benchmarks", {}).items()):
            values = bench_values(bench)
            prev = last.setdefault((row.get("env_key", ""), name), {})
            deltas, flags = judge(prev, values)
            series.setdefault(name, []).append(TrajectoryPoint(
                name, row.get("suite", "?"), row.get("env_key", ""),
                row.get("git_revision"), row.get("tag"), row.get("seed"),
                values, deltas, flags,
            ))
            prev.update(values)
    return series


def _sha(rev: str | None) -> str:
    return (rev or "-")[:10]


#: Trajectory-table header -> the column shown under it.
_TRAJ_COLUMNS = {"model/meas": "model_over_measured", "regimes": "n_regimes",
                 "dom": "dominant_share", "eff": "fraction_of_peak",
                 "skew": "skew_fraction"}

_TRAJ_HEADERS = ("benchmark", "#", "revision", "tag", "median [ms]",
                 "delta", *_TRAJ_COLUMNS, "flags")


def _traj_rows(series: dict[str, list[TrajectoryPoint]]) -> list[tuple]:
    rows: list[tuple] = []
    for name in sorted(series):
        for i, pt in enumerate(series[name]):
            delta = pt.deltas.get("median_s")
            rows.append(
                (
                    name if i == 0 else "",
                    i + 1,
                    _sha(pt.git_revision),
                    pt.tag or "-",
                    pt.values["median_s"] * 1.0e3,
                    "-" if delta is None else f"{delta:+.1%}",
                    *(COLUMNS[c].show(pt.values.get(c))
                      for c in _TRAJ_COLUMNS.values()),
                    " ".join(pt.flags),
                )
            )
    return rows


def _eff_rows(series: dict[str, list[TrajectoryPoint]]) -> list[tuple]:
    """Efficiency-observatory block: the per-bucket loss fractions of
    each point that carried a flops waterfall (one column per bucket)."""
    show = COLUMNS["fraction_of_peak"].show
    rows: list[tuple] = []
    for name in sorted(series):
        points = [p for p in series[name] if "buckets" in p.values]
        for i, pt in enumerate(points):
            rows.append(
                (
                    name if i == 0 else "",
                    i + 1,
                    _sha(pt.git_revision),
                    show(pt.values.get("fraction_of_peak")),
                    *(show(pt.values["buckets"].get(b, 0.0)) for b in BUCKETS),
                )
            )
    return rows


_EFF_HEADERS = ("benchmark", "#", "revision", "eff", *BUCKETS)


def render_history_table(
    rows: Iterable[dict[str, Any]],
    fmt: str = "text",
    suite: str | None = None,
    env: str | None = None,
) -> str:
    """The per-suite trajectory table (text or markdown).

    One block per suite present in the history; each benchmark's points
    appear in ingest order with the delta against its previous
    measurement on the same machine, the headline columns of whichever
    observatory sections its artifacts carried, and the flags its
    deltas raised (:data:`RULES`).  The paper's Table 1 presentation
    for this repo's own tuning arc.
    """
    rows = list(rows)
    suites = [suite] if suite is not None else sorted(
        {r.get("suite", "?") for r in rows}
    )
    if fmt == "markdown":
        table = markdown_table
        titles = ("### Trajectory — suite `{}` ({} points)",
                  "#### Efficiency buckets — suite `{}`")
    else:
        table = format_table
        titles = ("# trajectory — suite {!r} ({} points)",
                  "## efficiency buckets — suite {!r}")
    blocks: list[str] = []
    for s in suites:
        series = trajectory(rows, suite=s, env=env)
        if not series:
            continue
        n_points = sum(len(v) for v in series.values())
        block = [titles[0].format(s, n_points), "",
                 table(_TRAJ_HEADERS, _traj_rows(series))]
        eff_rows = _eff_rows(series)
        if eff_rows:
            block += ["", titles[1].format(s), "",
                      table(_EFF_HEADERS, eff_rows)]
        blocks.append("\n".join(block))
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
        medians = [p.values["median_s"] * 1.0e3 for p in points]
        # regime columns only where artifacts carried phase signatures
        counts = [p.values["n_regimes"] for p in points
                  if "n_regimes" in p.values]
        shares = [p.values["dominant_share"] for p in points
                  if "dominant_share" in p.values]
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
