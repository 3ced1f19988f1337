"""Render artifacts, comparisons and profiles as paper-style tables.

The text renderer targets terminals and CI logs; the markdown renderer
targets PR summaries (``$GITHUB_STEP_SUMMARY``).  The per-benchmark
phase table is the fig. 14 presentation: the time budget of one
particle-step split into the eq. 10 terms, both as absolute time and
as a share, with microseconds-per-step where the benchmark integrated
actual particles.
"""

from __future__ import annotations

from typing import Any

from ..io.tables import format_table, markdown_table
from ..telemetry import BUCKETS, HEADLINE, PAPER_PHASE_NAMES, PHASES
from .compare import ComparisonResult
from .profiling import ProfileAttribution


def _phase_rows(entry: dict[str, Any]) -> list[tuple]:
    """fig. 14-style rows: phase, time, share, optional virtual-clock
    columns (figs. 16/18 plot the virtual split) and us/step."""
    phases = entry["phases"]
    wall_us = phases["wall_us"]
    virtual_us = phases.get("virtual_us")
    total_us = sum(wall_us.values())
    v_total_us = sum(virtual_us.values()) if virtual_us else 0.0
    steps = entry.get("derived", {}).get("particle_steps")
    rows = []
    for phase in PHASES:
        us = wall_us.get(phase, 0.0)
        v_us = virtual_us.get(phase, 0.0) if virtual_us else 0.0
        if us <= 0.0 and v_us <= 0.0:
            continue
        row: list[object] = [
            PAPER_PHASE_NAMES.get(phase, phase),
            us / 1.0e3,
            f"{100.0 * us / total_us:.1f}%" if total_us > 0 else "-",
        ]
        if virtual_us is not None:
            row += [
                v_us / 1.0e3,
                f"{100.0 * v_us / v_total_us:.1f}%" if v_total_us > 0 else "-",
            ]
        if steps:
            row.append((v_us if virtual_us is not None else us) / steps)
        rows.append(tuple(row))
    if rows:
        total_row: list[object] = ["total", total_us / 1.0e3, "100.0%"]
        if virtual_us is not None:
            total_row += [v_total_us / 1.0e3, "100.0%"]
        if steps:
            total_row.append(
                (v_total_us if virtual_us is not None else total_us) / steps
            )
        rows.append(tuple(total_row))
    return rows


def _phase_headers(entry: dict[str, Any]) -> list[str]:
    headers = ["phase", "wall [ms]", "share"]
    if entry["phases"].get("virtual_us") is not None:
        headers += ["virtual [ms]", "virtual share"]
    if entry.get("derived", {}).get("particle_steps"):
        headers.append("us/step")
    return headers


def _fmt_derived(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)


_SHARE_SPARK = "▁▂▃▄▅▆▇█"


def _share_bar(share: float, width: int = 8) -> str:
    """Tiny bar of a [0, 1] share (one glyph per 1/width of the range)."""
    share = min(max(share, 0.0), 1.0)
    full = int(share * width)
    partial = share * width - full
    bar = "█" * full
    if partial > 0 and full < width:
        bar += _SHARE_SPARK[min(int(partial * len(_SHARE_SPARK)), 7)]
    return bar or "▁"


def _regime_rows(summary: dict[str, Any]) -> list[tuple]:
    """Phase-observatory rows: one per regime, dominant first."""
    rows = []
    for reg in sorted(
        summary.get("regimes", []), key=lambda r: -r.get("count", 0)
    ):
        share = reg.get("share", 0.0)
        rows.append(
            (
                reg.get("regime"),
                reg.get("count", 0),
                f"{share:.1%}",
                _share_bar(share),
                f"{reg.get('mean_block_size', 0.0):.1f}",
                f"{reg.get('mean_wall_us', 0.0):.0f}",
            )
        )
    return rows


_REGIME_HEADERS = (
    "regime", "blocksteps", "share", "bar", "mean block", "us/blockstep"
)


def _waterfall_rows(eff: dict[str, Any]) -> list[tuple]:
    """Efficiency-observatory waterfall: peak at the top, one row per
    loss bucket, achieved ("real") flops at the bottom — the §6 "real
    Tflops" account rendered fig. 13-style as fractions of peak."""
    peak = eff.get("peak_flops", 0.0)
    rows: list[tuple] = [("peak", f"{peak:.4g}", "100.0%", _share_bar(1.0))]
    for bucket in BUCKETS:
        info = eff.get("buckets", {}).get(bucket, {})
        flops, frac = info.get("flops", 0.0), info.get("fraction", 0.0)
        if flops <= 0.0:
            continue
        rows.append(
            (f"- {bucket}", f"{flops:.4g}", f"{frac:.2%}", _share_bar(frac))
        )
    frac = HEADLINE["efficiency"].read(eff)["fraction_of_peak"] or 0.0
    rows.append(
        ("= real", f"{eff.get('real_flops', 0.0):.4g}", f"{frac:.2%}",
         _share_bar(frac))
    )
    return rows


_WATERFALL_HEADERS = ("waterfall", "flops", "of peak", "bar")


def _rank_rows(rank: dict[str, Any]) -> list[tuple]:
    """Rank-observatory rows: one per rank, real busy time and task
    distribution — the per-host table the paper's §4 tuning reads."""
    rows = []
    busy_total = max(rank.get("busy_us", 0.0), 1e-12)
    for row in rank.get("ranks", []):
        share = row.get("busy_us", 0.0) / busy_total
        rows.append(
            (
                row.get("rank"),
                row.get("tasks", 0),
                f"{row.get('busy_us', 0.0) / 1.0e3:.2f}",
                f"{share:.1%}",
                _share_bar(share),
                f"{row.get('mean_task_us', 0.0):.0f}",
                f"{row.get('max_task_us', 0.0):.0f}",
            )
        )
    return rows


_RANK_HEADERS = (
    "rank", "tasks", "busy [ms]", "share", "bar", "mean task [us]", "max [us]"
)


#: Per observatory section of a benchmark entry: the table under its
#: headline sentence.
_SECTION_TABLES = {
    "signatures": (_REGIME_HEADERS, _regime_rows),
    "efficiency": (_WATERFALL_HEADERS, _waterfall_rows),
    "rank": (_RANK_HEADERS, _rank_rows),
}


def _entry_tables(entry: dict[str, Any], table: Any, code: str = "{}") -> list[str]:
    """Everything under one benchmark's heading, each table rendered by
    ``table(headers, rows)`` (``code`` quotes a key name): the phase
    budget, derived values, then every observatory section
    the entry carries — its headline sentence (the registry's ``report``
    template over the registry's formats) and its table."""
    lines = ["", table(_phase_headers(entry), _phase_rows(entry))]
    derived = entry.get("derived", {})
    if derived:
        lines += ["", table(
            ("derived", "value"),
            [(code.format(k), _fmt_derived(v)) for k, v in sorted(derived.items())],
        )]
    for name, (headers, rows_of) in _SECTION_TABLES.items():
        doc = entry.get(name)
        if not doc:
            continue
        section = HEADLINE[name]
        shown = section.shown(section.read(doc))
        lines += ["", section.report.format(**shown)]
        placement = doc.get("placement")  # the rank section's, with a comm ledger
        if placement:
            buckets = placement.get("buckets", {})
            lines.append(
                "placement gap (real - virtual skew): "
                f"{shown['placement_gap_us_mean']} us/blockstep; idle split "
                f"imbalance {buckets.get('imbalance', {}).get('fraction', 0.0):.1%} / "
                f"overhead {buckets.get('overhead', {}).get('fraction', 0.0):.1%}"
            )
        rows = rows_of(doc)
        if rows:
            lines += ["", table(headers, rows)]
    return lines


def render_artifact_text(artifact: dict[str, Any]) -> str:
    """Terminal report: one section per benchmark."""
    env = artifact["environment"]
    lines = [
        f"# BENCH artifact '{artifact['label']}' (suite {artifact['suite']}, "
        f"schema {artifact['schema']})",
        f"environment: python {env.get('python')} / numpy {env.get('numpy')} "
        f"on {env.get('platform')} ({env.get('cpu_count')} cpus)",
    ]
    if env.get("git_revision"):
        lines.append(f"revision: {env['git_revision']}")
    for entry in artifact["benchmarks"]:
        stats = entry["stats"]["wall_s"]
        lines += [
            "",
            f"## {entry['name']} — {entry.get('title', '')} [{entry['paper_ref']}]",
            f"params: {entry['params']}",
            f"wall: median {stats['median'] * 1e3:.2f} ms "
            f"(min {stats['min'] * 1e3:.2f}, IQR {stats['iqr'] * 1e3:.2f}, "
            f"n={stats['n']})",
            *_entry_tables(entry, format_table),
        ]
    return "\n".join(lines)


def render_artifact_markdown(artifact: dict[str, Any]) -> str:
    """PR-summary report with the fig. 14-style tables."""
    env = artifact["environment"]
    lines = [
        f"## Benchmark artifact `{artifact['label']}` "
        f"(suite `{artifact['suite']}`)",
        "",
        f"*python {env.get('python')}, numpy {env.get('numpy')}, "
        f"{env.get('cpu_count')} cpus, {env.get('platform')}*",
    ]
    summary_rows = []
    for entry in artifact["benchmarks"]:
        stats = entry["stats"]["wall_s"]
        summary_rows.append(
            (
                f"`{entry['name']}`",
                entry["paper_ref"],
                stats["median"] * 1e3,
                stats["iqr"] * 1e3,
                stats["n"],
            )
        )
    lines += [
        "",
        markdown_table(
            ["benchmark", "paper ref", "median [ms]", "IQR [ms]", "trials"],
            summary_rows,
        ),
    ]
    for entry in artifact["benchmarks"]:
        lines += [
            "",
            f"### `{entry['name']}` — time budget (fig. 14 style)",
            *_entry_tables(entry, markdown_table, "`{}`"),
        ]
    return "\n".join(lines)


def render_compare_text(result: ComparisonResult) -> str:
    rows = []
    for v in result.verdicts:
        rows.append(
            (
                v.name,
                v.status,
                f"{v.ratio:.3f}" if v.ratio is not None else "-",
                f"{v.baseline_median_s * 1e3:.2f}" if v.baseline_median_s else "-",
                f"{v.current_median_s * 1e3:.2f}" if v.current_median_s else "-",
                f"{v.threshold * 100.0:.0f}%" if v.threshold is not None else "-",
                v.note,
            )
        )
    header = (
        f"# regression gate (threshold {result.rel_threshold * 100:.0f}%, "
        f"noise floor {result.iqr_factor:.3g} x IQR)"
    )
    table = format_table(
        ("benchmark", "status", "ratio", "base [ms]", "cur [ms]", "thresh", "note"),
        rows,
    )
    tail = ("verdict: OK" if result.ok
            else f"verdict: FAILED ({len(result.regressed)} REGRESSED)")
    return "\n".join([header, "", table, "", tail])


def render_compare_markdown(result: ComparisonResult) -> str:
    icon = {"PASS": "✅", "IMPROVED": "🟢", "REGRESSED": "🔴",
            "NEW": "🆕", "MISSING": "⚠️"}
    rows = [
        (
            f"`{v.name}`",
            f"{icon.get(v.status, '')} {v.status}",
            f"{v.ratio:.3f}" if v.ratio is not None else "-",
            f"{v.threshold * 100.0:.0f}%" if v.threshold is not None else "-",
            v.note,
        )
        for v in result.verdicts
    ]
    head = "## Benchmark regression gate — " + ("OK" if result.ok else "FAILED")
    return "\n".join(
        [head, "",
         markdown_table(["benchmark", "status", "ratio", "threshold", "note"], rows)]
    )


def render_profile_text(attr: ProfileAttribution) -> str:
    """Phase-attributed profile: the split, then the hotspots."""
    total = attr.total_s
    phase_rows = [
        (
            PAPER_PHASE_NAMES.get(p, p),
            attr.phase_self_s.get(p, 0.0),
            f"{100.0 * attr.phase_self_s.get(p, 0.0) / total:.1f}%" if total else "-",
        )
        for p in PHASES
        if attr.phase_self_s.get(p, 0.0) > 0.0
    ]
    lines = [
        f"# profile of '{attr.benchmark}' "
        f"({total:.3f} s self time, "
        f"{100.0 * attr.attributed_fraction:.1f}% attributed to paper phases)",
        "",
        format_table(("phase", "self [s]", "share"), phase_rows),
        "",
        "## hotspots (self time, descending)",
        "",
        format_table(
            ("function", "phase", "calls", "self [s]", "cum [s]"),
            [
                (
                    h.where,
                    PAPER_PHASE_NAMES.get(h.phase, h.phase),
                    h.calls,
                    h.self_s,
                    h.cum_s,
                )
                for h in attr.hotspots
            ],
        ),
    ]
    return "\n".join(lines)
