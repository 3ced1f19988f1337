"""Render a phase breakdown the way the paper presents one.

Figs. 14, 16 and 18 plot the per-blockstep time budget split into host
computation, GRAPE pipeline time and communication/synchronisation;
:func:`render_breakdown` prints the same budget as an aligned text
table (both clock domains when available), and
:func:`breakdown_json` emits the machine-readable equivalent.
"""

from __future__ import annotations

import json

from ..io.tables import format_table
from .phases import PAPER_PHASE_NAMES, PHASES, PhaseBreakdown


def _phase_rows(breakdown: PhaseBreakdown) -> list[tuple]:
    rows = []
    for phase in PHASES:
        wall_us = breakdown.wall.totals.get(phase, 0.0)
        row: list[object] = [
            PAPER_PHASE_NAMES[phase],
            wall_us / 1.0e3,
            f"{100.0 * breakdown.wall.fraction(phase):.1f}%",
        ]
        if breakdown.virtual is not None:
            row += [
                breakdown.virtual.totals.get(phase, 0.0) / 1.0e3,
                f"{100.0 * breakdown.virtual.fraction(phase):.1f}%",
            ]
        if wall_us > 0.0 or (
            breakdown.virtual is not None
            and breakdown.virtual.totals.get(phase, 0.0) > 0.0
        ):
            rows.append(tuple(row))
    return rows


def render_breakdown(
    breakdown: PhaseBreakdown,
    title: str = "phase attribution (paper section 4 taxonomy)",
    spans: bool = True,
) -> str:
    """Aligned text report: phase totals, then the per-span table."""
    lines = [f"# {title}", ""]
    headers: list[str] = ["phase", "wall [ms]", "wall %"]
    if breakdown.virtual is not None:
        headers += ["virtual [ms]", "virtual %"]
    lines.append(format_table(headers, _phase_rows(breakdown)))
    lines.append("")
    lines.append(
        f"total wall: {breakdown.wall.total_us / 1.0e3:.4g} ms"
        + (
            f"; total virtual: {breakdown.virtual.total_us / 1.0e3:.4g} ms"
            if breakdown.virtual is not None
            else ""
        )
        + f"  ({breakdown.n_events} spans)"
    )
    if spans and breakdown.spans:
        lines += [
            "",
            "## spans (self time, descending)",
            "",
            format_table(
                ("span", "phase", "count", "self [ms]", "mean [us]"),
                [
                    (
                        s.name,
                        PAPER_PHASE_NAMES.get(s.phase, s.phase),
                        s.count,
                        s.self_us / 1.0e3,
                        s.mean_us,
                    )
                    for s in breakdown.spans
                ],
            ),
        ]
    return "\n".join(lines)


def breakdown_json(breakdown: PhaseBreakdown, indent: int | None = 2) -> str:
    """Machine-readable report of the phase budget."""
    return json.dumps(breakdown.as_dict(), indent=indent, sort_keys=True)
