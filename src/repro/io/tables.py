"""Plain-text and markdown table formatting for benchmark output.

The benchmark harness prints the same rows/series the paper's figures
plot; these helpers keep that output aligned and diff-friendly.
"""

from __future__ import annotations

from typing import Iterable, Sequence


def _cells(row: Sequence[object], float_format: str) -> list[str]:
    return [float_format.format(v) if isinstance(v, float) else str(v)
            for v in row]


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    float_format: str = "{:.4g}",
) -> str:
    """Render rows as an aligned monospace table.

    Floats go through ``float_format``; everything else through str().
    """
    rendered = [[str(h) for h in headers]]
    rendered += [_cells(row, float_format) for row in rows]
    if any(len(r) != len(rendered[0]) for r in rendered):
        raise ValueError("ragged table rows")

    widths = [max(len(r[c]) for r in rendered) for c in range(len(rendered[0]))]
    lines = []
    for i, row in enumerate(rendered):
        lines.append("  ".join(cell.rjust(w) for cell, w in zip(row, widths)))
        if i == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)


def markdown_table(
    headers: Sequence[str], rows: Iterable[Sequence[object]]
) -> str:
    """The same rows as a markdown table (PR summaries)."""
    lines = ["| " + " | ".join(headers) + " |",
             "|" + "|".join(" --- " for _ in headers) + "|"]
    lines += ["| " + " | ".join(_cells(row, "{:.4g}")) + " |" for row in rows]
    return "\n".join(lines)
