#!/usr/bin/env python
"""Regenerate every figure of the paper's evaluation as text tables.

One command, the full evaluation section: figs. 13-19 as printed
series, each with the anchors the paper quotes for it, plus the
section-5 application numbers.  Everything is read from the one figure
table (``repro.figures.FIGURES``) that the CSV export, the benchmark
suite and the reproduction report read too.

Usage:  python examples/figure_sweep.py
"""

from __future__ import annotations

from repro.figures import FIGURES, application_rows, rows
from repro.io import format_table
from repro.perfmodel import treecode_comparison
from repro.perfmodel.report import check_figure, format_report

if __name__ == "__main__":
    for figure in FIGURES.values():
        print(f"### {figure.heading}")
        print(format_table(figure.labels, rows(figure, 10)))
        if figure.anchors:
            print(format_report(check_figure(figure)))
        print()
    print("### Section 5 — production applications")
    runs = application_rows()
    print(format_table(list(runs[0]), [run.values() for run in runs]))
    print()
    print("### Section 5 — treecode comparison")
    print(format_table(
        ("system", "effective steps/s", "vs GRAPE-6"),
        [(name, f"{rate:,.3g}", f"{frac:.1%}")
         for name, rate, frac in treecode_comparison()]))
