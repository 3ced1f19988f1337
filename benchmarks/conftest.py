"""Shared helpers for the benchmark harness.

Every file in this directory regenerates one artefact of the paper's
evaluation (a figure's series or a section-5 number), prints it in the
shape the paper reports, asserts the qualitative content, and times the
regeneration under pytest-benchmark.

Run with::

    pytest benchmarks/ --benchmark-only

The printed tables are the reproduction output; EXPERIMENTS.md records
the paper-vs-measured comparison.

Determinism: every random workload in this directory derives from
:data:`BENCH_SEED` (via :func:`bench_seed` offsets, :func:`make_rng`
or :func:`make_plummer`), so repeated benchmark runs time the *same*
work and any scatter in the recorded numbers is timing noise, not
workload noise — the property the ``BENCH_*.json`` regression gate
(:mod:`repro.bench`) relies on.
"""

from __future__ import annotations

import numpy as np

from repro.figures import FIGURES, rows
from repro.io import format_table
from repro.models import plummer_model
from repro.perfmodel.report import Anchor, check_figure, format_report

#: Root seed for every random workload in the benchmark suite.
BENCH_SEED: int = 2003


def bench_seed(offset: int = 0) -> int:
    """A stable per-workload seed (root seed plus a file-local offset)."""
    return BENCH_SEED + offset


def make_rng(offset: int = 0) -> np.random.Generator:
    """Seeded generator for ad-hoc benchmark inputs."""
    return np.random.default_rng(bench_seed(offset))


def make_plummer(n: int, offset: int = 0, **kwargs):
    """Plummer model with an explicit suite-derived seed."""
    return plummer_model(n, seed=bench_seed(offset), **kwargs)


def emit(title: str, table: str) -> None:
    """Print one reproduced artefact (visible with pytest -s; also kept
    in the captured output of the benchmark run)."""
    print(f"\n=== {title} ===")
    print(table)


def regenerate(benchmark, key: str, points: int) -> list[list]:
    """Time the regeneration of one figure from the figure table
    (:data:`repro.figures.FIGURES`), print it with its paper anchors,
    and return its ``[N, one value per series]`` rows."""
    figure = FIGURES[key]
    table = benchmark(rows, figure, points)
    emit(figure.heading, format_table(figure.labels, table))
    if figure.anchors:
        print(format_report(check_figure(figure)))
    return table


def anchor(key: str) -> Anchor:
    """The figure's one paper anchor, evaluated: the paper's number,
    the model's, and the tolerance stated beside the figure."""
    (found,) = check_figure(FIGURES[key])
    return found
