"""The paper's evaluation, stated once: figs. 13-19 as one table.

:data:`FIGURES` says, per figure, what the paper plots — title, N
range, and for each curve its machine, softening law and the quantity
read off the model — with the anchors the paper quotes for that figure
beside it (statement, paper value, one tolerance, how to reproduce it
from the figure's own curves).  :func:`rows` is the only code that
walks an N grid for a figure; the CSV export below, the text report
(``examples/figure_sweep.py``), ``benchmarks/test_fig*.py``, the
``model_sweep`` suite and the reproduction report
(:mod:`repro.perfmodel.report`) all read the table.

``python -m repro.figures [output_dir]`` writes one CSV per figure plus
the section-5 application table, in the exact series the paper plots,
for anyone who wants to overlay the reproduction on the original.
"""

from __future__ import annotations

import csv
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from .config import tuned_machine
from .perfmodel import BINARY_BH_RUN, KUIPER_BELT_RUN, MachineModel, crossover
from .perfmodel.applications import predict_sustained_tflops, treecode_comparison
from .perfmodel.tuning import STANDARD_CONFIGURATIONS

_ONE, _TWO, _FOUR, _EIGHT, _SIXTEEN = STANDARD_CONFIGURATIONS
_TUNED = "Intel 82540EM + P4"

#: Every machine a figure plots, by display label: the paper's sizes
#: plus section 4.4's tuned system.
MACHINES = {**STANDARD_CONFIGURATIONS, _TUNED: tuned_machine}


def grid(lo: float, hi: float, points: int) -> list[int]:
    """Logarithmic N grid like the paper's figure axes."""
    return [int(n) for n in np.logspace(np.log10(lo), np.log10(hi), points)]


@dataclass(frozen=True)
class Series:
    """One curve: a machine, a softening law and what is read off it."""

    column: str  # CSV column name
    label: str  # display label
    machine: str  # key of MACHINES
    quantity: Callable[[MachineModel, int], float]
    softening: str = "constant"

    def model(self) -> MachineModel:
        return MachineModel(MACHINES[self.machine](), softening=self.softening)


@dataclass(frozen=True)
class PaperAnchor:
    """One number the paper quotes for a figure.  ``reproduce`` reads
    it off the figure's own curves (NaN: not found in its range)."""

    statement: str
    paper_value: float
    rel_tolerance: float
    reproduce: Callable[["Figure"], float]


@dataclass(frozen=True)
class Figure:
    """One figure (or panel) of the evaluation section."""

    number: int  # the paper's figure number
    title: str
    file: str  # CSV file stem
    lo: float  # N range
    hi: float
    series: tuple[Series, ...]
    anchors: tuple[PaperAnchor, ...] = ()

    @property
    def heading(self) -> str:
        return f"Figure {self.number} — {self.title}"

    @property
    def labels(self) -> list[str]:
        return ["N"] + [s.label for s in self.series]

    def model(self, column: str) -> MachineModel:
        """The machine model behind the series named ``column``."""
        (series,) = (s for s in self.series if s.column == column)
        return series.model()


def rows(figure: Figure, points: int) -> list[list]:
    """The figure's curves as ``[N, one value per series]`` rows over
    ``points`` logarithmically spaced N."""
    models = [s.model() for s in figure.series]
    return [
        [n] + [s.quantity(m, n) for s, m in zip(figure.series, models)]
        for n in grid(figure.lo, figure.hi, points)
    ]


_gflops = MachineModel.speed_gflops
_us = MachineModel.time_per_step_us


def _tflops(model: MachineModel, n: int) -> float:
    return model.speed_gflops(n) / 1e3


def _part(*fields: str) -> Callable[[MachineModel, int], float]:
    """Sum of the named :class:`StepTimeBreakdown` components [us]."""

    def read(model: MachineModel, n: int) -> float:
        b = model.step_time_breakdown(n)
        return sum(getattr(b, f) for f in fields)

    return read


def _crossing(fast: str, slow: str) -> Callable[[Figure], float]:
    """The N, inside the figure's range, from which the series in
    column ``fast`` outruns the one in column ``slow``."""
    return lambda fig: (
        crossover(fig.model(fast), fig.model(slow), fig.lo, fig.hi) or float("nan")
    )


def _fig15(tag: str, eps: str, panel: str, softening: str, paper_n: float) -> Figure:
    return Figure(
        15, f"1/2/4-node speed [Gflops] vs N, eps = {eps} ({panel} panel)",
        f"fig15_multi_node_speed_{tag}", 1000, 1.0e6,
        (Series("gflops_1node", _ONE, _ONE, _gflops, softening),
         Series("gflops_2node", _TWO, _TWO, _gflops, softening),
         Series("gflops_4node", _FOUR, _FOUR, _gflops, softening)),
        (PaperAnchor(f"2-node crossover N, eps={eps}", paper_n, 0.6,
                     _crossing("gflops_2node", "gflops_1node")),),
    )


FIGURES: dict[str, Figure] = {
    "fig13": Figure(
        13, "single-node (1 host, 4 boards) speed [Gflops] vs N",
        "fig13_single_node_speed", 256, 2.0e6,
        (Series("gflops_eps_const", "eps=1/64", _ONE, _gflops),
         Series("gflops_eps_n13", "eps=1/(8(2N)^1/3)", _ONE, _gflops, "n13"),
         Series("gflops_eps_4overN", "eps=4/N", _ONE, _gflops, "4overN")),
        (PaperAnchor(
            "single node speed at N=2e5 [Gflops] (paper: 'better than 1 Tflops')",
            1000.0, 0.25,
            lambda fig: fig.model("gflops_eps_const").speed_gflops(200_000)),),
    ),
    "fig14": Figure(
        14, "single-node CPU time per particle-step [us] vs N",
        "fig14_time_per_step", 256, 2.0e6,
        (Series("us_cache_model", "cache model", _ONE, _us),
         Series("us_const_host_fit", "constant-T_host fit", _ONE,
                MachineModel.time_per_step_constant_host_us),
         Series("us_host", "T_host", _ONE, _part("host_us")),
         Series("us_comm", "T_comm", _ONE, _part("hif_us")),
         Series("us_grape", "T_GRAPE", _ONE, _part("grape_us"))),
    ),
    "fig15_const": _fig15("const", "1/64", "left", "constant", 3000.0),
    "fig15_4overN": _fig15("4overN", "4/N", "right", "4overN", 30_000.0),
    "fig16": Figure(
        16, "4-node time per particle-step [us] vs N (the 1/N latency wall)",
        "fig16_four_node_time_per_step", 1000, 1.0e6,
        (Series("us_total", "time/step", _FOUR, _us),
         Series("us_sync", "of which sync", _FOUR, _part("sync_us"))),
    ),
    "fig17": Figure(
        17, "multi-cluster speed [Tflops] vs N (4/8/16 nodes)",
        "fig17_multi_cluster_speed", 3000, 2.0e6,
        (Series("tflops_4node", _FOUR, _FOUR, _tflops),
         Series("tflops_8node", _EIGHT, _EIGHT, _tflops),
         Series("tflops_16node", _SIXTEEN, _SIXTEEN, _tflops)),
        (PaperAnchor(
            "16-node vs 4-node crossover N (paper: 'rather high, ~1e5')",
            1.0e5, 1.0, _crossing("tflops_16node", "tflops_4node")),),
    ),
    "fig18": Figure(
        18, "16-node time per particle-step [us] vs N",
        "fig18_full_machine_time_per_step", 3000, 2.0e6,
        (Series("us_total", "time/step", _SIXTEEN, _us),
         Series("us_sync_plus_exchange", "of which sync+exchange", _SIXTEEN,
                _part("sync_us", "exchange_us"))),
    ),
    "fig19": Figure(
        19, "NIC tuning: speed [Tflops] vs N, before and after section 4.4",
        "fig19_nic_tuning", 10_000, 1.8e6,
        (Series("tflops_ns83820_athlon", "NS 83820 + Athlon", _SIXTEEN, _tflops),
         Series("tflops_intel82540em_p4", _TUNED, _TUNED, _tflops)),
        (PaperAnchor(
            "tuned speed at N=1.8M [Tflops]", 36.0, 0.15,
            lambda fig: _tflops(fig.model("tflops_intel82540em_p4"), 1_800_000)),),
    ),
}


def application_rows() -> list[dict]:
    """Section 5, one row per production run: the paper's accounting,
    the tuned machine's model prediction and the Tflops the paper
    quotes, keyed by CSV column."""
    tuned = MachineModel(tuned_machine())
    return [
        {
            "run": run.name, "N": run.n, "steps": run.individual_steps,
            "wall_hours": run.wall_hours,
            "tflops_accounting": run.sustained_tflops,
            "tflops_model": predict_sustained_tflops(run, tuned),
            "tflops_paper": paper,
        }
        for run, paper in ((KUIPER_BELT_RUN, 33.4), (BINARY_BH_RUN, 35.3))
    ]


def _write(path: Path, header: list[str], table: list[list]) -> Path:
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(table)
    return path


def export_figure(figure: Figure, outdir: Path) -> Path:
    header = ["N"] + [s.column for s in figure.series]
    return _write(outdir / f"{figure.file}.csv", header, rows(figure, 25))


def export_applications(outdir: Path) -> Path:
    _write(
        outdir / "section5_treecode_comparison.csv",
        ["system", "effective_steps_per_sec", "fraction_of_grape6"],
        [list(row) for row in treecode_comparison()],
    )
    runs = application_rows()
    return _write(
        outdir / "section5_applications.csv",
        list(runs[0]), [list(run.values()) for run in runs],
    )


def export_all(outdir: str | Path) -> list[Path]:
    """Write every figure CSV; returns the paths written."""
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    paths = [export_figure(figure, out) for figure in FIGURES.values()]
    paths.append(export_applications(out))
    return paths


def main(argv: list[str] | None = None) -> int:
    args = argv if argv is not None else sys.argv[1:]
    outdir = args[0] if args else "figures_out"
    paths = export_all(outdir)
    for p in paths:
        print(p)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
