#!/usr/bin/env python
"""Reproduce the paper's parallel-performance story end to end.

Three views of the same machine:

1. the *functional* parallel algorithms (copy / ring / 2-D hybrid) run
   on a virtual-time network and are checked against the serial
   trajectory;
2. the *performance model* regenerates the speed-vs-N curves for the
   configurations of figs. 13-18;
3. the crossovers the paper highlights, as the reproduction report
   states them (one search, ``repro.perfmodel.crossover``).

Usage:  python examples/parallel_scaling.py
"""

from __future__ import annotations

import numpy as np

from repro import constant_softening, plummer_model
from repro.config import NIC_NS83820
from repro.core import BlockTimestepIntegrator
from repro.io import format_table
from repro.parallel import (
    CopyAlgorithm,
    Grid2DAlgorithm,
    ParallelBlockIntegrator,
    RingAlgorithm,
    SimNetwork,
)
from repro.perfmodel import MachineModel
from repro.perfmodel.report import build_report, format_report
from repro.perfmodel.tuning import STANDARD_CONFIGURATIONS


def functional_demo(n: int = 128, t_end: float = 0.125) -> None:
    print("## functional parallel algorithms vs serial (N = %d)" % n)
    eps = constant_softening(n)
    eps2 = eps * eps

    serial_sys = plummer_model(n, seed=7)
    serial = BlockTimestepIntegrator(serial_sys, eps2)
    serial.run(t_end)

    rows = []
    for name, factory, ranks in (
        ("copy", CopyAlgorithm, 4),
        ("ring", RingAlgorithm, 4),
        ("grid2d", Grid2DAlgorithm, 4),
    ):
        system = plummer_model(n, seed=7)
        net = SimNetwork(ranks, NIC_NS83820)
        par = ParallelBlockIntegrator(system, eps2, factory(net, eps2))
        par.run(t_end)
        max_dev = float(np.max(np.abs(system.pos - serial_sys.pos)))
        rows.append(
            (name, ranks, max_dev, net.stats.messages, net.clock.elapsed / 1e3)
        )
    print(format_table(
        ("algorithm", "ranks", "max |dx| vs serial", "messages", "virtual ms"),
        rows,
    ))
    print("(copy: bitwise identical; ring/grid2d: float64 reassociation only)\n")


def model_curves() -> None:
    print("## performance-model speed curves (constant softening)")
    n_grid = [1_000, 10_000, 100_000, 1_000_000]
    rows = [
        [label] + [MachineModel(machine()).speed_gflops(n) for n in n_grid]
        for label, machine in STANDARD_CONFIGURATIONS.items()
    ]
    print(format_table(["config"] + [f"S(N={n:,}) Gflops" for n in n_grid], rows))
    print()


def crossovers() -> None:
    print("## crossover points (model) vs the paper")
    print(format_report([a for a in build_report() if "crossover" in a.statement]))


if __name__ == "__main__":
    functional_demo()
    model_curves()
    crossovers()
