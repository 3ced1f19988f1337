#!/usr/bin/env python
"""Section 5, application 2: a black-hole binary in a star cluster.

The paper's second production run: a 2M-particle Plummer model with two
0.5%-mass "black hole" particles, integrated for 36 time units at a
sustained 35.3 Tflops.  At laptop scale we follow the same setup and
watch the two massive particles sink by dynamical friction and bind
into a binary — the physics the run was built to capture — then
reproduce the full-scale accounting.

Usage:  python examples/binary_black_hole.py [N]
"""

from __future__ import annotations

import sys
import time

import numpy as np

from repro import BlockTimestepIntegrator, binary_black_hole_model
from repro.analysis import lagrangian_radii
from repro.config import tuned_machine
from repro.perfmodel import BINARY_BH_RUN, MachineModel
from repro.perfmodel.applications import predict_sustained_tflops, predict_wall_hours


def bh_separation(system) -> float:
    return float(np.linalg.norm(system.pos[-1] - system.pos[-2]))


def bh_binding_energy(system, eps2: float) -> float:
    """Specific binding energy of the BH pair (negative = bound)."""
    dx = system.pos[-1] - system.pos[-2]
    dv = system.vel[-1] - system.vel[-2]
    r = np.sqrt(dx @ dx + eps2)
    mu = system.mass[-1] + system.mass[-2]
    return float(0.5 * dv @ dv - mu / r)


def main(n_stars: int = 510) -> None:
    print(f"# binary black hole in a cluster: {n_stars} stars + 2 BHs (0.5% mass each)")
    system = binary_black_hole_model(n_stars, seed=3, separation=1.0)
    eps = 1.0 / 64.0
    eps2 = eps * eps

    integrator = BlockTimestepIntegrator(system, eps2=eps2)
    print(f"{'t':>6} {'separation':>11} {'E_bind':>9} {'r_half':>7}")
    t0 = time.perf_counter()
    for t_target in (0.0, 2.0, 4.0, 6.0, 8.0):
        if t_target > 0:
            integrator.run(t_target)
        snap = integrator.synchronize(t_target) if t_target > 0 else system
        r_half = lagrangian_radii(snap, (0.5,))[0]
        print(f"{t_target:6.1f} {bh_separation(snap):11.4f} "
              f"{bh_binding_energy(snap, eps2):9.4f} {r_half:7.4f}")
    wall = time.perf_counter() - t0
    stats = integrator.stats
    print(f"\n{stats.particle_steps} particle steps in {wall:.1f} s "
          f"(mean block {stats.mean_block_size:.1f})")

    print("\n# paper-scale accounting (2M particles, 4.143e10 steps):")
    run = BINARY_BH_RUN
    print(f"measured   : {run.wall_hours:.2f} h -> {run.sustained_tflops:.1f} Tflops"
          " (paper: 37.19 h, 35.3 Tflops)")
    model = MachineModel(tuned_machine())
    print(f"model pred : {predict_wall_hours(run, model):.2f} h"
          f" -> {predict_sustained_tflops(run, model):.1f} Tflops")
    print("\ncontext: the largest published direct-summation run of this type "
          "without GRAPE used 32,768 particles (Milosavljevic & Merritt 2001); "
          "GRAPE-6 ran 2,000,000.")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 510)
