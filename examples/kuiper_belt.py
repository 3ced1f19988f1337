#!/usr/bin/env python
"""Section 5, application 1: early Kuiper-belt planetesimals.

The paper's first production run evolved 1.8 million planetesimals for
21,120 dynamical times and sustained 33.4 Tflops.  This example runs
the same physics at laptop scale — a planetesimal disc around a central
star, integrated with the block-timestep Hermite scheme — and then
reproduces the paper's full-scale accounting with the performance
model.

Usage:  python examples/kuiper_belt.py [N]
"""

from __future__ import annotations

import sys
import time

import numpy as np

from repro import BlockTimestepIntegrator, kuiper_belt_model
from repro.analysis import run_speed
from repro.config import tuned_machine
from repro.perfmodel import KUIPER_BELT_RUN, MachineModel
from repro.perfmodel.applications import predict_sustained_tflops, predict_wall_hours


def eccentricity_dispersion(system) -> float:
    """RMS eccentricity proxy of the disc (excludes the star)."""
    x = system.pos[1:]
    v = system.vel[1:]
    r = np.linalg.norm(x, axis=1)
    v2 = np.einsum("ij,ij->i", v, v)
    # specific orbital energy -> semi-major axis (central mass = 1)
    energy = 0.5 * v2 - 1.0 / r
    a = -0.5 / energy
    h = np.cross(x, v)
    h2 = np.einsum("ij,ij->i", h, h)
    e2 = np.clip(1.0 - h2 / a, 0.0, None)
    return float(np.sqrt(np.mean(e2)))


def main(n: int = 400) -> None:
    print(f"# Kuiper-belt planetesimal disc, N = {n} (+1 central star)")
    system = kuiper_belt_model(n, seed=2, ecc_sigma=0.02)
    eps = 2.0e-4  # planetesimal-scale softening
    e0 = eccentricity_dispersion(system)

    integrator = BlockTimestepIntegrator(system, eps2=eps * eps, dt_max=1.0 / 64.0)
    t0 = time.perf_counter()
    stats = integrator.run(2.0 * np.pi)  # one orbit at the reference radius
    wall = time.perf_counter() - t0
    e1 = eccentricity_dispersion(integrator.synchronize())

    print(f"integrated one reference orbit in {wall:.2f} s")
    print(f"blocksteps {stats.blocksteps}, particle steps {stats.particle_steps}, "
          f"mean block {stats.mean_block_size:.1f}")
    print(f"rms eccentricity: {e0:.4f} -> {e1:.4f} (viscous stirring heats the disc)")
    speed = run_speed(stats, wall)
    print(f"local sustained speed: {speed.sustained_gflops:.3f} Gflops\n")

    print("# paper-scale accounting (1.8M particles, 1.911e10 steps):")
    run = KUIPER_BELT_RUN
    print(f"measured   : {run.wall_hours:.2f} h  -> {run.sustained_tflops:.1f} Tflops"
          " (paper: 16.30 h, 33.4 Tflops)")
    model = MachineModel(tuned_machine())
    print(f"model pred : {predict_wall_hours(run, model):.2f} h"
          f" -> {predict_sustained_tflops(run, model):.1f} Tflops")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 400)
