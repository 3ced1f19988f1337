"""K1 — the 57-flop accounting and real kernel throughput on this host.

Times the actual numpy force kernel and the full blockstep loop,
reporting speed in the paper's own unit (eq. 9), so the reproduction's
substrate speed is on record next to the paper's hardware numbers.
"""

import time

import numpy as np

from repro.analysis import run_speed
from repro.constants import FLOPS_PER_INTERACTION
from repro.core import BlockTimestepIntegrator
from repro.forces import DirectSummation
from repro.io import format_table

from .conftest import emit, make_plummer


def test_force_kernel_throughput(benchmark):
    """Pairwise interactions per second of the vectorised kernel."""
    system = make_plummer(1024, offset=21)
    eps2 = (1.0 / 64.0) ** 2
    backend = DirectSummation(eps2)
    backend.set_j_particles(system.pos, system.vel, system.mass)
    idx = np.arange(system.n)
    calls = []

    def timed_call():
        t0 = time.perf_counter()
        result = backend.forces_on(system.pos, system.vel, idx)
        calls.append(time.perf_counter() - t0)
        return result

    # timed here, not read from ``benchmark.stats``: that is None under
    # --benchmark-disable, which is how CI runs this directory
    result = benchmark(timed_call)

    interactions = result.interactions
    rate = interactions / (sum(calls) / len(calls))
    emit(
        "Kernel throughput (N=1024 all-pairs force+jerk+pot)",
        format_table(
            ["interactions/call", "interactions/s", "eq.9 Gflops"],
            [(interactions, f"{rate:.3g}", f"{rate * FLOPS_PER_INTERACTION / 1e9:.2f}")],
        ),
    )
    assert interactions == 1024 * 1023


def test_blockstep_loop_throughput(benchmark):
    """Particle-steps per second of the full integrator (the quantity
    the paper's speed metric is built from)."""

    walls = []

    def run():
        t0 = time.perf_counter()
        system = make_plummer(256, offset=22)
        integ = BlockTimestepIntegrator(system, eps2=(1.0 / 64.0) ** 2)
        stats = integ.run(0.125)
        walls.append(time.perf_counter() - t0)
        return stats

    stats = benchmark.pedantic(run, rounds=1, iterations=1)
    speed = run_speed(stats, walls[-1])
    emit(
        "Integrator throughput (N=256, one eighth Heggie unit)",
        format_table(
            ["particle-steps/s", "sustained Gflops (eq. 9)"],
            [(f"{speed.particle_steps_per_second:.3g}",
              f"{speed.sustained_gflops:.3f}")],
        ),
    )
    print(
        "context: GRAPE-6 sustained 3.3e5 particle-steps/s at N=1.8-2M "
        "(35,300 Gflops)"
    )
    assert speed.particle_steps_per_second > 0


def test_flop_convention(benchmark):
    """38 + 19 = 57, and eq. 9 arithmetic, timed trivially to keep the
    convention pinned in the benchmark record."""

    def compute():
        from repro.perfmodel.flops import speed_flops

        return speed_flops(200_000, 87_719.0)  # ~1 Tflops worth of steps

    s = benchmark(compute)
    assert abs(s - 1.0e12) / 1.0e12 < 0.01
    assert FLOPS_PER_INTERACTION == 57
