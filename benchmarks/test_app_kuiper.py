"""A1 — Section 5, application 1: the Kuiper-belt production run.

Paper content reproduced: the accounting 1.911e10 steps x 1,799,999
pairs x 57 flops / 16.30 h = 33.4 Tflops, the model's prediction of
that wall time, and a real laptop-scale run of the same physics.
"""

import pytest

from repro.config import tuned_machine
from repro.core import BlockTimestepIntegrator
from repro.io import format_table
from repro.models import kuiper_belt_model
from repro.perfmodel import KUIPER_BELT_RUN, MachineModel
from repro.perfmodel.applications import predict_sustained_tflops, predict_wall_hours

from .conftest import emit


def tuned_model():
    return MachineModel(tuned_machine())


def test_kuiper_accounting(benchmark):
    run = KUIPER_BELT_RUN

    def account():
        return (run.total_flops, run.sustained_tflops, run.particle_steps_per_second)

    flops, tflops, rate = benchmark(account)
    emit(
        "Section 5, application 1: Kuiper belt (N=1.8M)",
        format_table(
            ["quantity", "reproduced", "paper"],
            [
                ("total flops", f"{flops:.3e}", "1.961e18"),
                ("sustained Tflops", f"{tflops:.1f}", "33.4"),
                ("particle steps/s", f"{rate:.3g}", "~3.3e5"),
            ],
        ),
    )
    assert flops == pytest.approx(1.961e18, rel=1e-3)
    assert tflops == pytest.approx(33.4, abs=0.1)


def test_kuiper_model_prediction(benchmark):
    run = KUIPER_BELT_RUN
    model = tuned_model()

    def predict():
        return predict_wall_hours(run, model), predict_sustained_tflops(run, model)

    hours, tflops = benchmark(predict)
    emit(
        "Kuiper belt: model prediction vs measurement",
        format_table(
            ["quantity", "model", "paper"],
            [("wall hours", f"{hours:.2f}", "16.30"), ("Tflops", f"{tflops:.1f}", "33.4")],
        ),
    )
    assert hours == pytest.approx(16.30, rel=0.25)
    assert tflops == pytest.approx(33.4, rel=0.25)


def test_kuiper_small_scale_run(benchmark):
    """The same physics, actually integrated (disc around a star with
    individual timesteps)."""

    def run_disc():
        system = kuiper_belt_model(150, seed=7)
        integ = BlockTimestepIntegrator(system, eps2=4e-8, dt_max=1.0 / 64.0)
        integ.run(0.5)
        return integ.stats

    stats = benchmark.pedantic(run_disc, rounds=1, iterations=1)
    emit(
        "Kuiper belt, laptop scale (N=150+1, t=0.5)",
        format_table(
            ["blocksteps", "particle steps", "mean block"],
            [(stats.blocksteps, stats.particle_steps, f"{stats.mean_block_size:.1f}")],
        ),
    )
    assert stats.particle_steps > 0
    # the disc's inner edge forces a wide timestep hierarchy: blocks
    # are much smaller than N (the planetesimal regime)
    assert stats.mean_block_size < 151
