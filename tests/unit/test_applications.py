"""Section-5 application accounting (the paper's own arithmetic)."""

import pytest

from repro.config import tuned_machine
from repro.perfmodel import BINARY_BH_RUN, KUIPER_BELT_RUN, MachineModel
from repro.perfmodel.applications import (
    ApplicationRun,
    predict_sustained_tflops,
    predict_wall_hours,
)


class TestPaperAccounting:
    def test_kuiper_total_flops(self):
        # paper: 1.911e10 x 1,799,999 x 57 = 1.961e18
        assert KUIPER_BELT_RUN.total_flops == pytest.approx(1.961e18, rel=0.001)

    def test_kuiper_sustained_33_4_tflops(self):
        assert KUIPER_BELT_RUN.sustained_tflops == pytest.approx(33.4, abs=0.1)

    def test_bbh_total_flops(self):
        # paper: 4.143e10 x 1,999,999 x 57 = 4.723e18
        assert BINARY_BH_RUN.total_flops == pytest.approx(4.723e18, rel=0.001)

    def test_bbh_sustained_35_3_tflops(self):
        assert BINARY_BH_RUN.sustained_tflops == pytest.approx(35.3, abs=0.1)

    def test_grape6_particle_step_rate(self):
        # "the speed achieved with GRAPE-6 is around 3.3e5 particle
        # steps per second" — "around": the two runs give 3.26e5/3.09e5
        for run in (KUIPER_BELT_RUN, BINARY_BH_RUN):
            assert run.particle_steps_per_second == pytest.approx(3.3e5, rel=0.1)

    def test_best_application_speed_is_35_3(self):
        # abstract: "The best performance so far achieved with real
        # applications is 35.3 Tflops"
        best = max(KUIPER_BELT_RUN.sustained_tflops, BINARY_BH_RUN.sustained_tflops)
        assert best == pytest.approx(35.3, abs=0.1)


class TestModelPrediction:
    @pytest.fixture
    def tuned_model(self):
        return MachineModel(tuned_machine())

    def test_predicted_wall_time_close_to_measured(self, tuned_model):
        for run in (KUIPER_BELT_RUN, BINARY_BH_RUN):
            predicted = predict_wall_hours(run, tuned_model)
            assert predicted == pytest.approx(run.wall_hours, rel=0.25)

    def test_predicted_speed_in_mid_30s_tflops(self, tuned_model):
        for run, target in ((KUIPER_BELT_RUN, 33.4), (BINARY_BH_RUN, 35.3)):
            assert predict_sustained_tflops(run, tuned_model) == pytest.approx(
                target, rel=0.25
            )

    def test_applications_run_over_half_of_machine_peak(self, tuned_model):
        # 33-35 Tflops out of 63 Tflops peak: > 50% efficiency
        peak = tuned_model.machine.peak_flops / 1e12
        assert KUIPER_BELT_RUN.sustained_tflops / peak > 0.5


class TestApplicationRunType:
    def test_derived_quantities(self):
        run = ApplicationRun("x", n=1001, individual_steps=1e6, wall_hours=1.0,
                             time_units=1.0)
        assert run.interactions == 1e6 * 1000
        assert run.wall_seconds == 3600.0
        assert run.time_per_step_us == pytest.approx(3600.0)
