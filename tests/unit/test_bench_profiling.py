"""cProfile phase attribution (repro.bench.profiling)."""

import cProfile

import pytest

from repro.bench import REGISTRY, attribute_profile, profile_benchmark
from repro.bench.profiling import _direct_phase
from repro.telemetry import T_BARRIER, T_COMM, T_HOST, T_OTHER, T_PIPE


class TestDirectRules:
    def test_module_rules(self):
        assert _direct_phase(("/x/repro/forces/kernels.py", 1, "f")) == T_PIPE
        assert _direct_phase(("/x/repro/hardware/chip.py", 1, "f")) == T_PIPE
        assert _direct_phase(("/x/repro/core/corrector.py", 1, "f")) == T_HOST
        assert _direct_phase(("/x/repro/telemetry/tracer.py", 1, "f")) == T_OTHER
        assert _direct_phase(("/x/numpy/_core/numeric.py", 1, "f")) is None

    def test_code_that_works_for_its_caller_has_no_phase_of_its_own(self):
        """The tiles' shared binder serves host and pipe alike, and a
        span is opened and closed inside the phase that opened it: both
        take their callers' phase; what telemetry does with a finished
        span stays overhead."""
        assert _direct_phase(("/x/repro/forces/compiled.py", 1, "address")) is None
        for name in ("span", "__enter__", "__exit__"):
            assert _direct_phase(("/x/repro/telemetry/tracer.py", 1, name)) is None
        assert _direct_phase(("/x/repro/telemetry/tracer.py", 1, "_emit")) == T_OTHER
        assert _direct_phase(("/x/repro/telemetry/sinks.py", 1, "emit")) == T_OTHER

    def test_barrier_beats_comm(self):
        key = ("/x/repro/parallel/simcomm.py", 1, "barrier")
        assert _direct_phase(key) == T_BARRIER
        key = ("/x/repro/parallel/simcomm.py", 1, "send")
        assert _direct_phase(key) == T_COMM


class TestAttribution:
    def test_callees_inherit_dominant_caller_phase(self):
        """numpy-style helpers with no rule of their own must inherit
        the phase of the code that calls them."""
        from repro.forces.kernels import pairwise_acc_jerk_pot  # noqa: F401
        import numpy as np

        from repro.forces import DirectSummation
        from repro.models import plummer_model

        system = plummer_model(64, seed=9)
        backend = DirectSummation((1.0 / 64.0) ** 2)
        backend.set_j_particles(system.pos, system.vel, system.mass)
        idx = np.arange(system.n)

        profiler = cProfile.Profile()
        profiler.enable()
        backend.forces_on(system.pos, system.vel, idx)
        profiler.disable()

        attr = attribute_profile(profiler, benchmark="kernel-only")
        # everything meaningful in this run is force work
        assert attr.phase_self_s[T_PIPE] > 0.0
        assert attr.attributed_fraction > 0.8

    def test_single_host_sweep_attribution_over_80_percent(self):
        """Acceptance bar: the profiling hook must attribute >= 80% of
        profiled self time to a paper phase for the single-host sweep."""
        bench = REGISTRY.get("single_host_speed")
        attr = profile_benchmark(bench, bench.params_for("micro"))
        assert attr.total_s > 0.0
        assert attr.attributed_fraction >= 0.8
        # the sweep is host + pipe work; both must be visible
        assert attr.phase_self_s[T_HOST] > 0.0
        assert attr.phase_self_s[T_PIPE] > 0.0

    def test_the_host_binders_addresses_are_host_time(self):
        """``repro.core.hermite_tile`` binds its arrays and buffers
        through ``repro.forces.compiled.address`` (``compiled.Bound``),
        once a run, in the host's phases - for the direct backend's
        resident j-set too, whose prediction runs inside the host's
        ``predict`` span (``DirectSummation.predict_j``).  Only the
        resident set's force call binds from the pipe's side, once, on
        fewer arrays: the profile charges ``address`` to the host."""
        from repro.forces.compiled import TIERS

        if TIERS["hermite_tile"][0] != "c":
            pytest.skip("the numpy tier takes no addresses")
        bench = REGISTRY.get("single_host_speed")
        attr = profile_benchmark(bench, bench.params_for("micro"), top=500)
        phases = [h.phase for h in attr.hotspots if h.where.endswith("(address)")]
        assert phases == [T_HOST]

    def test_cluster_profile_sees_comm(self):
        bench = REGISTRY.get("exec_observatory")
        attr = profile_benchmark(bench, bench.params_for("micro"))
        assert attr.phase_self_s[T_COMM] > 0.0

    def test_hotspots_report_shape(self):
        bench = REGISTRY.get("single_host_speed")
        attr = profile_benchmark(bench, bench.params_for("micro"), top=5)
        assert len(attr.hotspots) == 5
        # descending self time
        selfs = [h.self_s for h in attr.hotspots]
        assert selfs == sorted(selfs, reverse=True)
        d = attr.as_dict()
        assert d["benchmark"] == "single_host_speed"
        assert 0.0 <= d["attributed_fraction"] <= 1.0

    def test_render_profile_text(self):
        from repro.bench import render_profile_text

        bench = REGISTRY.get("single_host_speed")
        attr = profile_benchmark(bench, bench.params_for("micro"), top=3)
        text = render_profile_text(attr)
        assert "attributed to paper phases" in text
        assert "T_pipe" in text
        assert "hotspots" in text
