"""Telemetry over the real code paths: integrators, emulated hardware
and the simulated parallel machine.

These are the acceptance tests of the subsystem: a Hermite + emulator
+ simcomm run must produce the paper's T_host/T_pipe/T_comm/T_barrier
attribution, and the permanently-instrumented hot paths must cost <5%
when tracing is off (the production default)."""

from __future__ import annotations

import time

import numpy as np
import pytest

from benchmarks.test_sink_budget import replay_blocksteps, supervisor_tracer
from repro import telemetry
from repro.core.hermite import HermiteIntegrator
from repro.core.individual import BlockTimestepIntegrator
from repro.hardware.system import Grape6Emulator
from repro.models import plummer_model
from repro.parallel.copy_algorithm import CopyAlgorithm
from repro.parallel.driver import ParallelBlockIntegrator
from repro.parallel.simcomm import SimNetwork
from repro.telemetry import (
    InMemorySink,
    PhaseAggregator,
    T_BARRIER,
    T_COMM,
    T_HOST,
    T_PIPE,
    Tracer,
    get_tracer,
    render_breakdown,
    set_tracer,
)
from tests.conftest import EPS2


@pytest.fixture
def enabled_tracer():
    """Globally-enabled tracer with an in-memory sink, restored after."""
    sink = InMemorySink()
    tracer = Tracer(enabled=True, sinks=[sink])
    old = set_tracer(tracer)
    yield tracer, sink
    set_tracer(old)


class TestEmulatedRunBreakdown:
    def test_hermite_on_emulator_attributes_host_and_pipe(self, enabled_tracer):
        _, sink = enabled_tracer
        system = plummer_model(32, seed=11)
        integ = BlockTimestepIntegrator(
            system, eps2=EPS2, backend=Grape6Emulator(EPS2, boards=1)
        )
        integ.run(0.03125)
        assert integ.stats.blocksteps > 0

        b = PhaseAggregator().consume(sink.events).breakdown()
        # both paper phases observed, nothing lost to "other"
        assert b.wall.totals[T_HOST] > 0.0
        assert b.wall.totals[T_PIPE] > 0.0
        assert b.wall.totals["other"] == 0.0
        # the bit-level emulator dominates, as T_GRAPE would
        assert b.wall.totals[T_PIPE] > b.wall.totals[T_HOST]
        # attribution conserves time: phases sum to the root spans
        roots = sum(e.dur_us for e in sink.events if e.parent_id is None)
        assert b.wall.total_us == pytest.approx(roots, rel=1e-9)

        # the spans agree with the counts the stats objects keep
        blocksteps = [e for e in sink.events if e.name == "blockstep"]
        assert len(blocksteps) == integ.stats.blocksteps
        assert sum(e.attrs["n_block"] for e in blocksteps) == (
            integ.stats.particle_steps
        )
        assert sum(
            e.attrs.get("exponent_retries", 0)
            for e in sink.events if e.name == "grape.force"
        ) == integ.backend.stats.exponent_retries

        report = render_breakdown(b)
        assert "T_host" in report and "T_pipe" in report

    def test_shared_hermite_instrumented(self, enabled_tracer):
        _, sink = enabled_tracer
        system = plummer_model(32, seed=3)
        integ = HermiteIntegrator(system, eps2=EPS2)
        for _ in range(3):
            integ.step()
        names = {e.name for e in sink.events}
        assert {"step", "predict", "force", "correct", "timestep"} <= names


class TestParallelRunBreakdown:
    def test_simcomm_run_attributes_comm_and_barrier(self):
        sink = InMemorySink()
        tracer = Tracer(enabled=True, sinks=[sink])
        old = set_tracer(tracer)
        try:
            network = SimNetwork(4)
            network.attach_tracer(tracer)  # virtual-clock wiring
            system = plummer_model(32, seed=5)
            integ = ParallelBlockIntegrator(
                system, EPS2, CopyAlgorithm(network, EPS2)
            )
            integ.run(0.03125)
        finally:
            set_tracer(old)

        b = PhaseAggregator().consume(sink.events).breakdown()
        # all four paper phases present in the wall-clock domain
        for phase in (T_HOST, T_PIPE, T_COMM, T_BARRIER):
            assert b.wall.totals[phase] > 0.0, phase

        # the virtual domain (the simulated machine's time) exists and
        # puts all cost in communication + synchronisation: the copy
        # algorithm only advances clocks on the network
        assert b.virtual is not None
        assert b.virtual.totals[T_COMM] > 0.0
        assert b.virtual.totals[T_BARRIER] > 0.0
        assert b.virtual.totals[T_HOST] == pytest.approx(0.0)
        # virtual attribution conserves the simulated wall-clock
        assert b.virtual.total_us == pytest.approx(
            network.clock.elapsed, rel=1e-9
        )

        # one barrier span per barrier the network counts, and the
        # ledger's traffic is the network's
        barriers = [e for e in sink.events if e.name == "net.barrier"]
        assert len(barriers) == network.stats.barriers
        assert sum(e.attrs["rounds"] for e in barriers) == (
            network.ledger.barrier_rounds
        )
        assert network.ledger.messages == network.stats.messages
        assert network.ledger.bytes == network.stats.bytes

        report = render_breakdown(b)
        assert "virtual [ms]" in report
        assert "T_barrier" in report


#: Interleaved repeats of each timing ratio below: the run and the
#: replay take turns, and each side's floor (its fastest repeat) is
#: compared, so one busy moment on a shared box cannot trip a bound.
REPEATS = 3


def timed_run() -> tuple[float, int]:
    """Seconds and blocksteps of the 2048-particle Hermite run, with the
    process's (disabled) tracer."""
    system = plummer_model(2048, seed=42)
    t0 = time.perf_counter()
    integ = BlockTimestepIntegrator(system, eps2=EPS2)
    integ.run(0.03125)
    return time.perf_counter() - t0, integ.stats.blocksteps


def floors(replay) -> tuple[float, float, int]:
    """The floors of :func:`timed_run` and of ``replay(blocksteps)`` (its
    seconds) over :data:`REPEATS` interleaved repeats, and the run's
    blocksteps."""
    t_run = t_overhead = float("inf")
    for _ in range(REPEATS):
        elapsed, blocksteps = timed_run()
        t_run = min(t_run, elapsed)
        t_overhead = min(t_overhead, replay(blocksteps))
    return t_run, t_overhead, blocksteps


class TestDisabledOverhead:
    def test_disabled_tracer_overhead_under_5_percent(self):
        """The permanent instrumentation must be near-free when off.

        Measures a real 2048-particle Hermite run with the (default)
        disabled tracer, then measures the cost of every span and hook
        call that run issued, re-played against the same disabled
        tracer.  The replay's floor must cost <5% of the run's (floors
        over interleaved repeats).  (The replay grows with the
        blocksteps, the run with blocksteps x N: at 2048 particles it
        reads 0.3-0.6 %, so the bound trips on the instrumentation
        getting ten times dearer, not on a busy box; at 256 the
        compiled kernel had brought it to 2-4 %.)
        """
        tracer = get_tracer()
        assert not tracer.enabled  # the process default

        def replay(blocksteps):
            # per blockstep: 5 spans (blockstep/predict/force/correct/
            # schedule) + the observe hook; over-count it generously
            n_calls = 16 * (blocksteps + 1)
            t0 = time.perf_counter()
            for _ in range(n_calls):
                with tracer.span("blockstep", phase=T_HOST, n_block=8):
                    pass
                tracer.observe("core.block_size", 8)
            return time.perf_counter() - t0

        t_run, t_overhead, blocksteps = floors(replay)
        assert blocksteps > 0
        assert t_overhead < 0.05 * t_run, (
            f"disabled-tracer overhead {t_overhead:.4f}s is >=5% of the "
            f"{t_run:.4f}s run ({blocksteps} blocksteps; floors of {REPEATS})"
        )

    def test_supervisor_sink_set_overhead_under_10_percent(self):
        """The stated bound with all observatories on, by the same
        replay: the span and hook calls of the 2048-particle run
        through the sink set the job supervisor installs (fold,
        signature recorder, regime tracker, flops ledger) must cost
        <10% of the run (floors over interleaved repeats).  Reads about
        4 %: the set costs 30-40 us a blockstep whatever N is, the run
        about 1 ms a blockstep here.
        """
        def replay(blocksteps):
            tracer = supervisor_tracer()
            t0 = time.perf_counter()
            replay_blocksteps(tracer, blocksteps + 1)  # + the startup pass
            elapsed = time.perf_counter() - t0
            (fold,) = tracer.sinks
            assert fold.blocksteps == blocksteps + 1
            return elapsed

        t_run, t_overhead, blocksteps = floors(replay)
        assert t_overhead < 0.10 * t_run, (
            f"the supervisor's sink set costs {t_overhead:.4f}s, >=10% of "
            f"the {t_run:.4f}s run ({blocksteps} blocksteps; floors of {REPEATS})"
        )

    def test_disabled_run_leaves_no_events(self):
        sink = InMemorySink()
        old = set_tracer(Tracer(enabled=False, sinks=[sink]))
        try:
            system = plummer_model(16, seed=9)
            BlockTimestepIntegrator(system, eps2=EPS2).run(0.0625)
        finally:
            set_tracer(old)
        assert sink.events == []


class TestTracedTrajectoriesUnchanged:
    def test_tracing_does_not_perturb_the_integration(self):
        """Telemetry observes; it must never change the physics."""
        sys_a = plummer_model(24, seed=77)
        sys_b = plummer_model(24, seed=77)

        integ_a = BlockTimestepIntegrator(sys_a, eps2=EPS2)
        integ_a.run(0.0625)

        sink = InMemorySink()
        tracer = Tracer(enabled=True, sinks=[sink])
        integ_b = BlockTimestepIntegrator(sys_b, eps2=EPS2, tracer=tracer)
        integ_b.run(0.0625)

        assert len(sink.events) > 0
        np.testing.assert_array_equal(sys_a.pos, sys_b.pos)
        np.testing.assert_array_equal(sys_a.vel, sys_b.vel)
