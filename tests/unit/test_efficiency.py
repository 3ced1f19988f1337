"""Unit coverage for the efficiency observatory: degenerate inputs
(the ISSUE's "never NaN" cases), hardware-profile detection, timeline
lane/pid registry and the perfmodel bucket mapping."""

import math

import pytest

from repro.config import (
    ChipConfig,
    MachineConfig,
    NodeConfig,
    cluster_machine,
    single_node_machine,
)
from repro.core.individual import BlockTimestepIntegrator
from repro.hardware import Grape6Emulator
from repro.models import plummer_model
from repro.perfmodel import MachineModel
from repro.telemetry import (
    BUCKETS,
    EFFICIENCY_PID,
    EFFICIENCY_SCHEMA,
    TRACE_PIDS,
    EfficiencyError,
    FlopsLedger,
    HardwareProfile,
    SpanEvent,
    Tracer,
    build_timeline,
    efficiency_from_events,
    efficiency_trace_events,
    validate_efficiency,
    validate_timeline,
)

EPS2 = 1.0 / 4096.0


def blockstep_event(span_id=1, dur_us=100.0, v_dur_us=None, n_block=8, n=64):
    return SpanEvent(
        name="blockstep", span_id=span_id, parent_id=None, depth=0,
        t_start_us=0.0, dur_us=dur_us, phase="host", v_start_us=None,
        v_dur_us=v_dur_us, attrs={"n_block": n_block, "n": n, "t": 0.5},
    )


def assert_finite_and_conserved(rec):
    total = rec.real_flops + sum(rec.buckets.values())
    assert math.isfinite(total) and math.isfinite(rec.fraction_of_peak)
    assert abs(total - rec.peak_flops) <= max(1e-9 * rec.peak_flops, 1e-6)


class TestDegenerateBlocksteps:
    def test_zero_active_blockstep(self):
        """n_block=0 (a blockstep that scheduled nobody) must yield a
        plain-zero record, never NaN."""
        led = FlopsLedger()
        led.emit(blockstep_event(n_block=0, n=0))
        rec = led.latest
        assert rec.real_flops == 0.0
        assert rec.fraction_of_peak == 0.0
        assert_finite_and_conserved(rec)
        validate_efficiency(led.summary())

    def test_zero_duration_blockstep(self):
        led = FlopsLedger()
        led.emit(blockstep_event(dur_us=0.0))
        rec = led.latest
        assert rec.peak_flops == 0.0
        assert rec.fraction_of_peak == 0.0
        assert_finite_and_conserved(rec)
        validate_efficiency(led.summary())

    def test_empty_run_summary(self):
        doc = FlopsLedger().summary()
        assert doc["blocksteps"] == 0 and doc["clock"] == "none"
        validate_efficiency(doc)

    def test_single_rank_no_comm_ledger(self):
        """summary(comm=None) — a single-rank network-less run — keeps
        comm/barrier at exactly 0.0."""
        led = FlopsLedger()
        led.emit(blockstep_event())
        doc = led.summary(comm=None)
        assert doc["buckets"]["comm"]["flops"] == 0.0
        assert doc["buckets"]["barrier"]["flops"] == 0.0
        validate_efficiency(doc)

    def test_faithful_fallback_mid_run(self):
        """Knocking one chip's eps2 out from under the batched datapath
        mid-run (forcing the faithful fallback) must not break the
        per-blockstep identity."""
        emu = Grape6Emulator(EPS2, emulation_mode="batched")
        led = FlopsLedger(hardware=emu)
        integ = BlockTimestepIntegrator(
            plummer_model(16, seed=9), EPS2, eta=0.02, backend=emu,
            tracer=Tracer(enabled=True, sinks=[led]),
        )
        for _ in range(6):
            integ.step()
        emu._all_chips[0].set_eps2(4.0 * EPS2)  # diverge -> faithful path
        for _ in range(6):
            integ.step()
        assert led.count >= 12
        for rec in led.records:
            assert_finite_and_conserved(rec)
        validate_efficiency(led.summary())


class TestHardwareProfile:
    def test_default_is_single_host(self):
        hw = HardwareProfile.detect(None)
        node = NodeConfig()
        assert hw.n_chips == node.chips
        assert hw.lanes_per_chip == node.board.chip.iparallel
        assert hw.flops_per_s == pytest.approx(node.peak_flops)

    def test_emulator_introspection(self):
        emu = Grape6Emulator(EPS2, boards=2)
        hw = HardwareProfile.detect(emu)
        assert hw.n_chips == emu.n_chips
        assert hw.flops_per_s == pytest.approx(emu.peak_flops())
        assert hw.lanes_per_chip == emu.lanes_per_chip

    def test_config_walk(self):
        for config in (ChipConfig(), NodeConfig(), MachineConfig(),
                       cluster_machine(2), single_node_machine()):
            hw = HardwareProfile.detect(config)
            assert hw.flops_per_s == pytest.approx(config.peak_flops)
            assert hw.lanes_per_chip == ChipConfig().iparallel

    def test_passthrough_and_reject(self):
        hw = HardwareProfile(n_chips=1, lanes_per_chip=48, flops_per_s=1e9)
        assert HardwareProfile.detect(hw) is hw
        with pytest.raises(EfficiencyError):
            HardwareProfile.detect(object())


class TestValidateEfficiency:
    def test_rejects_wrong_schema(self):
        doc = FlopsLedger().summary()
        doc["schema"] = "repro.efficiency/99"
        with pytest.raises(EfficiencyError):
            validate_efficiency(doc)

    def test_rejects_missing_bucket(self):
        doc = FlopsLedger().summary()
        del doc["buckets"]["retry"]
        with pytest.raises(EfficiencyError):
            validate_efficiency(doc)

    def test_rejects_nan(self):
        doc = FlopsLedger().summary()
        doc["buckets"]["host"]["flops"] = float("nan")
        with pytest.raises(EfficiencyError):
            validate_efficiency(doc)

    def test_rejects_broken_identity(self):
        led = FlopsLedger()
        led.emit(blockstep_event())
        doc = led.summary()
        doc["buckets"]["other"]["flops"] += 2.0 * doc["peak_flops"] + 1.0
        with pytest.raises(EfficiencyError):
            validate_efficiency(doc)


class TestTimelineLane:
    def test_registry_pids_are_unique(self):
        assert len(set(TRACE_PIDS.values())) == len(TRACE_PIDS)
        assert EFFICIENCY_PID == TRACE_PIDS["efficiency"]

    def test_trace_events_validate_alongside_base_lanes(self):
        led = FlopsLedger()
        led.emit(blockstep_event(dur_us=50.0))
        led.emit(blockstep_event(span_id=2, dur_us=0.0))  # instant event
        doc = build_timeline([], extra_events=efficiency_trace_events(led))
        validate_timeline(doc)
        pids = {e["pid"] for e in doc["traceEvents"]
                if e.get("args", {}).get("blockstep") is not None}
        assert pids == {EFFICIENCY_PID}

    def test_pid_collision_detected(self):
        doc = {"traceEvents": [
            {"name": "process_name", "ph": "M", "pid": 7, "tid": 0,
             "args": {"name": "lane A"}},
            {"name": "process_name", "ph": "M", "pid": 7, "tid": 0,
             "args": {"name": "lane B"}},
        ]}
        with pytest.raises(ValueError, match="claimed by two processes"):
            validate_timeline(doc)

    def test_same_name_same_pid_is_fine(self):
        doc = {"traceEvents": [
            {"name": "process_name", "ph": "M", "pid": 7, "tid": 0,
             "args": {"name": "lane A"}},
            {"name": "process_name", "ph": "M", "pid": 7, "tid": 0,
             "args": {"name": "lane A"}},
        ]}
        validate_timeline(doc)


class TestReplayAndSubtrees:
    def test_replay_matches_streaming(self):
        emu = Grape6Emulator(EPS2)
        streaming = FlopsLedger(hardware=emu)
        from repro.telemetry import InMemorySink

        sink = InMemorySink()
        integ = BlockTimestepIntegrator(
            plummer_model(12, seed=4), EPS2, eta=0.02, backend=emu,
            tracer=Tracer(enabled=True, sinks=[sink, streaming]),
        )
        for _ in range(10):
            integ.step()
        replayed = efficiency_from_events(sink.events, hardware=emu)
        assert replayed.count == streaming.count
        assert replayed.peak_flops == pytest.approx(streaming.peak_flops)
        for b in BUCKETS:
            assert replayed.bucket_flops[b] == pytest.approx(
                streaming.bucket_flops[b]
            )

    def test_schema_constant(self):
        assert FlopsLedger().summary()["schema"] == EFFICIENCY_SCHEMA


class TestPerfmodelBuckets:
    def test_fractions_sum_to_one(self):
        model = MachineModel(cluster_machine(4))
        for n in (64, 1024, 16384):
            buckets = model.efficiency_buckets(n)
            assert sum(buckets.values()) == pytest.approx(1.0)
            assert all(v >= 0.0 for v in buckets.values())
            assert buckets["real"] == pytest.approx(
                model.efficiency(n), rel=1e-6
            )

    def test_bucket_names_match_taxonomy(self):
        buckets = MachineModel(single_node_machine()).efficiency_buckets(256)
        assert set(buckets) == set(BUCKETS) | {"real"}
