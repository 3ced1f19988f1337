"""Ledger-fed calibration fits and the calibration.json lifecycle."""


import json

import pytest

from repro.config import NIC_INTEL82540EM, NIC_NS83820
from repro.parallel import SimNetwork, merge_comm_summaries
from repro.perfmodel.calibrate import (
    CALIBRATION_SCHEMA,
    CalibrationError,
    calibrate_artifacts,
    calibrated_environment,
    fit_environment,
    load_calibration,
    merge_calibration,
    save_calibration,
    validate_calibration,
)

ENV_A = {
    "python": "3.11.1",
    "implementation": "cpython",
    "platform": "linux",
    "machine": "x86_64",
    "cpu_count": 8,
    "numpy": "1.26.0",
}
ENV_B = {**ENV_A, "machine": "aarch64"}


def _network_summary(nic, p, payload_bytes):
    """Measured ledger of one allgather + one barrier on ``nic``."""
    net = SimNetwork(p, nic)
    with net.exchange_phase("ring"):
        net.allgather(nbytes_each=payload_bytes)
    net.barrier()
    return net.ledger.summary()


def _artifact(env, entries, label="test"):
    return {
        "schema": "repro.bench/1",
        "label": label,
        "suite": "micro",
        "environment": dict(env),
        "benchmarks": entries,
    }


def _entry(name, networks=(), derived=None):
    entry = {"name": name, "derived": dict(derived or {})}
    if networks:
        entry["comm"] = merge_comm_summaries(networks)
    return entry


class TestFits:
    def test_nic_constants_recovered_exactly(self):
        # two payload sizes per NIC -> the 16-byte collective regime and
        # the payload regime span the fitted line; the linear cost model
        # is exact, so the fit must return the configured constants
        entries = [
            _entry("a", [_network_summary(NIC_NS83820, 4, 600)]),
            _entry("b", [_network_summary(NIC_NS83820, 4, 60000)]),
            _entry("c", [_network_summary(NIC_INTEL82540EM, 8, 2100)]),
            _entry("d", [_network_summary(NIC_INTEL82540EM, 8, 84000)]),
        ]
        fit = fit_environment([_artifact(ENV_A, entries)])
        ns = fit["nics"][NIC_NS83820.name]
        intel = fit["nics"][NIC_INTEL82540EM.name]
        assert ns["rtt_latency_us"] == pytest.approx(
            NIC_NS83820.rtt_latency_us, rel=1e-6)
        assert ns["bandwidth_mbs"] == pytest.approx(
            NIC_NS83820.bandwidth_mbs, rel=1e-6)
        assert intel["rtt_latency_us"] == pytest.approx(
            NIC_INTEL82540EM.rtt_latency_us, rel=1e-6)
        assert intel["bandwidth_mbs"] == pytest.approx(
            NIC_INTEL82540EM.bandwidth_mbs, rel=1e-6)
        # barrier flight per round: rtt/2 + 16 bytes / bandwidth
        assert ns["barrier_flight_us"] == pytest.approx(
            NIC_NS83820.rtt_latency_us / 2.0
            + 16.0 / NIC_NS83820.bandwidth_mbs, rel=1e-6)
        assert ns["barrier_rounds_seen"] > 0

    def test_host_scale_and_anchors(self):
        entries = [
            _entry("bench1", derived={
                "model_us_per_step": 10.0,
                "virtual_us_per_step": 20.0,
                "model_over_measured": 0.5,
            }),
            _entry("bench2", derived={
                "model_us_per_step": 7.0,
                "virtual_us_per_step": 14.0,
                "model_over_measured": 0.5,
            }),
        ]
        fit = fit_environment([_artifact(ENV_A, entries)])
        assert fit["host_scale"] == pytest.approx(2.0)
        assert fit["model_anchors"] == {"bench1": 0.5, "bench2": 0.5}
        assert fit["n_artifacts"] == 1
        assert fit["sources"] == ["test"]

    def test_empty_and_mixed_environments_rejected(self):
        with pytest.raises(CalibrationError):
            fit_environment([])
        with pytest.raises(CalibrationError):
            fit_environment([
                _artifact(ENV_A, []),
                _artifact(ENV_B, []),
            ])

    def test_calibrate_artifacts_groups_by_env(self):
        doc = calibrate_artifacts([
            _artifact(ENV_A, []),
            _artifact(ENV_B, []),
        ])
        assert doc["schema"] == CALIBRATION_SCHEMA
        assert len(doc["environments"]) == 2
        for key, entry in doc["environments"].items():
            assert entry["env_key"] == key
        with pytest.raises(CalibrationError):
            calibrate_artifacts([])


class TestDocumentLifecycle:
    def test_validate_failures(self):
        with pytest.raises(CalibrationError):
            validate_calibration([])
        with pytest.raises(CalibrationError):
            validate_calibration({"schema": "bogus/1"})
        with pytest.raises(CalibrationError):
            validate_calibration(
                {"schema": CALIBRATION_SCHEMA, "environments": []})
        with pytest.raises(CalibrationError):
            validate_calibration({
                "schema": CALIBRATION_SCHEMA,
                "environments": {"abc": {"nics": {}}},  # no model_anchors
            })

    def test_load_missing_is_empty(self, tmp_path):
        doc = load_calibration(tmp_path / "nope.json")
        assert doc["environments"] == {}

    def test_load_rejects_bad_json(self, tmp_path):
        path = tmp_path / "calibration.json"
        path.write_text("{not json")
        with pytest.raises(CalibrationError):
            load_calibration(path)

    def test_save_load_roundtrip(self, tmp_path):
        doc = calibrate_artifacts([_artifact(ENV_A, [])])
        path = tmp_path / "benchmarks" / "calibration.json"
        save_calibration(doc, path)
        assert json.loads(path.read_text())["schema"] == CALIBRATION_SCHEMA
        assert load_calibration(path) == doc

    def test_merge_replaces_per_environment(self):
        base = calibrate_artifacts([_artifact(ENV_A, []), _artifact(ENV_B, [])])
        update = calibrate_artifacts([_artifact(ENV_A, [
            _entry("x", derived={"model_over_measured": 1.5}),
        ])])
        merged = merge_calibration(base, update)
        assert len(merged["environments"]) == 2
        entry = calibrated_environment(merged, ENV_A)
        assert entry["model_anchors"] == {"x": 1.5}

    def test_calibrated_environment_lookup(self):
        doc = calibrate_artifacts([_artifact(ENV_A, [])])
        assert calibrated_environment(doc, ENV_A) is not None
        assert calibrated_environment(doc, ENV_B) is None
        assert calibrated_environment(None, ENV_A) is None
        assert calibrated_environment({}, ENV_A) is None
