"""End-to-end benchmark harness: runner, artifact, CLI, gate.

Runs the ``micro`` suite (the unit-test-sized parameterisation of the
same registered sweeps CI runs at ``smoke`` size) through the public
entry points and asserts the acceptance properties: a schema-valid
artifact with >= 4 benchmarks, phase breakdowns and environment
fingerprint; a self-compare that passes; a slowed artifact that fails.
"""

import copy
import itertools
import json
from unittest import mock

import pytest

from repro.bench import (
    REGISTRY,
    read_artifact,
    render_artifact_markdown,
    render_artifact_text,
    run_suite,
    write_artifact,
)
from repro.bench.cli import main
from repro.telemetry import PHASES, get_tracer


@pytest.fixture(scope="module")
def micro_artifact():
    return run_suite("micro", repeats=2, warmup=0, label="micro-test")


class TestRunner:
    def test_artifact_contents(self, micro_artifact):
        art = micro_artifact
        assert art["schema"] == "repro.bench/1"
        assert len(art["benchmarks"]) >= 4
        env = art["environment"]
        assert env["python"] and env["numpy"] and env["cpu_count"]
        for entry in art["benchmarks"]:
            stats = entry["stats"]["wall_s"]
            assert stats["n"] == 2
            assert stats["min"] > 0.0
            assert set(entry["phases"]["wall_us"]) <= set(PHASES)
            assert sum(entry["phases"]["wall_us"].values()) > 0.0
            assert entry["params"], entry["name"]

    def test_workload_determinism(self, micro_artifact):
        """Seeded workloads: particle-step counts must be identical
        across artifact productions (trial scatter is timing only)."""
        names = ["single_host_speed", "blockstep_phase_breakdown"]
        again = run_suite("micro", repeats=1, warmup=0, names=names)
        for name in names:
            first = next(e for e in micro_artifact["benchmarks"] if e["name"] == name)
            second = next(e for e in again["benchmarks"] if e["name"] == name)
            assert first["derived"]["particle_steps"] == second["derived"]["particle_steps"]

    def test_cluster_has_virtual_phases(self, micro_artifact):
        entry = next(
            e for e in micro_artifact["benchmarks"] if e["name"] == "exec_observatory"
        )
        virtual = entry["phases"]["virtual_us"]
        assert virtual["comm"] > 0.0
        assert virtual["barrier"] > 0.0
        assert entry["comm"]["bytes"] / entry["comm"]["messages"] > 0.0

    def test_runner_restores_process_tracer(self, micro_artifact):
        assert get_tracer().enabled is False

    def test_json_round_trip(self, micro_artifact, tmp_path):
        path = tmp_path / "BENCH_micro.json"
        write_artifact(micro_artifact, path)
        assert read_artifact(path) == json.loads(json.dumps(micro_artifact))


class TestReports:
    def test_text_report_has_phase_tables(self, micro_artifact):
        text = render_artifact_text(micro_artifact)
        assert "T_pipe" in text and "T_host" in text
        assert "us/step" in text  # the fig. 14-style column

    def test_markdown_report_tables(self, micro_artifact):
        md = render_artifact_markdown(micro_artifact)
        assert "| benchmark |" in md
        assert "fig. 14 style" in md


class TestCLI:
    def test_run_compare_report_loop(self, tmp_path, capsys):
        art = tmp_path / "BENCH_cli.json"
        base = tmp_path / "baseline.json"
        rc = main(
            [
                "run", "--suite", "micro", "--repeats", "1", "--warmup", "0",
                "--out", str(art), "--label", "cli-test",
            ]
        )
        assert rc == 0
        write_artifact(read_artifact(art), base)

        assert main(["compare", str(art), str(base)]) == 0
        out = capsys.readouterr().out
        assert "verdict: OK" in out

        assert main(["report", str(art), "--format", "markdown"]) == 0
        assert "cli-test" in capsys.readouterr().out

    def test_compare_flags_slowdown_and_warn_only(self, tmp_path, capsys):
        artifact = run_suite("micro", repeats=1, warmup=0,
                             names=["kernel_throughput"])
        base = tmp_path / "baseline.json"
        cur = tmp_path / "current.json"
        write_artifact(artifact, base)
        slowed = copy.deepcopy(artifact)
        entry = slowed["benchmarks"][0]
        entry["trials"]["wall_s"] = [w * 10.0 for w in entry["trials"]["wall_s"]]
        for key in ("min", "max", "mean", "median", "q1", "q3", "iqr"):
            entry["stats"]["wall_s"][key] *= 10.0
        write_artifact(slowed, cur)

        assert main(["compare", str(cur), str(base)]) == 1
        assert "REGRESSED" in capsys.readouterr().out
        assert main(["compare", str(cur), str(base), "--warn-only"]) == 0

    def test_compare_schema_error_is_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"schema": "nope"}')
        good = tmp_path / "good.json"
        write_artifact(run_suite("micro", repeats=1, warmup=0,
                                 names=["kernel_throughput"]), good)
        assert main(["compare", str(bad), str(good)]) == 2
        assert main(["compare", str(bad), str(good), "--warn-only"]) == 2

    def test_unknown_suite_is_exit_2(self, capsys):
        assert main(["run", "--suite", "no-such-suite"]) == 2

    def test_list_names_all_registered(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for bench in REGISTRY:
            assert bench.name in out


class TestRankObservatoryBench:
    """The exec_observatory benchmark: a validated rank section in the
    artifact."""

    def test_artifact_rank_section_validates(self, micro_artifact):
        from repro.telemetry import validate_rank_section

        entry = next(
            e for e in micro_artifact["benchmarks"]
            if e["name"] == "exec_observatory"
        )
        rank = entry["rank"]
        validate_rank_section(rank)
        assert rank["tasks"] > 0
        assert rank["n_ranks"] == entry["params"]["ranks"]
        assert rank["placement"]["blocksteps"] == rank["blocksteps"]
        derived = entry["derived"]
        assert derived["bit_identical"] == 1.0
        assert derived["virtual_identical"] == 1.0
        assert derived["publish_bytes_per_step"] > 0.0
        assert derived["real_skew_us"] >= 0.0


class TestCommCLI:
    """The comm side of the harness: the artifact's ``comm`` section and
    the ledger capture subcommand."""

    def test_artifact_carries_comm_section(self, micro_artifact):
        entry = next(e for e in micro_artifact["benchmarks"]
                     if e["name"] == "exec_observatory")
        comm = entry["comm"]
        assert comm["schema"] == "repro.comm_ledger/1"
        assert comm["barriers"] > 0 and comm["bytes"] > 0

    def test_ledger_capture_and_timeline(self, tmp_path, capsys):
        out = tmp_path / "ledger.json"
        timeline = tmp_path / "trace.json"
        rc = main([
            "ledger", "--suite", "micro",
            "--out", str(out), "--timeline", str(timeline),
        ])
        assert rc == 0
        capsys.readouterr()
        doc = json.loads(out.read_text())
        assert doc["schema"] == "repro.comm_ledger/1"
        assert doc["benchmark"] == "exec_observatory"
        assert doc["ledgers"], "expected at least one network ledger"
        from repro.telemetry.timeline import validate_timeline

        trace = json.loads(timeline.read_text())
        validate_timeline(trace)
        names = {e["name"] for e in trace["traceEvents"]}
        assert "net.barrier.wait" in names

    def test_ledger_without_networks_is_exit_2(self, capsys):
        assert main(["ledger", "--bench", "kernel_throughput",
                     "--suite", "micro"]) == 2
        assert "no simulated network" in capsys.readouterr().err


class TestSampleCLI:
    """``bench sample``: the sampled-run estimator's CLI surface.

    Structural acceptance only — the hard 5%-of-wall validation pin
    runs in CI (``--validate``) where the grape backend's timing is
    exercised at the pinned configuration.
    """

    @pytest.fixture(scope="class")
    def sample_run(self, tmp_path_factory):
        """One ``sample`` run whose spans are timed by a scripted clock
        (1 us a reading): the phase signatures, and so the regimes the
        tracker finds, are the same on any machine under any load."""
        tmp_path = tmp_path_factory.mktemp("sample")
        out_path = tmp_path / "SIG_sample.json"
        timeline = tmp_path / "trace_regimes.json"
        readings = itertools.count()
        with mock.patch("repro.telemetry.tracer.perf_counter",
                        lambda: next(readings) * 1e-6):
            code = main([
                "sample", "--model", "plummer", "--n", "16", "--seed", "3",
                "--t-end", "0.25", "--backend", "direct", "--min-prefix", "8",
                "--bootstrap", "50", "--format", "json",
                "--out", str(out_path), "--timeline", str(timeline),
            ])
        return code, out_path, timeline

    def test_exit_code_and_artifact(self, sample_run):
        code, out_path, _ = sample_run
        assert code == 0
        from repro.bench.sampling import read_sample_artifact
        art = read_sample_artifact(out_path)   # schema-validates
        assert art["kind"] == "sampled_run"
        assert art["regimes"]
        # the acceptance budget: at most a quarter of the schedule
        # simulated (plus the integer-rounding slack the gate allows)
        assert art["simulated_fraction"] <= 0.25 + 0.05
        assert art["ci_low_us"] <= art["estimated_total_us"] <= art["ci_high_us"]

    def test_regime_timeline_lane(self, sample_run):
        _, _, timeline = sample_run
        from repro.telemetry.timeline import validate_timeline
        doc = validate_timeline(json.loads(timeline.read_text()))
        lanes = [e for e in doc["traceEvents"]
                 if e.get("cat") == "regime" and e.get("ph") == "X"]
        assert lanes, "timeline carries no regime lane"
        assert all("regime" in e["args"] for e in lanes)

    def test_validate_flag_too_strict_fails(self, tmp_path, capsys):
        """An impossible error bound must trip the gate (exit 1)."""
        code = main([
            "sample", "--model", "plummer", "--n", "16", "--seed", "3",
            "--t-end", "0.25", "--backend", "direct", "--min-prefix", "8",
            "--bootstrap", "50", "--repeats", "1", "--validate",
            "--max-error", "0.0",
        ])
        assert code == 1

    def test_unknown_model_is_operational_error(self, capsys):
        code = main(["sample", "--model", "nope", "--n", "16"])
        assert code == 2
