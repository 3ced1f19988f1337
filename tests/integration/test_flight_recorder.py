"""End-to-end flight recorder: profile + timeline + CLI.

The acceptance properties pinned here:

* ``profile --timeline`` writes the profiled trial's spans as Chrome
  trace-event JSON that parses and validates (X events, microsecond
  ts, pid/tid) and prints their exact phase budget;
* ``run --seed`` threads the workload seed into the artifact.
"""

import json

import pytest

from repro.bench import (
    read_artifact,
    run_suite,
    write_artifact,
)
from repro.bench.cli import main
from repro.telemetry import validate_timeline


class TestTimelineCLI:
    def test_profile_timeline_flag_writes_valid_trace(self, tmp_path, capsys):
        path = tmp_path / "trace.json"
        rc = main([
            "profile", "--bench", "blockstep_phase_breakdown",
            "--suite", "micro", "--timeline", str(path),
        ])
        assert rc == 0
        doc = validate_timeline(json.loads(path.read_text()))
        events = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert len(events) > 10
        # microsecond ts, monotonic within the wall-clock process
        wall = [e["ts"] for e in events if e["pid"] == 1]
        assert wall == sorted(wall)
        assert all("pid" in e and "tid" in e for e in events)
        out = capsys.readouterr().out
        assert "span attribution (exact self-times)" in out
        assert f"({len(events)} spans)" in out


@pytest.fixture(scope="module")
def micro_artifact(tmp_path_factory):
    """A micro-suite artifact run with a seed override, on disk."""
    path = tmp_path_factory.mktemp("artifacts") / "BENCH_a.json"
    write_artifact(run_suite("micro", repeats=2, warmup=0, label="flight-a",
                             names=["single_host_speed", "kernel_throughput"],
                             seed=1234), path)
    return path


class TestSeedAndTag:
    def test_flags_recorded_in_artifact(self, micro_artifact):
        artifact = read_artifact(micro_artifact)
        assert artifact["seed"] == 1234
        for entry in artifact["benchmarks"]:
            if "seed" in entry["params"]:
                assert entry["params"]["seed"] == 1234

    def test_cli_run_accepts_flags(self, tmp_path):
        out = tmp_path / "BENCH_cli.json"
        rc = main([
            "run", "--suite", "micro", "--bench", "kernel_throughput",
            "--repeats", "1", "--warmup", "0", "--seed", "7",
            "--out", str(out),
        ])
        assert rc == 0
        artifact = read_artifact(out)
        assert artifact["seed"] == 7
