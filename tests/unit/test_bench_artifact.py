"""BENCH_*.json schema: write -> read -> compare round trip and
validation failure modes (repro.bench.artifact)."""

import json

import pytest

from repro.bench import (
    SCHEMA,
    ArtifactError,
    benchmark_entry,
    compare_artifacts,
    read_artifact,
    validate_artifact,
    write_artifact,
)
from repro.bench.stats import trial_stats


def make_entry(name="kernel", wall=(1.0, 1.1, 1.05)):
    return {
        "name": name,
        "title": "test benchmark",
        "paper_ref": "fig. 0",
        "params": {"n": 64, "seed": 1},
        "trials": {"wall_s": list(wall)},
        "stats": {"wall_s": trial_stats(wall).as_dict()},
        "phases": {
            "wall_us": {"host": 200.0, "pipe": 800.0},
            "wall_fraction": {"host": 0.2, "pipe": 0.8},
            "n_events": 10,
        },
        "metrics": {},
        "derived": {"speed": 1.0},
    }


def make_artifact(entries=None, label="test"):
    return {
        "schema": SCHEMA,
        "label": label,
        "suite": "unit",
        "created_unix": 0.0,
        "environment": {"python": "x"},
        "benchmarks": entries if entries is not None else [make_entry()],
    }


class TestRoundTrip:
    def test_write_read_compare(self, tmp_path):
        """The acceptance round trip: artifact -> disk -> gate."""
        path = tmp_path / "BENCH_unit.json"
        artifact = make_artifact()
        write_artifact(artifact, path)
        again = read_artifact(path)
        assert again == artifact
        result = compare_artifacts(again, artifact)
        assert result.ok
        assert [v.status for v in result.verdicts] == ["PASS"]

    def test_written_file_is_stable_json(self, tmp_path):
        path = tmp_path / "BENCH_unit.json"
        write_artifact(make_artifact(), path)
        text = path.read_text()
        assert text.endswith("\n")
        assert json.loads(text)["schema"] == SCHEMA

    def test_benchmark_entry_lookup(self):
        artifact = make_artifact([make_entry("a"), make_entry("b")])
        assert benchmark_entry(artifact, "b")["name"] == "b"
        assert benchmark_entry(artifact, "zzz") is None


class TestValidation:
    def test_missing_root_key(self):
        bad = make_artifact()
        del bad["environment"]
        with pytest.raises(ArtifactError, match="environment"):
            validate_artifact(bad)

    def test_wrong_schema_version(self):
        bad = make_artifact()
        bad["schema"] = "repro.bench/999"
        with pytest.raises(ArtifactError, match="schema"):
            validate_artifact(bad)

    def test_empty_benchmark_list(self):
        with pytest.raises(ArtifactError, match="non-empty"):
            validate_artifact(make_artifact(entries=[]))

    def test_duplicate_names(self):
        with pytest.raises(ArtifactError, match="duplicate"):
            validate_artifact(make_artifact([make_entry("a"), make_entry("a")]))

    def test_entry_missing_phases(self):
        entry = make_entry()
        del entry["phases"]
        with pytest.raises(ArtifactError, match="phases"):
            validate_artifact(make_artifact([entry]))

    def test_unreadable_file(self, tmp_path):
        path = tmp_path / "BENCH_bad.json"
        path.write_text("{not json")
        with pytest.raises(ArtifactError, match="JSON"):
            read_artifact(path)

    def test_write_refuses_invalid(self, tmp_path):
        with pytest.raises(ArtifactError):
            write_artifact({"schema": SCHEMA}, tmp_path / "x.json")
        assert not (tmp_path / "x.json").exists()

    def test_the_retired_exec_backend_root_key_still_validates(self):
        """Artifacts written while ``run`` still took a backend override
        carry it at the root; the checker ignores keys its spec does not
        name, so they read back unchanged."""
        old = {**make_artifact(), "exec_backend": "process:2"}
        assert validate_artifact(old) is old
