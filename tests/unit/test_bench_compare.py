"""The noise-aware regression gate (repro.bench.compare).

The two properties the gate must have, proven on synthetic series:
no false positives on timing noise inside the floor, and reliable
detection of a genuine 2x slowdown.
"""

import random

from repro.bench import (
    IMPROVED,
    MISSING,
    NEW,
    PASS,
    REGRESSED,
    SCHEMA,
    compare_artifacts,
    compare_benchmark,
)
from repro.bench.stats import trial_stats


def make_entry(name, wall):
    return {
        "name": name,
        "paper_ref": "fig. 0",
        "params": {},
        "trials": {"wall_s": list(wall)},
        "stats": {"wall_s": trial_stats(wall).as_dict()},
        "phases": {"wall_us": {"host": 1.0}, "n_events": 1},
        "metrics": {},
        "derived": {},
    }


def make_artifact(entries):
    return {
        "schema": SCHEMA,
        "label": "t",
        "suite": "unit",
        "environment": {},
        "benchmarks": entries,
    }


def noisy_series(rng, base, rel_noise, n=5):
    """Symmetric multiplicative timing noise around ``base``."""
    return [base * (1.0 + rng.uniform(-rel_noise, rel_noise)) for _ in range(n)]


class TestNoFalsePositives:
    def test_identical_series_pass(self):
        v = compare_benchmark(make_entry("k", [1.0, 1.0]), make_entry("k", [1.0, 1.0]))
        assert v.status == PASS and v.ratio == 1.0

    def test_noise_within_floor_never_regresses(self):
        """100 re-measurements of the same workload with 10% scatter:
        the gate must call every one PASS."""
        rng = random.Random(2003)
        base = make_entry("k", noisy_series(rng, 1.0, 0.10))
        for _ in range(100):
            cur = make_entry("k", noisy_series(rng, 1.0, 0.10))
            v = compare_benchmark(cur, base)
            assert v.status == PASS, (v.status, v.ratio, v.threshold)

    def test_wide_iqr_raises_the_floor(self):
        """With very noisy trials the IQR floor must exceed the
        relative threshold so a 30% median shift still passes."""
        base = make_entry("k", [1.0, 1.6, 0.7, 1.9, 0.9])
        cur = make_entry("k", [1.3, 2.1, 0.9, 2.5, 1.2])
        v = compare_benchmark(cur, base)
        assert v.threshold > 0.5
        assert v.status == PASS


class TestDetection:
    def test_two_x_slowdown_always_detected(self):
        """A genuine 2x slowdown must be flagged despite 10% noise."""
        rng = random.Random(42)
        for _ in range(100):
            base = make_entry("k", noisy_series(rng, 1.0, 0.10))
            cur = make_entry("k", noisy_series(rng, 2.0, 0.10))
            v = compare_benchmark(cur, base)
            assert v.status == REGRESSED, (v.ratio, v.threshold)

    def test_two_x_speedup_reports_improved(self):
        v = compare_benchmark(
            make_entry("k", [0.5, 0.51, 0.49]), make_entry("k", [1.0, 1.02, 0.98])
        )
        assert v.status == IMPROVED

    def test_artificially_slowed_benchmark_flags_regressed(self):
        """The acceptance scenario: take a real-shaped artifact, slow
        one benchmark 2x, and the artifact-level gate must fail with
        exactly that benchmark named."""
        baseline = make_artifact(
            [make_entry("kernel", [1.0, 1.05, 0.95]), make_entry("sweep", [2.0, 2.1, 1.9])]
        )
        slowed = make_artifact(
            [make_entry("kernel", [1.0, 1.05, 0.95]), make_entry("sweep", [4.0, 4.2, 3.8])]
        )
        result = compare_artifacts(slowed, baseline)
        assert not result.ok
        assert [v.name for v in result.regressed] == ["sweep"]
        kernel = next(v for v in result.verdicts if v.name == "kernel")
        assert kernel.status == PASS


class TestMembership:
    def test_new_and_missing_are_informational(self):
        baseline = make_artifact([make_entry("old", [1.0])])
        current = make_artifact([make_entry("new", [1.0])])
        result = compare_artifacts(current, baseline)
        statuses = {v.name: v.status for v in result.verdicts}
        assert statuses == {"new": NEW, "old": MISSING}
        assert result.ok  # membership changes never fail the gate

    def test_the_adopt_note_names_a_command_the_cli_parses(self):
        """A new benchmark's note says how to re-record the baseline,
        and that command line is one ``python -m repro.bench`` accepts."""
        import shlex

        from repro.bench.cli import _cmd_run, build_parser

        result = compare_artifacts(make_artifact([make_entry("new", [1.0])]),
                                   make_artifact([make_entry("old", [1.0])]))
        verdict = next(v for v in result.verdicts if v.status == NEW)
        _, command = verdict.note.split("python -m repro.bench ")
        args = build_parser().parse_args(shlex.split(command))
        assert args.func is _cmd_run
        assert (args.suite, args.out) == ("unit", "benchmarks/baseline.json")

    def test_degenerate_zero_median_not_comparable(self):
        v = compare_benchmark(make_entry("k", [0.0, 0.0]), make_entry("k", [0.0]))
        assert v.status == PASS
        assert "not comparable" in v.note

    def test_result_as_dict_is_json_shaped(self):
        result = compare_artifacts(
            make_artifact([make_entry("k", [1.0])]),
            make_artifact([make_entry("k", [1.0])]),
        )
        d = result.as_dict()
        assert d["ok"] is True
        assert d["verdicts"][0]["name"] == "k"
