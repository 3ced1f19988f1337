"""Bench history store and trajectory rendering (repro.bench.history).

Properties pinned here: idempotent ingest keyed by (machine, commit,
suite, label) — including under concurrent writers — per-benchmark
deltas computed only within one environment fingerprint, the
model-vs-measured drift flag, notes provenance, and strict rejection
of foreign or corrupt history rows.
"""

import json
import multiprocessing

import pytest

from repro.bench import (
    DEFAULT_DRIFT_THRESHOLD,
    SCHEMA,
    HistoryError,
    artifact_row,
    env_key,
    environment_fingerprint,
    ingest_artifact,
    read_history,
    render_history_plot,
    render_history_table,
    trajectory,
)
from repro.bench.history import prune_history
from repro.bench.stats import trial_stats
from repro.core import hermite_tile
from repro.forces import kernels
from repro.hardware import pipeline
from repro.parallel import network_tile

TILE_TIERS = [
    (kernels, "KERNEL_TIER"), (pipeline, "PIPELINE_TIER"), (hermite_tile, "HERMITE_TIER"),
    (network_tile, "NETWORK_TIER"),
]

ENV_A = {
    "python": "3.12.0", "implementation": "CPython", "platform": "linux",
    "machine": "x86_64", "cpu_count": 8, "numpy": "1.26", "git_revision": "aaaa1111",
}
ENV_B = {**ENV_A, "machine": "arm64", "git_revision": "bbbb2222"}


def make_artifact(medians, label="t", suite="micro", env=ENV_A, ratios=None,
                  seed=None, tag=None, notes=None):
    """One artifact: benchmark name -> constant-trial median seconds."""
    ratios = ratios or {}
    benchmarks = []
    for name, median in sorted(medians.items()):
        entry = {
            "name": name,
            "paper_ref": "fig. 0",
            "params": {},
            "trials": {"wall_s": [median] * 3},
            "stats": {"wall_s": trial_stats([median] * 3).as_dict()},
            "phases": {"wall_us": {"host": 1.0}},
            "derived": {},
        }
        if name in ratios:
            entry["derived"]["model_over_measured"] = ratios[name]
        benchmarks.append(entry)
    artifact = {
        "schema": SCHEMA, "label": label, "suite": suite,
        "created_unix": 1.7e9, "environment": dict(env), "benchmarks": benchmarks,
    }
    if seed is not None:
        artifact["seed"] = seed
    if tag is not None:
        artifact["tag"] = tag
    if notes is not None:
        artifact["notes"] = notes
    return artifact


def _ingest_same_artifact(args):
    """Top-level so multiprocessing can pickle it (fork or spawn)."""
    artifact, path = args
    _, appended = ingest_artifact(artifact, path)
    return appended


class TestEnvKey:
    def test_stable_and_machine_sensitive(self):
        assert env_key(ENV_A) == env_key(dict(ENV_A))
        assert env_key(ENV_A) != env_key(ENV_B)

    def test_ignores_git_revision(self):
        assert env_key(ENV_A) == env_key({**ENV_A, "git_revision": "other"})

    def test_kernel_tier_starts_a_new_series(self):
        """Same box, same bits, other speed: medians from the compiled
        and the numpy tier of the pairwise kernel are not comparable."""
        compiled, fallback = ({**ENV_A, "kernel_tier": t} for t in ("c", "numpy"))
        assert len({env_key(ENV_A), env_key(compiled), env_key(fallback)}) == 3
        assert environment_fingerprint()["kernel_tier"] in ("c", "numpy")

    @pytest.mark.parametrize("fallen", range(len(TILE_TIERS)))
    def test_kernel_tier_speaks_for_every_tile(self, monkeypatch, fallen):
        """One field for four tiles: ``"c"`` only if all of them compiled,
        so a resume or a history row across any one falling back is a
        recorded discontinuity."""
        for module, name in TILE_TIERS:
            monkeypatch.setattr(module, name, "c")
        assert environment_fingerprint()["kernel_tier"] == "c"
        monkeypatch.setattr(*TILE_TIERS[fallen], "numpy")
        assert environment_fingerprint()["kernel_tier"] == "numpy"


class TestIngest:
    def test_row_distils_artifact(self, tmp_path):
        art = make_artifact({"k": 0.5}, ratios={"k": 1.2}, seed=7, tag="tuned")
        row = artifact_row(art)
        assert row["git_revision"] == "aaaa1111"
        assert row["seed"] == 7 and row["tag"] == "tuned"
        assert row["benchmarks"]["k"]["median_s"] == pytest.approx(0.5)
        assert row["benchmarks"]["k"]["model_over_measured"] == pytest.approx(1.2)

    def test_append_then_idempotent(self, tmp_path):
        path = tmp_path / "history.jsonl"
        art = make_artifact({"k": 0.5})
        _, appended = ingest_artifact(art, path)
        assert appended
        _, appended = ingest_artifact(art, path)
        assert not appended
        assert len(read_history(path)) == 1

    def test_force_appends_duplicate(self, tmp_path):
        path = tmp_path / "history.jsonl"
        art = make_artifact({"k": 0.5})
        ingest_artifact(art, path)
        _, appended = ingest_artifact(art, path, force=True)
        assert appended
        assert len(read_history(path)) == 2

    def test_new_commit_is_a_new_row(self, tmp_path):
        path = tmp_path / "history.jsonl"
        ingest_artifact(make_artifact({"k": 0.5}), path)
        env2 = {**ENV_A, "git_revision": "cccc3333"}
        _, appended = ingest_artifact(make_artifact({"k": 0.4}, env=env2), path)
        assert appended
        assert len(read_history(path)) == 2

    def test_notes_from_artifact_land_in_row(self, tmp_path):
        path = tmp_path / "history.jsonl"
        art = make_artifact({"k": 0.5}, notes="dedicated box")
        row, appended = ingest_artifact(art, path)
        assert appended and row["notes"] == "dedicated box"
        assert read_history(path)[0]["notes"] == "dedicated box"

    def test_ingest_notes_override_artifact_notes(self, tmp_path):
        path = tmp_path / "history.jsonl"
        art = make_artifact({"k": 0.5}, notes="from artifact")
        row, _ = ingest_artifact(art, path, notes="governor pinned")
        assert row["notes"] == "governor pinned"
        assert read_history(path)[0]["notes"] == "governor pinned"

    def test_concurrent_ingest_is_idempotent(self, tmp_path):
        """Eight processes racing on one artifact append exactly one row,
        and the file stays line-parseable (no interleaved bytes)."""
        path = tmp_path / "history.jsonl"
        art = make_artifact({"k": 0.5})
        ctx = multiprocessing.get_context("fork")
        with ctx.Pool(4) as pool:
            results = pool.map(
                _ingest_same_artifact, [(art, str(path))] * 8
            )
        assert sum(results) == 1
        assert len(read_history(path)) == 1

    def test_concurrent_distinct_commits_all_land(self, tmp_path):
        path = tmp_path / "history.jsonl"
        arts = [
            make_artifact({"k": 0.5}, env={**ENV_A, "git_revision": f"r{i}"})
            for i in range(6)
        ]
        ctx = multiprocessing.get_context("fork")
        with ctx.Pool(3) as pool:
            results = pool.map(
                _ingest_same_artifact, [(a, str(path)) for a in arts]
            )
        assert all(results)
        rows = read_history(path)
        assert sorted(r["git_revision"] for r in rows) == sorted(
            f"r{i}" for i in range(6)
        )

    def test_missing_file_is_empty_history(self, tmp_path):
        assert read_history(tmp_path / "absent.jsonl") == []

    def test_corrupt_line_raises(self, tmp_path):
        path = tmp_path / "history.jsonl"
        path.write_text("{not json\n")
        with pytest.raises(HistoryError):
            read_history(path)

    def test_foreign_schema_raises(self, tmp_path):
        path = tmp_path / "history.jsonl"
        path.write_text(json.dumps({"schema": "someone.else/9"}) + "\n")
        with pytest.raises(HistoryError):
            read_history(path)


def ingest_sequence(path, specs):
    """specs: list of (medians, env, ratios) triples, distinct commits."""
    for i, (medians, env, ratios) in enumerate(specs):
        env = {**env, "git_revision": f"rev{i:04d}"}
        ingest_artifact(make_artifact(medians, env=env, ratios=ratios), path)
    return read_history(path)


class TestTrajectory:
    def test_deltas_against_previous_same_env(self, tmp_path):
        rows = ingest_sequence(
            tmp_path / "h.jsonl",
            [({"k": 1.0}, ENV_A, None), ({"k": 0.8}, ENV_A, None)],
        )
        (points,) = trajectory(rows).values()
        assert "median_s" not in points[0].deltas
        assert points[1].deltas["median_s"] == pytest.approx(-0.2)

    def test_env_change_restarts_baseline(self, tmp_path):
        """A faster machine is not an improvement: delta resets."""
        rows = ingest_sequence(
            tmp_path / "h.jsonl",
            [({"k": 1.0}, ENV_A, None), ({"k": 0.5}, ENV_B, None)],
        )
        (points,) = trajectory(rows).values()
        assert "median_s" not in points[1].deltas

    def test_model_drift_flag(self, tmp_path):
        rows = ingest_sequence(
            tmp_path / "h.jsonl",
            [
                ({"k": 1.0}, ENV_A, {"k": 1.0}),
                ({"k": 1.0}, ENV_A, {"k": 1.1}),   # 10%: within threshold
                ({"k": 1.0}, ENV_A, {"k": 2.2}),   # 2x: drift
            ],
        )
        (points,) = trajectory(rows).values()
        assert points[1].deltas["model_over_measured"] < DEFAULT_DRIFT_THRESHOLD
        assert "DRIFT" not in points[1].flags
        assert "DRIFT" in points[2].flags
        assert points[2].deltas["model_over_measured"] == pytest.approx(1.0)


class TestPrune:
    @pytest.fixture
    def path(self, tmp_path):
        path = tmp_path / "h.jsonl"
        specs = [({"k": 1.0 - 0.1 * i}, ENV_A, None) for i in range(4)]
        specs.append(({"k": 9.0}, ENV_B, None))
        ingest_sequence(path, specs)
        return path

    def test_drop_env(self, path):
        kept, dropped = prune_history(path, drop_envs=[env_key(ENV_B)])
        assert (kept, dropped) == (4, 1)
        assert all(r["env_key"] == env_key(ENV_A) for r in read_history(path))

    def test_keep_env(self, path):
        kept, dropped = prune_history(path, keep_envs=[env_key(ENV_B)])
        assert (kept, dropped) == (1, 4)
        assert read_history(path)[0]["env_key"] == env_key(ENV_B)

    def test_keep_last_trims_per_series(self, path):
        kept, dropped = prune_history(path, keep_last=2)
        assert (kept, dropped) == (3, 2)   # ENV_A keeps 2 of 4, ENV_B its 1
        rows = read_history(path)
        medians = [r["benchmarks"]["k"]["median_s"]
                   for r in rows if r["env_key"] == env_key(ENV_A)]
        assert medians == pytest.approx([0.8, 0.7])   # newest two survive

    def test_dry_run_leaves_file_alone(self, path):
        kept, dropped = prune_history(path, keep_last=1, dry_run=True)
        assert (kept, dropped) == (2, 3)
        assert len(read_history(path)) == 5

    def test_drop_and_keep_mutually_exclusive(self, path):
        with pytest.raises(HistoryError):
            prune_history(path, drop_envs=["a"], keep_envs=["b"])

    def test_keep_last_must_be_positive(self, path):
        with pytest.raises(HistoryError):
            prune_history(path, keep_last=0)

    def test_noop_prune_keeps_everything(self, path):
        kept, dropped = prune_history(path, keep_last=10)
        assert (kept, dropped) == (5, 0)
        assert len(read_history(path)) == 5


class TestRendering:
    @pytest.fixture
    def rows(self, tmp_path):
        return ingest_sequence(
            tmp_path / "h.jsonl",
            [
                ({"k": 1.0, "m": 0.2}, ENV_A, {"k": 1.0}),
                ({"k": 0.5, "m": 0.2}, ENV_A, {"k": 2.5}),
            ],
        )

    def test_table_text(self, rows):
        text = render_history_table(rows)
        assert "suite 'micro'" in text
        assert "-50.0%" in text      # k's improvement
        assert "DRIFT" in text       # k's model drift
        assert "rev0000" in text and "rev0001" in text

    def test_table_markdown(self, rows):
        md = render_history_table(rows, fmt="markdown")
        assert md.startswith("### Trajectory")
        assert "| benchmark |" in md.splitlines()[2]

    def test_table_suite_filter(self, rows):
        assert render_history_table(rows, suite="absent") == "(history is empty)"

    def test_plot_sparklines(self, rows):
        text = render_history_plot(rows)
        lines = text.splitlines()
        assert any("k" in line for line in lines)
        # the improved benchmark's sparkline falls: high block then low
        k_line = next(line for line in lines if line.lstrip().startswith("k "))
        assert "█" in k_line and "▁" in k_line

    def test_plot_benchmark_filter(self, rows):
        text = render_history_plot(rows, benchmarks=["m"])
        assert " m " in text and " k " not in text


# -- phase-observatory columns ----------------------------------------------


def regime_summary(sizes):
    """A real RegimeTracker summary over a synthetic block schedule."""
    from repro.telemetry import PHASES, PhaseSignature, RegimeTracker

    tracker = RegimeTracker(hold=1)
    shares = {p: 0.0 for p in PHASES}
    shares["host"] = 1.0
    for i, b in enumerate(sizes):
        tracker.update(PhaseSignature(
            blockstep=i, t=None, n=64, block_size=b,
            wall_us=100.0 + b, shares=shares,
        ))
    return tracker.summary()


def signed_artifact(medians, sizes, env=ENV_A, **kw):
    art = make_artifact(medians, env=env, **kw)
    for entry in art["benchmarks"]:
        entry["signatures"] = regime_summary(sizes)
    return art


def ingest_signed_sequence(path, schedules):
    for i, sizes in enumerate(schedules):
        env = {**ENV_A, "git_revision": f"rev{i:04d}"}
        ingest_artifact(signed_artifact({"k": 1.0}, sizes, env=env), path)
    return read_history(path)


class TestRegimeColumns:
    def test_row_distils_regimes(self, tmp_path):
        row = artifact_row(signed_artifact({"k": 1.0}, [64] * 8 + [2] * 2))
        regimes = row["benchmarks"]["k"]["regimes"]
        assert regimes["n"] == 2
        assert regimes["dominant_share"] == pytest.approx(0.8)
        # mix keyed by log2 block-size bucket, not regime id
        assert regimes["mix"] == {"b6": 8, "b1": 2}

    def test_rows_without_signatures_stay_clean(self, tmp_path):
        row = artifact_row(make_artifact({"k": 1.0}))
        assert "regimes" not in row["benchmarks"]["k"]

    def test_shift_flag_on_mix_change(self, tmp_path):
        rows = ingest_signed_sequence(
            tmp_path / "h.jsonl",
            [
                [64] * 40 + [2] * 10,
                [2] * 40 + [64] * 10,   # mix inverted: SHIFT
                [2] * 40 + [64] * 10,   # stable again: no flag
            ],
        )
        (points,) = trajectory(rows).values()
        assert "mix" not in points[0].deltas
        assert "SHIFT" in points[1].flags
        assert points[1].deltas["mix"] == pytest.approx(0.6)
        assert "SHIFT" not in points[2].flags

    def test_shift_ignores_regime_relabelling(self, tmp_path):
        """The same mix discovered in a different order is no shift."""
        rows = ingest_signed_sequence(
            tmp_path / "h.jsonl",
            [[64] * 10 + [2] * 10, [2] * 10 + [64] * 10],
        )
        (points,) = trajectory(rows).values()
        assert points[1].deltas["mix"] == pytest.approx(0.0)

    def test_table_renders_regime_columns(self, tmp_path):
        rows = ingest_signed_sequence(
            tmp_path / "h.jsonl",
            [[64] * 40 + [2] * 10, [2] * 40 + [64] * 10],
        )
        text = render_history_table(rows)
        assert "regimes" in text and "dom" in text
        assert "80%" in text
        assert "SHIFT" in text

    def test_plot_renders_regime_columns(self, tmp_path):
        rows = ingest_signed_sequence(
            tmp_path / "h.jsonl", [[64] * 8 + [2] * 2] * 2
        )
        text = render_history_plot(rows)
        assert "regimes" in text and "dom share" in text


# -- rank-observatory columns ------------------------------------------------


def rank_section(skew_total, span=1000.0):
    """A real RankLedger summary with a chosen straggler skew: one
    blockstep, two ranks, real skew exactly ``skew_total``."""
    from repro.telemetry import RankLedger

    ledger = RankLedger()
    ledger.observe({
        "backend": "thread", "span_wall_us": span, "t_start_us": 1.0,
        "publish_bytes": 128,
        "samples": [
            {"rank": 0, "wall_us": skew_total + 100.0, "cpu_us": 1.0},
            {"rank": 1, "wall_us": 100.0, "cpu_us": 1.0},
        ],
    })
    ledger.advance()
    return ledger.summary(
        comm={"mean_barrier_skew_us": max(skew_total - 3.0, 0.0)}
    )


def ranked_artifact(medians, skew_total, span=1000.0, env=ENV_A, **kw):
    """An artifact whose benchmarks carry a rank-observatory section."""
    art = make_artifact(medians, env=env, **kw)
    for entry in art["benchmarks"]:
        entry["rank"] = rank_section(skew_total, span=span)
    return art


def ingest_ranked_sequence(path, skew_totals):
    for i, skew in enumerate(skew_totals):
        env = {**ENV_A, "git_revision": f"rev{i:04d}"}
        ingest_artifact(ranked_artifact({"k": 1.0}, skew, env=env), path)
    return read_history(path)


class TestSkewColumns:
    def test_row_distils_rank_section(self):
        row = artifact_row(ranked_artifact({"k": 1.0}, 200.0, span=1000.0))
        rank = row["benchmarks"]["k"]["rank"]
        assert rank["skew_fraction"] == pytest.approx(0.2)
        assert rank["real_skew_us_mean"] == pytest.approx(200.0)
        # busy (300 + 100) of 2x1000 rank-time
        assert rank["utilisation"] == pytest.approx(0.2)
        assert rank["publish_bytes_per_step"] == 128.0
        assert rank["placement_gap_us_mean"] == pytest.approx(3.0)

    def test_rows_without_rank_stay_clean(self):
        row = artifact_row(make_artifact({"k": 1.0}))
        assert "rank" not in row["benchmarks"]["k"]

    def test_zero_span_yields_zero_fraction(self):
        row = artifact_row(ranked_artifact({"k": 1.0}, 5.0, span=0.0))
        assert row["benchmarks"]["k"]["rank"]["skew_fraction"] == 0.0

    def test_skew_flag_on_fraction_jump(self, tmp_path):
        rows = ingest_ranked_sequence(
            tmp_path / "h.jsonl",
            # fractions 0.05 -> 0.30 (jump 0.25: SKEW) -> 0.30 (stable)
            [50.0, 300.0, 300.0],
        )
        (points,) = trajectory(rows).values()
        assert "skew_fraction" not in points[0].deltas
        assert "SKEW" in points[1].flags
        assert points[1].deltas["skew_fraction"] == pytest.approx(0.25)
        assert "SKEW" not in points[2].flags

    def test_skew_easing_is_not_flagged(self, tmp_path):
        """The flag is one-sided: the machine getting *more* balanced
        is good news, not an alert."""
        rows = ingest_ranked_sequence(
            tmp_path / "h.jsonl", [300.0, 50.0]
        )
        (points,) = trajectory(rows).values()
        assert points[1].deltas["skew_fraction"] == pytest.approx(-0.25)
        assert "SKEW" not in points[1].flags

    def test_table_renders_skew_column_and_flag(self, tmp_path):
        rows = ingest_ranked_sequence(
            tmp_path / "h.jsonl", [50.0, 300.0]
        )
        text = render_history_table(rows)
        assert "skew" in text
        assert "30.0%" in text
        assert "SKEW" in text
