"""Unit tests for the rank observatory (repro.telemetry.ranks) and the
OpenMetrics projection (repro.telemetry.openmetrics).

These pin the contracts the surfacing layers rely on: the exact
busy + idle == span accounting identity, zero-valued (never NaN)
degenerate blocksteps, the sum-preserving placement split, the
timeline lane's pid discipline, and that the OpenMetrics text really
round-trips through the parser.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.telemetry import (
    IDLE_BUCKETS,
    RANK_PID,
    RANK_SAMPLE_SCHEMA,
    OpenMetricsError,
    RankError,
    RankLedger,
    artifact_metrics,
    job_metrics,
    parse_openmetrics,
    rank_summary_metrics,
    rank_trace_events,
    render_openmetrics,
    validate_rank_record,
    validate_rank_section,
    validate_timeline,
)


def sample(rank, wall, cpu=None, t0=1000.0, **extra):
    out = {
        "rank": rank,
        "pid": 4242 + rank,
        "t_start_us": t0,
        "wall_us": wall,
        "cpu_us": wall if cpu is None else cpu,
        "maxrss_kb": 1024.0,
        "vol_ctx_switches": 1,
        "invol_ctx_switches": 0,
        "minor_faults": 2,
        "major_faults": 0,
        "attach_bytes": 0,
    }
    out.update(extra)
    return out


def report(samples=(), backend="thread", span=100.0, t0=1000.0, publish=64):
    return {
        "backend": backend,
        "workers": 2,
        "n_tasks": len(samples),
        "t_start_us": t0,
        "span_wall_us": span,
        "publish_bytes": publish,
        "samples": list(samples),
    }


def two_step_ledger(**kwargs):
    """Two blocksteps with hand-picked numbers: span 100 with busy
    (60, 40), then span 50 with busy (10, 30)."""
    ledger = RankLedger(**kwargs)
    ledger.observe(report([sample(0, 60.0), sample(1, 40.0)], span=100.0))
    ledger.advance(t=0.25, n_block=3)
    ledger.observe(
        report([sample(0, 10.0), sample(1, 30.0)], span=50.0, publish=16)
    )
    ledger.advance(t=0.5, n_block=2)
    return ledger


class TestRankBlockstep:
    def test_accounting_identity_is_exact(self):
        ledger = two_step_ledger()
        rec = ledger.records[0]
        assert rec.busy_us == (60.0, 40.0)
        assert rec.idle_us == (40.0, 60.0)
        for busy, idle in zip(rec.busy_us, rec.idle_us):
            assert busy + idle == rec.span_wall_us  # exact, not approx
        assert rec.real_skew_us == 20.0
        assert rec.straggler == 0
        assert ledger.records[1].straggler == 1
        validate_rank_record(rec.as_record())

    def test_degenerate_blockstep_is_zero_valued_never_nan(self):
        """An advance with nothing observed yields a plain zero record
        that still validates — the house rule for degenerate inputs."""
        ledger = RankLedger()
        rec = ledger.advance()
        assert rec.n_ranks == 0
        assert rec.dispatches == 0 and rec.tasks == 0
        assert rec.span_wall_us == 0.0
        assert rec.real_skew_us == 0.0
        assert rec.straggler == -1
        doc = rec.as_record()
        for value in doc.values():
            if isinstance(value, float):
                assert math.isfinite(value)
        validate_rank_record(doc)
        validate_rank_section(ledger.summary())

    def test_nan_samples_are_coerced_to_zero(self):
        ledger = RankLedger()
        ledger.observe(
            report(
                [sample(0, float("nan"), cpu=float("inf"))],
                span=float("nan"),
            )
        )
        rec = ledger.advance()
        assert rec.busy_us == (0.0,)
        assert rec.span_wall_us == 0.0
        validate_rank_record(rec.as_record())
        validate_rank_section(ledger.summary())

    def test_single_rank_has_no_skew(self):
        ledger = RankLedger()
        ledger.observe(report([sample(0, 80.0)], span=90.0))
        rec = ledger.advance()
        assert rec.real_skew_us == 0.0
        assert rec.straggler == 0


class TestRankLedger:
    def test_run_totals(self):
        ledger = two_step_ledger()
        assert ledger.count == 2
        assert ledger.dispatches == 2 and ledger.tasks == 4
        assert ledger.n_ranks == 2
        assert ledger.span_wall_us == 150.0
        assert ledger.rank_span_us == 300.0  # 2x100 + 2x50
        assert ledger.busy_total_us == 140.0
        assert ledger.idle_total_us == 160.0
        assert ledger.publish_bytes == 80
        assert ledger.mean_real_skew_us() == 20.0
        assert ledger.straggler_counts == {0: 1, 1: 1}

    def test_summary_section_validates_and_carries_per_rank_rows(self):
        doc = two_step_ledger().summary()
        validate_rank_section(doc)
        assert doc["schema"] == RANK_SAMPLE_SCHEMA
        assert doc["blocksteps"] == 2
        assert doc["utilisation"] == pytest.approx(140.0 / 300.0)
        assert doc["publish_bytes_per_step"] == 40.0
        assert doc["real_skew_us"] == {"mean": 20.0, "max": 20.0, "total": 40.0}
        rows = {row["rank"]: row for row in doc["ranks"]}
        assert rows[0]["busy_us"] == 70.0 and rows[0]["tasks"] == 2
        assert rows[1]["busy_us"] == 70.0
        assert rows[0]["mean_task_us"] == 35.0
        assert doc["backend_task_us"]["thread"]["tasks"] == 4

    def test_a_denormal_span_has_no_utilisation(self):
        """Found by the property suite (span 5e-324 us around a 1 us
        task): busy / span overflowed and the section did not validate."""
        ledger = RankLedger()
        ledger.observe(report([sample(0, 1.0)], span=5e-324))
        doc = ledger.summary()
        validate_rank_section(doc)
        assert doc["utilisation"] == 0.0

    def test_summary_folds_pending_dispatches(self):
        ledger = RankLedger()
        ledger.observe(report([sample(0, 5.0)], span=10.0))
        doc = ledger.summary()
        assert doc["blocksteps"] == 1 and doc["tasks"] == 1
        assert ledger.count == 1  # folded, not dropped

    def test_keep_false_tracks_totals_without_records(self):
        kept = two_step_ledger(keep=True)
        slim = two_step_ledger(keep=False)
        assert slim.records == []
        assert slim.placement({}) is None  # nothing kept to attribute
        kept_doc, slim_doc = kept.summary(), slim.summary()
        for key in ("blocksteps", "tasks", "busy_us", "idle_us",
                    "utilisation", "real_skew_us", "publish_bytes"):
            assert kept_doc[key] == slim_doc[key]

    def test_callback_fires_per_advance(self):
        cuts = []
        ledger = RankLedger(callback=cuts.append)
        ledger.observe(report([sample(0, 1.0)]))
        ledger.advance()
        ledger.advance()
        assert [rec.blockstep for rec in cuts] == [0, 1]

    def test_mixed_backends_are_labelled(self):
        ledger = RankLedger()
        ledger.observe(report([sample(0, 1.0)], backend="thread"))
        ledger.observe(report([sample(1, 2.0)], backend="process"))
        rec = ledger.advance()
        assert rec.backend == "mixed"
        assert ledger.backends == {"thread", "process"}

    def test_observed_busy_lands_in_the_cut_record(self):
        ledger = RankLedger()
        ledger.observe(report([sample(0, 60.0), sample(1, 40.0)], span=100.0))
        rec = ledger.advance()
        assert rec.busy_us == (60.0, 40.0)


class TestPlacement:
    COMM = {"barrier_records": [{"skew_us": 5.0}, {"skew_us": 8.0}]}

    def test_buckets_sum_to_idle_exactly(self):
        placement = two_step_ledger().placement(self.COMM)
        buckets = placement["buckets"]
        total = sum(buckets[name]["us"] for name in IDLE_BUCKETS)
        assert total == placement["idle_us"] == 160.0
        # imbalance per step: sum(peak - busy[r]) = 20 + 20
        assert buckets["imbalance"]["us"] == 40.0
        assert buckets["overhead"]["us"] == 120.0
        assert buckets["imbalance"]["fraction"] == pytest.approx(0.25)

    def test_gap_is_real_minus_virtual_per_paired_step(self):
        placement = two_step_ledger().placement(self.COMM)
        assert placement["paired"] == 2
        assert placement["virtual_skew_us"]["total"] == 13.0
        assert placement["gap_us"]["total"] == (20.0 - 5.0) + (20.0 - 8.0)
        assert placement["gap_us"]["mean"] == pytest.approx(13.5)

    def test_mean_skew_fallback_pairs_every_step(self):
        placement = two_step_ledger().placement(
            {"mean_barrier_skew_us": 4.0}
        )
        assert placement["paired"] == 2
        assert placement["virtual_skew_us"]["mean"] == 4.0
        assert placement["gap_us"]["mean"] == 16.0

    def test_unpairable_comm_still_splits_idle(self):
        placement = two_step_ledger().placement({})
        assert placement["paired"] == 0
        assert placement["gap_us"] == {"mean": 0.0, "total": 0.0}
        assert placement["buckets"]["overhead"]["us"] == 120.0

    def test_summary_embeds_placement_and_validates(self):
        doc = two_step_ledger().summary(comm=self.COMM)
        validate_rank_section(doc)
        assert doc["placement"]["paired"] == 2


class TestValidation:
    def test_record_rejects_non_object_and_wrong_schema(self):
        with pytest.raises(RankError, match="must be an object"):
            validate_rank_record([])
        with pytest.raises(RankError, match="schema"):
            validate_rank_record({"schema": "repro.rank_sample/999"})

    def test_record_rejects_nan(self):
        rec = two_step_ledger().records[0].as_record()
        rec["span_wall_us"] = float("nan")
        with pytest.raises(RankError, match="finite"):
            validate_rank_record(rec)

    def test_record_rejects_broken_identity(self):
        rec = two_step_ledger().records[0].as_record()
        rec["busy_us"][0] += 1.0  # busy + idle != span
        with pytest.raises(RankError, match="does not equal span_wall_us"):
            validate_rank_record(rec)

    def test_record_rejects_mismatched_rank_lists(self):
        rec = two_step_ledger().records[0].as_record()
        rec["idle_us"].append(0.0)
        with pytest.raises(RankError, match="one entry per rank"):
            validate_rank_record(rec)

    def test_section_rejects_negative_skew(self):
        doc = two_step_ledger().summary()
        doc["real_skew_us"]["mean"] = -1.0
        with pytest.raises(RankError, match="negative"):
            validate_rank_section(doc)

    def test_section_rejects_broken_budget(self):
        doc = two_step_ledger().summary()
        doc["busy_us"] += 5.0
        with pytest.raises(RankError, match="does not sum to"):
            validate_rank_section(doc)

    def test_section_rejects_non_summing_placement_buckets(self):
        doc = two_step_ledger().summary(comm=TestPlacement.COMM)
        doc["placement"]["buckets"]["overhead"]["us"] += 1.0
        with pytest.raises(RankError, match="do not sum to idle_us"):
            validate_rank_section(doc)


class TestTraceEvents:
    def test_lanes_live_on_the_registered_pid(self):
        events = rank_trace_events(two_step_ledger())
        assert events[0]["ph"] == "M"
        assert events[0]["args"]["name"] == "ranks (real clock)"
        assert all(ev["pid"] == RANK_PID for ev in events)
        lanes = [ev for ev in events if ev["ph"] == "X"]
        assert lanes  # per-task lanes plus blockstep markers
        assert {ev["tid"] for ev in lanes if ev["name"] == "rank.task"} == {0, 1}
        marker = [ev for ev in lanes if ev["name"].startswith("blockstep")]
        assert marker and marker[0]["args"]["real_skew_us"] == 20.0
        validate_timeline({"traceEvents": events})

    def test_timestamps_rebased_to_zero(self):
        events = rank_trace_events(two_step_ledger())
        starts = [ev["ts"] for ev in events if ev["ph"] == "X"]
        assert min(starts) == 0.0

    def test_validator_catches_pid_collision_with_rank_lane(self):
        """A hand-assigned pid colliding with the ranks lane must be
        rejected — the registry (TRACE_PIDS) is the law."""
        events = rank_trace_events(two_step_ledger())
        impostor = {
            "name": "process_name",
            "ph": "M",
            "pid": RANK_PID,
            "tid": 0,
            "args": {"name": "impostor"},
        }
        with pytest.raises(ValueError, match="claimed by two processes"):
            validate_timeline({"traceEvents": events + [impostor]})


class TestOpenMetrics:
    def test_render_parse_round_trip(self):
        samples = [
            ("repro_demo_us", {"rank": "0", "note": 'say "hi"\nbye'}, 1.5),
            ("repro_demo_us", {"rank": "1"}, 2.0),
            ("repro_other", {}, 3.25),
        ]
        text = render_openmetrics(samples, help_text={"repro_other": "doc"})
        assert text.endswith("# EOF\n")
        assert "# TYPE repro_demo_us gauge" in text
        assert "# HELP repro_other doc" in text
        assert parse_openmetrics(text) == samples

    def test_parse_rejects_missing_eof(self):
        with pytest.raises(OpenMetricsError, match="EOF"):
            parse_openmetrics("repro_x 1\n")

    def test_parse_rejects_bad_grammar(self):
        with pytest.raises(OpenMetricsError, match="unparseable"):
            parse_openmetrics("!!nope!! {\n# EOF\n")
        with pytest.raises(OpenMetricsError, match="bad value"):
            parse_openmetrics("repro_x 1.2.3\n# EOF\n")

    def test_names_are_sanitised(self):
        text = render_openmetrics([("9 bad.name", {"bad key": "v"}, 1.0)])
        ((name, labels, value),) = parse_openmetrics(text)
        assert name == "_9_bad_name"
        assert labels == {"bad_key": "v"} and value == 1.0

    def test_rank_summary_projection(self):
        doc = two_step_ledger().summary(comm=TestPlacement.COMM)
        samples = {
            (name, labels.get("rank")): value
            for name, labels, value in rank_summary_metrics(
                doc, {"suite": "smoke"}
            )
        }
        assert samples[("repro_rank_blocksteps", None)] == 2.0
        assert samples[("repro_rank_utilisation", None)] == pytest.approx(
            140.0 / 300.0
        )
        assert samples[("repro_rank_real_skew_us_mean", None)] == 20.0
        assert samples[("repro_rank_placement_gap_us_mean", None)] == 13.5
        assert samples[("repro_rank_busy_us_by_rank", "0")] == 70.0

    def test_artifact_projection(self):
        artifact = {
            "suite": "smoke",
            "benchmarks": [
                {
                    "name": "exec_observatory",
                    "stats": {"wall_s": {"median": 0.25}},
                    "efficiency": {
                        "fraction_of_peak": 0.4,
                        "real_gflops": 12.0,
                    },
                    "rank": two_step_ledger().summary(),
                }
            ],
        }
        samples = artifact_metrics(artifact)
        by_name = {name: value for name, _, value in samples}
        assert by_name["repro_bench_wall_seconds_median"] == 0.25
        assert by_name["repro_bench_fraction_of_peak"] == 0.4
        assert by_name["repro_rank_tasks"] == 4.0
        labels = next(l for n, l, _ in samples if n == "repro_rank_tasks")
        assert labels["benchmark"] == "exec_observatory"
        parse_openmetrics(render_openmetrics(samples))

    def test_job_projection(self):
        status = {
            "status": "completed",
            "t": 0.5,
            "blocksteps": 8,
            "wall_s": 1.5,
            "checkpoints": ["a.npz", "b.npz"],
            "fraction_of_peak": 0.3,
            "rank": {"real_skew_us_mean": 20.0, "utilisation": 0.5},
        }
        by_name = {
            name: value for name, _, value in job_metrics("demo", status)
        }
        assert by_name["repro_job_checkpoints"] == 2.0  # len, not float()
        assert by_name["repro_job_fraction_of_peak"] == 0.3
        assert by_name["repro_job_real_skew_us_mean"] == 20.0
        assert by_name["repro_job_rank_utilisation"] == 0.5

    def test_job_projection_degenerate_status(self):
        by_name = {
            name: value for name, _, value in job_metrics("bare", {})
        }
        assert by_name["repro_job_t"] == 0.0
        assert "repro_job_fraction_of_peak" not in by_name


samples = st.fixed_dictionaries({
    "rank": st.integers(0, 3),
    "wall_us": st.floats(0.0, 1.0e5, allow_nan=False),
    "cpu_us": st.floats(0.0, 1.0e5, allow_nan=False),
    "attach_bytes": st.integers(0, 1 << 20),
})
reports = st.fixed_dictionaries({
    "backend": st.sampled_from(["inline", "thread", "process"]),
    "span_wall_us": st.floats(0.0, 1.0e6, allow_nan=False),
    "t_start_us": st.floats(0.0, 1.0e9, allow_nan=False),
    "publish_bytes": st.integers(0, 1 << 24),
    "samples": st.lists(samples, max_size=6),
})
blocksteps = st.lists(st.lists(reports, max_size=3), min_size=1, max_size=6)


def exact(a, b):
    """Equal up to float re-association (the validators' tolerance)."""
    return abs(a - b) <= max(1e-9 * max(abs(b), 1.0), 1e-6)


class TestLedgerArithmeticProperties:
    """The ledger's arithmetic on adversarial inputs: the ``busy + idle
    == span`` identity is exact, the placement split is sum-preserving,
    and no input produces NaN."""

    @settings(max_examples=50, deadline=None)
    @given(blocksteps)
    def test_identity_and_placement_split_are_exact(self, steps):
        ledger = RankLedger()
        for step in steps:
            for rep in step:
                ledger.observe(rep)
            rec = ledger.advance()
            for busy, idle in zip(rec.busy_us, rec.idle_us):
                assert exact(busy + idle, rec.span_wall_us)
            validate_rank_record(rec.as_record())
        doc = ledger.summary(comm={"mean_barrier_skew_us": 1.0})
        validate_rank_section(doc)
        placement = doc["placement"]
        buckets = placement["buckets"]
        total = buckets["imbalance"]["us"] + buckets["overhead"]["us"]
        assert exact(total, placement["idle_us"])  # sum-preserving split
