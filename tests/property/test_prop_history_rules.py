"""Property: one delta engine behind the trajectory and the gate.

``history table`` and ``compare`` used to implement the DRIFT rule
twice behind one threshold (``|ratio - 1| > t`` against the symmetric
band ``[1/(1+t), 1+t]``), so ``model_over_measured`` 1.0 -> 0.6 failed
``compare`` and went unflagged in the trajectory.  Both now run
:func:`repro.bench.history.judge` over :data:`repro.bench.history.RULES`;
pinned here over random pairs of artifacts: the flags on the second
point of the two-row trajectory ``[row(baseline), row(current)]`` are
the flags ``compare`` derives for the pair, column for column, and the
gate's verdict is its one-line policy over those flags.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.bench import (
    DRIFT,
    IMPROVED,
    PASS,
    REGRESSED,
    SCHEMA,
    artifact_row,
    compare_artifacts,
    trajectory,
)
from repro.telemetry import BUCKETS, EFFICIENCY_SCHEMA, RANK_SAMPLE_SCHEMA
from repro.telemetry import SIGNATURE_SCHEMA

ENV = {"python": "3.12.0", "implementation": "CPython", "platform": "linux",
       "machine": "x86_64", "cpu_count": 8, "numpy": "1.26"}
OTHER_ENV = {**ENV, "machine": "arm64"}

#: Includes both edges of the default symmetric band (1.5 and 1/1.5)
#: and the pair that told the two old rules apart (0.6 and 1/0.6).
RATIOS = [None, 0.25, 0.4, 0.6, 1 / 1.5, 0.9, 1.0, 1.1, 1.5, 1 / 0.6, 2.5]


def signature_doc(mix):
    total = sum(mix.values())
    regimes = [
        {"regime": i, "count": count, "share": count / total,
         "mean_block_size": float(2 ** bucket)}
        for i, (bucket, count) in enumerate(sorted(mix.items()))
    ]
    top = max(regimes, key=lambda reg: reg["count"])
    return {
        "schema": SIGNATURE_SCHEMA, "kind": "summary", "count": total,
        "n_regimes": len(regimes), "current_regime": 0,
        "dominant_regime": top["regime"], "dominant_share": top["share"],
        "changes": 0, "lane": f"0x{total}", "regimes": regimes,
    }


def efficiency_doc(fraction):
    peak = 1.0e9
    real = fraction * peak
    buckets = {b: {"flops": 0.0, "fraction": 0.0} for b in BUCKETS}
    buckets["other"] = {"flops": peak - real, "fraction": 1.0 - fraction}
    return {
        "schema": EFFICIENCY_SCHEMA, "kind": "summary", "blocksteps": 8,
        "clock": "wall", "span_us": 1.0e3, "peak_flops": peak,
        "real_flops": real, "fraction_of_peak": fraction,
        "real_gflops": real / 1.0e6, "buckets": buckets,
    }


def rank_doc(skew_fraction):
    span = 1000.0
    return {
        "schema": RANK_SAMPLE_SCHEMA, "kind": "summary", "backends": ["thread"],
        "blocksteps": 4, "dispatches": 4, "tasks": 8, "n_ranks": 2,
        "span_wall_us": span, "rank_span_us": 2 * span, "busy_us": 500.0,
        "idle_us": 1500.0, "cpu_us": 400.0, "utilisation": 0.25,
        "publish_bytes": 512, "attach_bytes": 0,
        "publish_bytes_per_step": 128.0,
        "real_skew_us": {"mean": skew_fraction * span / 4, "max": span,
                         "total": skew_fraction * span},
        "ranks": [],
    }


def artifact(drawn, env, revision):
    median, rel_iqr = drawn["median"], drawn["rel_iqr"]
    iqr = median * rel_iqr
    entry = {
        "name": "k", "paper_ref": "fig. 0", "params": {},
        "trials": {"wall_s": [median] * 3},
        "stats": {"wall_s": {
            "n": 3, "min": median, "max": median, "mean": median, "std": 0.0,
            "median": median, "q1": median - iqr / 2, "q3": median + iqr / 2,
            "iqr": iqr}},
        "phases": {"wall_us": {"host": 1.0}},
        "derived": {},
    }
    if drawn["ratio"] is not None:
        entry["derived"]["model_over_measured"] = drawn["ratio"]
    for section, make, key in (("signatures", signature_doc, "mix"),
                               ("efficiency", efficiency_doc, "fraction"),
                               ("rank", rank_doc, "skew")):
        if drawn[key] is not None:
            entry[section] = make(drawn[key])
    return {
        "schema": SCHEMA, "label": "t", "suite": "micro", "created_unix": 1.7e9,
        "environment": {**env, "git_revision": revision},
        "benchmarks": [entry],
    }


unit = st.floats(0.0, 1.0, allow_nan=False)
benchmarks = st.fixed_dictionaries({
    "median": st.floats(1.0e-3, 10.0, allow_nan=False),
    "rel_iqr": st.floats(0.0, 0.5, allow_nan=False),
    "ratio": st.sampled_from(RATIOS),
    "mix": st.none() | st.dictionaries(
        st.integers(0, 5), st.integers(1, 50), min_size=1, max_size=4),
    "fraction": st.none() | unit,
    "skew": st.none() | unit,
})

PLAIN = {"median": 1.0, "rel_iqr": 0.0, "ratio": 1.0, "mix": None,
         "fraction": None, "skew": None}


def judged_both_ways(a, b, same_env):
    base = artifact(a, ENV, "rev0")
    cur = artifact(b, ENV if same_env else OTHER_ENV, "rev1")
    (verdict,) = compare_artifacts(cur, base).verdicts
    point = trajectory([artifact_row(base), artifact_row(cur)])["k"][-1]
    return verdict, point


@settings(max_examples=300, deadline=None)
@given(a=benchmarks, b=benchmarks, same_env=st.booleans())
@example(a=PLAIN, b={**PLAIN, "ratio": 0.6}, same_env=True)
@example(a=PLAIN, b={**PLAIN, "ratio": 1 / 0.6}, same_env=True)
@example(a={**PLAIN, "fraction": 0.5}, b={**PLAIN, "fraction": 0.3},
         same_env=True)
def test_trajectory_and_compare_raise_the_same_flags(a, b, same_env):
    verdict, point = judged_both_ways(a, b, same_env)
    if same_env:
        assert verdict.flags == point.flags
    else:
        # a new machine starts a fresh series; the gate still judges the
        # medians against a foreign baseline, and nothing else
        assert point.flags == () and point.deltas == {}
        assert set(verdict.flags) <= {REGRESSED, IMPROVED}
    # the policy: REGRESSED and DRIFT fail, the louder one names the verdict
    expected = next((flag for flag in (REGRESSED, DRIFT, IMPROVED)
                     if flag in verdict.flags), PASS)
    assert verdict.status == expected
    assert verdict.failed == (expected in (REGRESSED, DRIFT))


def test_the_ratio_that_told_the_two_rules_apart():
    """1.0 -> 0.6 is outside [1/1.5, 1.5] though |0.6 - 1| < 0.5: both
    now say DRIFT; 1.0 -> 0.7 is inside the band for both."""
    verdict, point = judged_both_ways(PLAIN, {**PLAIN, "ratio": 0.6}, True)
    assert verdict.status == DRIFT and DRIFT in point.flags
    verdict, point = judged_both_ways(PLAIN, {**PLAIN, "ratio": 0.7}, True)
    assert verdict.status == PASS and point.flags == ()
