"""Property: the regression gate's verdict is its median rule, bit for bit.

``compare`` used to judge a pair through the bench history's generic
delta engine (five rules: median band, model drift, regime-mix shift,
efficiency drop, skew jump) and keep only the status its policy picked,
which only the median band and model drift could set.  The model-drift
rule went with the virtual-clock suites that fed it (their outputs are
exact pins now), so the median band is the one rule left.
``golden_compare_verdicts.json`` holds ``compare_artifacts(cur,
base).as_dict()`` over 300 derandomized draws of the strategy below
(same and other environment) plus nine chosen pairs: the three examples
of the property test that compared the engine's two entry points, and
the edges of both bands.  It was recorded from the engine and
re-derived mechanically when the drift rule went: the drift fields
dropped, and each ``DRIFT`` verdict given the median rule's status.
The verdicts must not move.  Each case stores its two draws, which
:func:`artifact` turns back into the same pair of artifacts.
"""

import json
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.bench import SCHEMA, compare_artifacts
from repro.telemetry import BUCKETS, EFFICIENCY_SCHEMA, RANK_SAMPLE_SCHEMA
from repro.telemetry import SIGNATURE_SCHEMA

GOLDEN = Path(__file__).with_name("golden_compare_verdicts.json")

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


def judged(a, b, same_env=True):
    base = artifact(a, ENV, "rev0")
    cur = artifact(b, ENV if same_env else OTHER_ENV, "rev1")
    return compare_artifacts(cur, base)


def test_the_golden_verdicts():
    cases = json.loads(GOLDEN.read_text())
    assert len(cases) == 309
    for case in cases:
        a, b = ({**case[k], "mix": case[k]["mix"] and dict(case[k]["mix"])}
                for k in ("a", "b"))
        assert judged(a, b, case["same_env"]).as_dict() == case["result"]


def bare(drawn):
    return {**drawn, "ratio": None, "mix": None, "fraction": None, "skew": None}


@settings(max_examples=100, deadline=None)
@given(a=benchmarks, b=benchmarks, same_env=st.booleans())
@example(a={**PLAIN, "fraction": 0.5}, b={**PLAIN, "fraction": 0.3},
         same_env=True)
def test_the_observatory_sections_do_not_move_the_verdict(a, b, same_env):
    """``model_over_measured``, regime mix, fraction of peak and skew
    reach no status, and neither does the environment: the same pair
    without those sections, on one machine, is judged the same."""
    assert (judged(a, b, same_env).as_dict()
            == judged(bare(a), bare(b)).as_dict())
