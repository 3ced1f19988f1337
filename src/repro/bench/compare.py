"""Noise-aware regression gate between two ``BENCH_*.json`` artifacts.

The gate is the trajectory's delta engine (:func:`repro.bench.history.judge`
over :data:`~repro.bench.history.RULES`) run on one pair: the baseline
is the predecessor, the current artifact the point.  This module adds
only the *policy* — which flags fail — and the verdict records.

The median rule mirrors how the paper treats re-measurements of the
same sweep across tuning iterations (section 5): a change only counts
when it clears both a relative threshold *and* the run-to-run scatter
of the measurement itself,

    band = max(rel_threshold, IQR_FACTOR * max(rel_iqr_base, rel_iqr_cur))

and ``ratio = median_current / median_baseline`` then yields

* ``REGRESSED``  if ratio > 1 + band,
* ``IMPROVED``   if ratio < 1 / (1 + band),
* ``PASS``       otherwise;

benchmarks present on only one side report ``NEW`` / ``MISSING``
(informational, never failing).  Schema mismatches raise — a gate that
silently mis-reads an artifact is worse than no gate.

On top of the wall-time rule sits the **model-drift rule**: benchmarks
that publish a ``model_over_measured`` derived value (the analytic
eq. 10 model's prediction over the measured median) must keep that
ratio stable between baseline and current.  A uniform slowdown moves
the ratio and the median together and is caught above; a *drift* of
the ratio alone means the analytic perfmodel and the implementation no
longer describe the same machine — which is a correctness problem for
every model-derived figure, not a performance problem.  Like every rule
but the median's it only runs when both artifacts carry the same
environment fingerprint (a new machine legitimately re-anchors the
ratio); it reports ``DRIFT``, which fails the gate like a regression.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any

from .artifact import validate_artifact
from .history import (
    CALIBRATED_DRIFT_THRESHOLD,
    COLUMNS,
    DEFAULT_DRIFT_THRESHOLD,
    DEFAULT_REL_THRESHOLD,
    DRIFT,
    IMPROVED,
    IQR_FACTOR,
    REGRESSED,
    RULES,
    bench_values,
    entry_bench,
    env_key,
    judge,
    noise_band,
)

PASS = "PASS"
NEW = "NEW"
MISSING = "MISSING"

#: The policy: flags that fail the gate, loudest first.  A regression
#: outranks a drift (the more actionable finding); every other flag
#: the rules raise is informational here.
FAILING = (REGRESSED, DRIFT)


@dataclass(frozen=True)
class Verdict:
    """Comparison outcome for one benchmark."""

    name: str
    status: str
    ratio: float | None = None
    baseline_median_s: float | None = None
    current_median_s: float | None = None
    threshold: float | None = None
    note: str = ""
    #: Every flag the rules raised for the pair (``status`` is the one
    #: the policy picked).
    flags: tuple[str, ...] = ()

    @property
    def failed(self) -> bool:
        return self.status in FAILING

    def as_dict(self) -> dict[str, Any]:
        out = asdict(self)
        del out["flags"]  # the policy's pick is the verdict's public face
        return out


@dataclass(frozen=True)
class ComparisonResult:
    """All verdicts plus the roll-up the CLI turns into an exit code."""

    verdicts: list[Verdict]
    rel_threshold: float
    iqr_factor: float
    drift_threshold: float | None = None
    #: False when the drift check was skipped (different environment
    #: fingerprints — the ratio legitimately re-anchors on a new box).
    drift_checked: bool = False
    #: True when the current environment had a calibration entry and
    #: the tightened :data:`CALIBRATED_DRIFT_THRESHOLD` applied.
    calibrated: bool = False

    @property
    def regressed(self) -> list[Verdict]:
        return [v for v in self.verdicts if v.status == REGRESSED]

    @property
    def drifted(self) -> list[Verdict]:
        return [v for v in self.verdicts if v.status == DRIFT]

    @property
    def ok(self) -> bool:
        return not any(v.failed for v in self.verdicts)

    def as_dict(self) -> dict[str, Any]:
        return {
            "rel_threshold": self.rel_threshold,
            "iqr_factor": self.iqr_factor,
            "drift_threshold": self.drift_threshold,
            "drift_checked": self.drift_checked,
            "calibrated": self.calibrated,
            "ok": self.ok,
            "verdicts": [v.as_dict() for v in self.verdicts],
        }


def _verdict(
    name: str,
    cur: dict[str, Any],
    base: dict[str, Any],
    thresholds: dict[str, float | None],
) -> Verdict:
    """Judge one pair of column-value dicts and apply the policy."""
    rel_threshold = thresholds["median_s"]
    deltas, flags = judge(base, cur, thresholds)
    medians = dict(baseline_median_s=base["median_s"],
                   current_median_s=cur["median_s"])
    if "median_s" not in deltas:
        return Verdict(
            name, PASS, **medians,
            note="degenerate timing (zero median); not comparable")
    band = noise_band(base, cur, rel_threshold)
    status = next(
        (f for f in (*FAILING, IMPROVED) if f in flags), PASS)
    if status == DRIFT:
        show = COLUMNS["model_over_measured"].show
        note = (
            f"model/measured {show(base['model_over_measured'])} -> "
            f"{show(cur['model_over_measured'])} "
            f"({deltas['model_over_measured']:+.1%}): analytic perfmodel no "
            f"longer tracks the measurement"
        )
    elif status == PASS:
        note = "within noise floor" if band > rel_threshold else ""
    else:
        note = f"{deltas['median_s']:+.1%} vs baseline"
    return Verdict(
        name=name, status=status, ratio=cur["median_s"] / base["median_s"],
        threshold=band, note=note, flags=flags, **medians)


def compare_benchmark(
    current: dict[str, Any],
    baseline: dict[str, Any],
    rel_threshold: float = DEFAULT_REL_THRESHOLD,
    drift_threshold: float | None = None,
) -> Verdict:
    """Verdict for one benchmark entry pair (same name and environment
    assumed): both entries are distilled through the history columns
    and judged as predecessor and point.

    ``drift_threshold`` enables the model-drift rule: when both entries
    publish ``model_over_measured`` and the ratio-of-ratios leaves
    ``[1/(1+t), 1+t]``, the verdict is ``DRIFT`` (failing) unless the
    wall gate already regressed (the louder finding wins).
    """
    cur, base = (bench_values(entry_bench(e)) for e in (current, baseline))
    return _verdict(current["name"], cur, base, {
        "median_s": rel_threshold, "model_over_measured": drift_threshold})


def compare_artifacts(
    current: dict[str, Any],
    baseline: dict[str, Any],
    rel_threshold: float = DEFAULT_REL_THRESHOLD,
    drift_threshold: float | None = DEFAULT_DRIFT_THRESHOLD,
    calibration: dict[str, Any] | None = None,
) -> ComparisonResult:
    """Compare every benchmark by name; validates both artifacts.

    Every rule but the median's runs only when both artifacts carry the
    same environment fingerprint: on a different machine the measured
    side of ``model_over_measured`` legitimately changes, so drift
    against a foreign baseline would be pure noise.  Pass
    ``drift_threshold=None`` to disable the drift rule outright.

    ``calibration`` is a loaded calibration document
    (:func:`repro.perfmodel.calibrate.load_calibration`); when it
    covers the current environment the drift threshold tightens to
    ``min(drift_threshold, CALIBRATED_DRIFT_THRESHOLD)`` — on a machine
    the model was fitted to, 50% slack would hide real divergence.
    """
    validate_artifact(current, source="current")
    validate_artifact(baseline, source="baseline")
    same_env = env_key(current["environment"]) == env_key(
        baseline["environment"])
    check_drift = drift_threshold is not None and same_env
    calibrated = False
    if check_drift and calibration is not None:
        from ..perfmodel.calibrate import calibrated_environment

        calibrated = calibrated_environment(
            calibration, current["environment"]) is not None
        if calibrated:
            drift_threshold = min(
                drift_threshold, CALIBRATED_DRIFT_THRESHOLD)
    thresholds = {"median_s": rel_threshold,
                  "model_over_measured": drift_threshold}
    if not same_env:
        thresholds.update({r.column: None for r in RULES if not r.any_env})
    cur_by_name, base_by_name = (
        {e["name"]: bench_values(entry_bench(e)) for e in art["benchmarks"]}
        for art in (current, baseline))

    verdicts: list[Verdict] = []
    for name, cur in cur_by_name.items():
        base = base_by_name.get(name)
        verdicts.append(
            Verdict(
                name, NEW, current_median_s=cur["median_s"],
                note="no baseline entry; run with --update-baseline to adopt",
            ) if base is None else _verdict(name, cur, base, thresholds))
    verdicts += [
        Verdict(name, MISSING, baseline_median_s=base["median_s"],
                note="present in baseline but not in current artifact")
        for name, base in base_by_name.items() if name not in cur_by_name
    ]
    return ComparisonResult(
        verdicts=verdicts,
        rel_threshold=rel_threshold,
        iqr_factor=IQR_FACTOR,
        drift_threshold=drift_threshold,
        drift_checked=check_drift,
        calibrated=calibrated,
    )
