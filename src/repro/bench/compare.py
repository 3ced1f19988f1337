"""Noise-aware regression gate between two ``BENCH_*.json`` artifacts.

The gate reads three numbers of each benchmark entry — the median and
IQR of its wall-time trials and its ``model_over_measured`` derived
value — and applies two rules to each (baseline, current) pair.

The **median rule** mirrors how the paper treats re-measurements of the
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

The **model-drift rule**: benchmarks that publish a
``model_over_measured`` derived value (the analytic eq. 10 model's
prediction over the measured median) must keep that ratio inside the
symmetric band ``[1/(1+t), 1+t]`` of the baseline's.  A uniform
slowdown moves the ratio and the median together and is caught above;
a *drift* of the ratio alone means the analytic perfmodel and the
implementation no longer describe the same machine — which is a
correctness problem for every model-derived figure, not a performance
problem.  It only runs when both artifacts carry the same environment
fingerprint (a new machine legitimately re-anchors the ratio); it
reports ``DRIFT``, which fails the gate like a regression.  A
regression outranks a drift (the more actionable finding), and a drift
outranks an improvement.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any

from ..perfmodel.calibrate import calibrated_environment, model_ratio
from ..provenance import env_key
from .artifact import validate_artifact

PASS = "PASS"
REGRESSED = "REGRESSED"
IMPROVED = "IMPROVED"
DRIFT = "DRIFT"
NEW = "NEW"
MISSING = "MISSING"

#: Relative threshold on the median wall time.  Wide on purpose: the
#: flag is for algorithmic regressions (2x and worse), and sustained
#: background load on a shared runner routinely shifts whole runs by
#: 30-40%.  Tighten with ``compare --threshold`` on quiet hosts.
DEFAULT_REL_THRESHOLD = 0.5

#: The median's noise floor is this many relative IQRs wide.
IQR_FACTOR = 3.0

#: Relative change of ``model_over_measured`` between baseline and
#: current that counts as model drift.  Wall-clock medians scatter
#: ~30% on shared runners and the ratio inherits that scatter, so the
#: flag is deliberately wide; the virtual-clock benchmarks
#: (deterministic measured side) can be held much tighter with
#: ``compare --drift-threshold``.
DEFAULT_DRIFT_THRESHOLD = 0.5

#: Drift threshold ``compare`` applies instead when the current
#: artifact's environment has a ledger-fed calibration entry
#: (:mod:`repro.perfmodel.calibrate`): on a machine the model was
#: actually fitted to, the ratio is expected stable to 10%.
CALIBRATED_DRIFT_THRESHOLD = 0.1

#: The statuses that fail the gate.
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

    @property
    def failed(self) -> bool:
        return self.status in FAILING

    def as_dict(self) -> dict[str, Any]:
        return asdict(self)


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


def _point(entry: dict[str, Any]) -> tuple[float, float, float | None]:
    """What the gate reads of one benchmark entry: the median and IQR of
    its wall-time trials, and its ``model_over_measured`` (or None)."""
    wall = entry["stats"]["wall_s"]
    return wall["median"], wall.get("iqr") or 0.0, model_ratio(entry)


def _verdict(
    name: str,
    cur: tuple[float, float, float | None],
    base: tuple[float, float, float | None],
    rel_threshold: float,
    drift_threshold: float | None,
) -> Verdict:
    """Both rules over one (baseline, current) pair, loudest status wins."""
    (c_med, c_iqr, c_model), (b_med, b_iqr, b_model) = cur, base
    medians = dict(baseline_median_s=b_med, current_median_s=c_med)
    if not (b_med > 0.0 and c_med > 0.0):
        return Verdict(
            name, PASS, **medians,
            note="degenerate timing (zero median); not comparable")
    band = max(rel_threshold, IQR_FACTOR * max(b_iqr / b_med, c_iqr / c_med))
    ratio = c_med / b_med
    drift = None
    if (drift_threshold is not None and b_model is not None
            and c_model is not None and b_model > 0.0 and c_model > 0.0):
        moved = c_model / b_model
        if moved > 1.0 + drift_threshold or moved < 1.0 / (1.0 + drift_threshold):
            drift = moved
    if ratio > 1.0 + band:
        status, note = REGRESSED, f"{ratio - 1.0:+.1%} vs baseline"
    elif drift is not None:
        status, note = DRIFT, (
            f"model/measured {b_model:.3g} -> {c_model:.3g} "
            f"({drift - 1.0:+.1%}): analytic perfmodel no "
            f"longer tracks the measurement")
    elif ratio < 1.0 / (1.0 + band):
        status, note = IMPROVED, f"{ratio - 1.0:+.1%} vs baseline"
    else:
        status = PASS
        note = "within noise floor" if band > rel_threshold else ""
    return Verdict(name=name, status=status, ratio=ratio, threshold=band,
                   note=note, **medians)


def compare_benchmark(
    current: dict[str, Any],
    baseline: dict[str, Any],
    rel_threshold: float = DEFAULT_REL_THRESHOLD,
    drift_threshold: float | None = None,
) -> Verdict:
    """Verdict for one benchmark entry pair (same name and environment
    assumed).

    ``drift_threshold`` enables the model-drift rule: when both entries
    publish ``model_over_measured`` and the ratio-of-ratios leaves
    ``[1/(1+t), 1+t]``, the verdict is ``DRIFT`` (failing) unless the
    wall gate already regressed (the louder finding wins).
    """
    return _verdict(current["name"], _point(current), _point(baseline),
                    rel_threshold, drift_threshold)


def compare_artifacts(
    current: dict[str, Any],
    baseline: dict[str, Any],
    rel_threshold: float = DEFAULT_REL_THRESHOLD,
    drift_threshold: float | None = DEFAULT_DRIFT_THRESHOLD,
    calibration: dict[str, Any] | None = None,
) -> ComparisonResult:
    """Compare every benchmark by name; validates both artifacts.

    The drift rule runs only when both artifacts carry the same
    environment fingerprint: on a different machine the measured side
    of ``model_over_measured`` legitimately changes, so drift against a
    foreign baseline would be pure noise.  Pass ``drift_threshold=None``
    to disable the drift rule outright.

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
        calibrated = calibrated_environment(
            calibration, current["environment"]) is not None
        if calibrated:
            drift_threshold = min(
                drift_threshold, CALIBRATED_DRIFT_THRESHOLD)
    cur_by_name, base_by_name = (
        {e["name"]: _point(e) for e in art["benchmarks"]}
        for art in (current, baseline))

    adopt = ("no baseline entry; to adopt, re-record the baseline: python -m "
             f"repro.bench run --suite {current['suite']} "
             "--out benchmarks/baseline.json")
    verdicts: list[Verdict] = []
    for name, cur in cur_by_name.items():
        base = base_by_name.get(name)
        verdicts.append(
            Verdict(name, NEW, current_median_s=cur[0], note=adopt)
            if base is None else _verdict(
                name, cur, base, rel_threshold,
                drift_threshold if same_env else None))
    verdicts += [
        Verdict(name, MISSING, baseline_median_s=base[0],
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
