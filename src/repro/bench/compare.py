"""Noise-aware regression gate between two ``BENCH_*.json`` artifacts.

The gate reads two numbers of each benchmark entry — the median and
IQR of its wall-time trials — and applies one rule to each (baseline,
current) pair.  It mirrors how the paper treats re-measurements of the
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
silently mis-reads an artifact is worse than no gate.  Outputs that are
exact (the virtual-clock runs of figs. 15-19) are not timed here:
``benchmarks/test_virtual_runs.py`` pins them with ``==``.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any

from .artifact import validate_artifact

PASS = "PASS"
REGRESSED = "REGRESSED"
IMPROVED = "IMPROVED"
NEW = "NEW"
MISSING = "MISSING"

#: Relative threshold on the median wall time.  Wide on purpose: the
#: flag is for algorithmic regressions (2x and worse), and sustained
#: background load on a shared runner routinely shifts whole runs by
#: 30-40%.  Tighten with ``compare --threshold`` on quiet hosts.
DEFAULT_REL_THRESHOLD = 0.5

#: The median's noise floor is this many relative IQRs wide.
IQR_FACTOR = 3.0

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
        return self.status == REGRESSED

    def as_dict(self) -> dict[str, Any]:
        return asdict(self)


@dataclass(frozen=True)
class ComparisonResult:
    """All verdicts plus the roll-up the CLI turns into an exit code."""

    verdicts: list[Verdict]
    rel_threshold: float
    iqr_factor: float

    @property
    def regressed(self) -> list[Verdict]:
        return [v for v in self.verdicts if v.status == REGRESSED]

    @property
    def ok(self) -> bool:
        return not any(v.failed for v in self.verdicts)

    def as_dict(self) -> dict[str, Any]:
        return {
            "rel_threshold": self.rel_threshold,
            "iqr_factor": self.iqr_factor,
            "ok": self.ok,
            "verdicts": [v.as_dict() for v in self.verdicts],
        }


def _point(entry: dict[str, Any]) -> tuple[float, float]:
    """What the gate reads of one benchmark entry: the median and IQR of
    its wall-time trials."""
    wall = entry["stats"]["wall_s"]
    return wall["median"], wall.get("iqr") or 0.0


def _verdict(
    name: str,
    cur: tuple[float, float],
    base: tuple[float, float],
    rel_threshold: float,
) -> Verdict:
    """The median rule over one (baseline, current) pair."""
    (c_med, c_iqr), (b_med, b_iqr) = cur, base
    medians = dict(baseline_median_s=b_med, current_median_s=c_med)
    if not (b_med > 0.0 and c_med > 0.0):
        return Verdict(
            name, PASS, **medians,
            note="degenerate timing (zero median); not comparable")
    band = max(rel_threshold, IQR_FACTOR * max(b_iqr / b_med, c_iqr / c_med))
    ratio = c_med / b_med
    if ratio > 1.0 + band:
        status, note = REGRESSED, f"{ratio - 1.0:+.1%} vs baseline"
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
) -> Verdict:
    """Verdict for one benchmark entry pair (same name assumed)."""
    return _verdict(current["name"], _point(current), _point(baseline),
                    rel_threshold)


def compare_artifacts(
    current: dict[str, Any],
    baseline: dict[str, Any],
    rel_threshold: float = DEFAULT_REL_THRESHOLD,
) -> ComparisonResult:
    """Compare every benchmark by name; validates both artifacts."""
    validate_artifact(current, source="current")
    validate_artifact(baseline, source="baseline")
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
            if base is None else _verdict(name, cur, base, rel_threshold))
    verdicts += [
        Verdict(name, MISSING, baseline_median_s=base[0],
                note="present in baseline but not in current artifact")
        for name, base in base_by_name.items() if name not in cur_by_name
    ]
    return ComparisonResult(
        verdicts=verdicts,
        rel_threshold=rel_threshold,
        iqr_factor=IQR_FACTOR,
    )
