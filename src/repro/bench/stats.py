"""Repeated-trial statistics for benchmark artifacts.

The paper reports sustained speeds measured over repeated runs of the
same sweep (section 5 re-measures the same N grid on every hardware
revision); a single number hides the run-to-run scatter that decides
whether a later difference is a regression or noise.  Every timing in
a ``BENCH_*.json`` artifact therefore carries the full trial list plus
the order statistics the regression gate needs: the median as the
location estimate (robust to one slow trial) and the inter-quartile
range as the noise floor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolation percentile of ``values`` (q in [0, 100]).

    Mirrors numpy's default method without requiring an array; an empty
    sequence yields 0.0 so artifact writers never crash on a degenerate
    trial list.
    """
    if not 0.0 <= q <= 100.0:
        raise ValueError("percentile q must be in [0, 100]")
    xs = sorted(float(v) for v in values)
    if not xs:
        return 0.0
    if len(xs) == 1:
        return xs[0]
    pos = (len(xs) - 1) * (q / 100.0)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    frac = pos - lo
    return xs[lo] * (1.0 - frac) + xs[hi] * frac


@dataclass(frozen=True)
class TrialStats:
    """Order statistics of one repeated measurement."""

    n: int
    min: float
    max: float
    mean: float
    std: float
    median: float
    q1: float
    q3: float

    @property
    def iqr(self) -> float:
        return self.q3 - self.q1

    def as_dict(self) -> dict[str, Any]:
        return {
            "n": self.n,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
            "std": self.std,
            "median": self.median,
            "q1": self.q1,
            "q3": self.q3,
            "iqr": self.iqr,
        }


def trial_stats(values: Sequence[float]) -> TrialStats:
    """Summarise a trial list; tolerates empty and single-element lists."""
    xs = [float(v) for v in values]
    n = len(xs)
    if n == 0:
        return TrialStats(0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    mean = sum(xs) / n
    var = sum((x - mean) ** 2 for x in xs) / n if n > 1 else 0.0
    return TrialStats(
        n=n,
        min=min(xs),
        max=max(xs),
        mean=mean,
        std=var**0.5,
        median=percentile(xs, 50.0),
        q1=percentile(xs, 25.0),
        q3=percentile(xs, 75.0),
    )
