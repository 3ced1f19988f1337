"""The power-of-two histogram the run ledgers keep distributions in.

Distributions measured from real runs - bytes and flight time per NIC
message, a rank's task wall times - are kept by the stats object that
owns the quantity (:class:`repro.parallel.ledger.CommLedger`,
:class:`repro.telemetry.RankLedger`) in a :class:`Histogram`, or folded
with :func:`pow2_bins` into the same bin layout.
"""

from __future__ import annotations

import math

import numpy as np


def pow2_bins(values: np.ndarray) -> np.ndarray:
    """Power-of-two bin of every element, as :class:`Histogram` bins
    one observation: 0 for values <= 1, else ``1 + floor(log2(v))``
    taken from the exact binary exponent.  ``np.frexp`` returns the
    exponent ``math.frexp`` does, so array folds agree with
    :meth:`Histogram.observe` by construction."""
    return np.where(values <= 1.0, 0, np.frexp(values)[1])


class Histogram:
    """Streaming distribution: moments, extrema and power-of-two bins.

    The bin layout matches the quantity the paper histograms most —
    block sizes, which live on power-of-two timestep levels — but works
    for any positive-ish measurement (message bytes, latencies).
    Values <= 1 land in bin 0; value v lands in bin
    ``1 + floor(log2(v))`` otherwise — read off the exact binary
    exponent, because ``math.log2`` rounds ``nextafter(2**k, 0)`` up to
    ``k`` and would put it one bin too high.
    """

    __slots__ = ("name", "count", "total", "sq_total", "min", "max", "bins")

    def __init__(self, name: str) -> None:
        self.name = name
        self.count: int = 0
        self.total: float = 0.0
        self.sq_total: float = 0.0
        self.min: float = math.inf
        self.max: float = -math.inf
        self.bins: dict[int, int] = {}

    def observe(self, value: float) -> None:
        v = float(value)
        self.count += 1
        self.total += v
        self.sq_total += v * v
        if v < self.min:
            self.min = v
        if v > self.max:
            self.max = v
        b = 0 if v <= 1.0 else math.frexp(v)[1]
        self.bins[b] = self.bins.get(b, 0) + 1

    def observe_many(self, values: np.ndarray) -> None:
        """:meth:`observe` every element in order, as one call.  The
        sums stay scalar additions in sequence, so the result is bit
        for bit that of the element-wise calls; at the sizes a message
        round has (tens of values) that is also cheaper than any array
        formulation, whose fixed cost per operation dominates."""
        observed = np.asarray(values, dtype=float).tolist()
        if not observed:
            return
        total, sq_total, bins = self.total, self.sq_total, self.bins
        frexp = math.frexp
        for v in observed:
            total += v
            sq_total += v * v
            b = 0 if v <= 1.0 else frexp(v)[1]
            bins[b] = bins.get(b, 0) + 1
        self.count += len(observed)
        self.total, self.sq_total = total, sq_total
        self.min = min(self.min, *observed)
        self.max = max(self.max, *observed)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    @property
    def std(self) -> float:
        if self.count < 2:
            return 0.0
        var = self.sq_total / self.count - self.mean**2
        return math.sqrt(max(var, 0.0))

    def percentile(self, q: float) -> float:
        """Approximate percentile from the power-of-two bins.

        Walks the cumulative bin counts to the bin containing the
        q-th observation and returns that bin's upper edge (2^b;
        bin 0's edge is 1.0), clamped to the observed [min, max] so a
        single-bucket histogram reports exact extrema rather than a
        bin boundary.  Resolution is therefore one octave — the same
        granularity the paper's block-size histograms have.
        """
        if not 0.0 <= q <= 100.0:
            raise ValueError("percentile q must be in [0, 100]")
        if self.count == 0:
            return 0.0
        # exact at the extrema: q=0 is the observed minimum and q=100
        # the observed maximum, never a bin edge (the bin walk below
        # would report the *first bin's* upper edge for q=0, which for
        # a min deep inside that bin overstates it by up to an octave)
        if q == 0.0:
            return self.min
        if q == 100.0:
            return self.max
        target = (q / 100.0) * self.count
        cum = 0
        for b in sorted(self.bins):
            cum += self.bins[b]
            if cum >= target:
                upper = 1.0 if b == 0 else float(2**b)
                return min(max(upper, self.min), self.max)
        return self.max

    def summary(self) -> dict[str, float]:
        return {
            "count": self.count,
            "total": self.total,
            "mean": self.mean,
            "std": self.std,
            "min": self.min if self.count else 0.0,
            "max": self.max if self.count else 0.0,
            "p50": self.percentile(50.0),
            "p90": self.percentile(90.0),
            "p99": self.percentile(99.0),
        }
