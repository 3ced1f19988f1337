"""Reduced-precision floating-point rounding.

The GRAPE-6 pipeline does not use IEEE double precision internally:
velocities, masses and the predictor coefficients are stored in short
floating-point words, and the pairwise force path uses a logarithmic
format with roughly single-precision relative accuracy.  We emulate
these word lengths by rounding float64 values to a configurable number
of mantissa bits (round-to-nearest-even via the scale-by-power-of-two
trick, which is exact in IEEE arithmetic).

This models the *precision* of the formats, not their exact bit
layouts; DESIGN.md section 5 records the approximation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class FloatFormat:
    """A float format with ``mantissa_bits`` of mantissa (including the
    implicit leading 1) and an exponent range wide enough that the
    emulated quantities never over/underflow (the real formats carry
    generous exponent fields; dynamic-range exhaustion is modelled by
    the block-floating-point accumulator instead).

    ``mantissa_bits=24`` reproduces IEEE-single relative rounding,
    2^-24 ~ 6e-8, the accuracy class of the real pipeline.
    """

    mantissa_bits: int = 24

    def __post_init__(self) -> None:
        if not 1 <= self.mantissa_bits <= 53:
            raise ValueError("mantissa_bits must be in [1, 53]")

    @property
    def eps(self) -> float:
        """Unit round-off (half ULP at 1.0): 2^-mantissa_bits."""
        return float(2.0 ** (-self.mantissa_bits))

    def round(self, x: np.ndarray) -> np.ndarray:
        """Round values to this mantissa width (nearest-even).

        Implementation: decompose ``x = m * 2^e`` with ``0.5 <= |m| < 1``
        (exact), round ``m * 2^p`` to the nearest integer (``np.rint``
        is round-half-even, and the scaled mantissa is exactly
        representable), and rebuild with ``ldexp`` (exact).  A mantissa
        that rounds up to 2^p carries into the next binade naturally.
        Unlike the classic scale-add-subtract trick this is idempotent
        for every input.  Zeros, infs and NaNs pass through unchanged.
        """
        if self.mantissa_bits == 53:
            return np.asarray(x, dtype=np.float64).copy()
        x = np.asarray(x, dtype=np.float64)
        m, e = np.frexp(x)
        rounded = np.ldexp(np.rint(np.ldexp(m, self.mantissa_bits)), e - self.mantissa_bits)
        out = np.where(np.isfinite(x), rounded, x)
        return np.asarray(out)

    def round_inplace(self, x: np.ndarray, scratch: np.ndarray) -> np.ndarray:
        """:meth:`round` of a float64 buffer, written back into it.

        Works on the IEEE bit pattern: the ``53 - mantissa_bits`` low
        mantissa bits are dropped after adding half of the last kept
        unit, less one, plus that unit's own parity — round to nearest,
        ties to even, on the magnitude field, so the sign plays no part
        and a mantissa that rounds up carries into the exponent field
        (the next binade, or inf from the top one).  Bitwise equal to
        :meth:`round` on every finite normal number; zeros, infinities
        and the default NaN pass through (their low bits are clear; the
        NaN needs ``mantissa_bits >= 2`` to keep its quiet bit).
        Subnormals are rounded at their fixed bit position instead of
        to ``mantissa_bits`` significant bits.  ``scratch`` has ``x``'s
        shape and item size; five passes, no allocation.
        """
        drop = 53 - self.mantissa_bits
        if drop:
            bits, odd = x.view(np.uint64), scratch.view(np.uint64)
            np.right_shift(bits, drop, out=odd)
            odd &= 1
            odd += (1 << (drop - 1)) - 1
            bits += odd
            bits &= ~((1 << drop) - 1) & (2**64 - 1)
        return x

    def spacing(self, x: np.ndarray) -> np.ndarray:
        """ULP of this format at the given values."""
        x = np.asarray(x, dtype=np.float64)
        _, e = np.frexp(x)
        return np.asarray(np.ldexp(1.0, e - self.mantissa_bits))
