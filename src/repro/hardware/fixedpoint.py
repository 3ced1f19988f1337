"""Two's-complement fixed-point formats and exact integer summation.

GRAPE-6 stores j-particle positions as 64-bit fixed-point numbers and
performs all force accumulation in fixed point (section 3.4).  Fixed
point buys two things the paper relies on:

* coordinate differences ``x_j - x_i`` are exact (no catastrophic
  cancellation near close encounters);
* sums are associative — the result cannot depend on summation order or
  on how the j-particles are partitioned over chips.

``carry_save_sum`` is the partition-independent summation used by the
block-floating-point accumulator: int64 inputs are summed as 32-bit
halves whose int64 lane sums cannot overflow, kept *unrecombined* (a
carry-save representation) so the whole reduction stays in native int64
arrays.  The lanes represent the exact value ``hi * 2**32 + lo``;
``exact_int_sum`` recombines them in Python integers (exact,
unbounded), the batched emulator datapath defers recombination — and
the only place the value could exceed 64 bits — to
:meth:`repro.hardware.blockfloat.BlockFloatAccumulator.to_float_lanes`
(in its compiled twin, beside the tile).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class FixedPointOverflow(ValueError):
    """A value does not fit in the fixed-point format."""


class NonFiniteValue(FixedPointOverflow):
    """A NaN or infinite value: it has no fixed-point representation,
    not even a saturated one."""


NOT_FINITE = "NaN or infinite value cannot be quantised"


@dataclass(frozen=True)
class FixedPointFormat:
    """Signed two's-complement fixed point with ``frac_bits`` fractional
    bits out of ``total_bits``.

    A quantity x is represented by the integer ``round(x * 2**frac_bits)``
    clamped to the signed range.  The default (64, 40) gives a dynamic
    range of +/- 2^23 with resolution 2^-40 — comfortably covering the
    Heggie-unit systems of the paper (|x| <~ 30) with ~2e-13 absolute
    resolution, matching the flavour of the real machine's coordinate
    word.

    Note on exactness: converting the *difference* of two quantized
    coordinates to float64 is exact as long as it spans < 2^53 quanta,
    i.e. |dx| < 2^13 length units with the default format; assertions
    guard this in the pipeline.
    """

    total_bits: int = 64
    frac_bits: int = 40

    def __post_init__(self) -> None:
        if not 1 <= self.total_bits <= 64:
            raise ValueError("total_bits must be in [1, 64]")
        if not 0 <= self.frac_bits < self.total_bits:
            raise ValueError("frac_bits must be in [0, total_bits)")

    @property
    def scale(self) -> float:
        """Quanta per unit: 2**frac_bits."""
        return float(2.0**self.frac_bits)

    @property
    def resolution(self) -> float:
        """Value of one least-significant bit."""
        return float(2.0**-self.frac_bits)

    @property
    def max_int(self) -> int:
        return 2 ** (self.total_bits - 1) - 1

    @property
    def min_int(self) -> int:
        return -(2 ** (self.total_bits - 1))

    @property
    def max_value(self) -> float:
        return self.max_int * self.resolution

    def quantize(self, x: np.ndarray, saturate: bool = False) -> np.ndarray:
        """Round values to the fixed-point grid; returns int64.

        Raises :class:`FixedPointOverflow` on out-of-range input unless
        ``saturate`` is set, in which case values clamp to the range
        ends (what the hardware does).  A NaN or infinite input raises
        :class:`NonFiniteValue` either way.

        The range is ``[-2^(total_bits-1), 2^(total_bits-1))`` quanta,
        bounded by the exact power of two: ``float(max_int)`` rounds up
        to 2^63 for a 64-bit word, where the cast would wrap.  This
        method is the reference of the emulator's compiled twin,
        :func:`repro.hardware.pipeline.quantize`.
        """
        x = np.asarray(x, dtype=np.float64)
        q = np.rint(x * self.scale)
        top = 2.0 ** (self.total_bits - 1)
        # every comparison with NaN is false, so NaN fails the range too
        if not (np.all(q < top) and np.all(q >= -top)):
            if not np.isfinite(x).all():
                raise NonFiniteValue(NOT_FINITE)
            if not saturate:
                raise self.out_of_range()
            over, under = q >= top, q < -top
            q = np.where(over | under, 0.0, q).astype(np.int64)
            q[over], q[under] = self.max_int, self.min_int
            return q
        return q.astype(np.int64)

    def out_of_range(self) -> FixedPointOverflow:
        """The error :meth:`quantize` raises for a value outside the range."""
        return FixedPointOverflow(
            f"value out of range for {self.total_bits}.{self.frac_bits} fixed point"
        )

    def dequantize(self, q: np.ndarray) -> np.ndarray:
        """Convert grid integers back to float64 values."""
        return np.asarray(q, dtype=np.float64) * self.resolution

    def roundtrip(self, x: np.ndarray, saturate: bool = False) -> np.ndarray:
        """Quantize-then-dequantize (the storage round-off)."""
        return self.dequantize(self.quantize(x, saturate=saturate))


def carry_save_sum(
    values: np.ndarray, axis: int = 0, scratch: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Exact int64 carry-save summation along an axis.

    Each value splits into an arithmetic high half ``v >> 32`` and an
    unsigned low 32-bit half; the int64 sums of either half cannot
    overflow for fewer than 2^31 addends — far beyond any j-memory the
    hardware supports — and are returned unrecombined: the result
    represents ``hi * 2**32 + lo`` exactly, with ``lo`` non-negative.
    The low lane is never split off: ``sum(lo_k) = sum(v_k) - 2^32
    sum(hi_k)`` lies in ``[0, 2^63)``, so the wrapping int64 arithmetic
    on the right lands on it.  ``scratch`` (int64, ``values``' shape)
    receives the high halves; without it they are a temporary.
    """
    v = np.asarray(values)
    if v.dtype != np.int64:
        raise TypeError("carry_save_sum expects int64 input")
    if v.shape[axis] >= 2**31:
        raise ValueError("too many addends for the 32-bit split")
    hi = np.asarray(np.right_shift(v, 32, out=scratch).sum(axis=axis))
    # a ufunc, not ``-``: of two numpy scalars (a 1-D input) ``-`` warns
    # on the wrap it relies on
    return hi, np.asarray(np.subtract(v.sum(axis=axis), hi << 32))


def combine_lanes_exact(hi: np.ndarray, lo: np.ndarray) -> np.ndarray:
    """Recombine carry-save lanes into exact integers: ``hi * 2**32 +
    lo`` in unbounded Python-int arithmetic (object dtype; a Python int
    for 0-d lanes, whose numpy scalars would wrap at 64 bits).  This is
    where the faithful datapath's chip partial sums become the big
    integers the FPGA adder tree carries.
    """
    hi_a = np.asarray(hi)
    lo_a = np.asarray(lo)
    if hi_a.shape == () and lo_a.shape == ():
        return int(hi_a) * (2**32) + int(lo_a)
    return np.asarray(hi_a.astype(object) * (2**32) + lo_a.astype(object))


def exact_int_sum(values: np.ndarray, axis: int = 0) -> np.ndarray:
    """Exact (big-integer) summation of int64 arrays along an axis:
    the carry-save lanes, recombined.  Returns an object-dtype array of
    exact ints (or a Python int for fully-reduced input).
    """
    return combine_lanes_exact(*carry_save_sum(values, axis=axis))
