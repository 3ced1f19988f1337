"""Block-floating-point force accumulation (paper, section 3.4).

"In order to simplify the design [of the FPGA summation hardware], we
chose to use a block floating point format for the force and other
calculated result.  In this format, we specify the exponent of the
result before we start calculation. ... Since the actual summations,
both within the chip and outside the chip, are done in fixed-point
format, no round-off error is generated during summation."

Model
-----
For each accumulated quantity the host declares a block exponent
``e``.  Every pairwise contribution ``c`` is converted to the integer
``round(c / q)`` with quantum ``q = 2^(e - FRAC_BITS)``; the 64-bit
accumulator therefore covers ``[-2^63 q, 2^63 q)``, i.e. values up to
``2^(HEADROOM_BITS) * 2^e`` with ``HEADROOM_BITS = 63 - FRAC_BITS``
bits of headroom above the declared magnitude.  All additions are
exact integers; a value (or the total) outside the accumulator range
raises :class:`BlockFloatOverflow`, and the host retries with a larger
exponent — "for the initial calculation, we sometimes need to repeat
the force calculation a few times until we have a good guess for the
exponent" — see :meth:`repro.hardware.system.Grape6Emulator`.

Because the integer sums are exact and quantisation happens per
contribution, the final value depends only on the multiset of
contributions and the exponent — **not** on how contributions are
split across pipelines, chips, modules or boards.  This is the
machine-size independence the paper highlights, and the central
property-based test of the emulator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fixedpoint import exact_int_sum

#: Fractional bits of the accumulator below the declared exponent.
FRAC_BITS: int = 55

#: Headroom above 2^e before the 64-bit register overflows.
HEADROOM_BITS: int = 63 - FRAC_BITS


class BlockFloatOverflow(ArithmeticError):
    """A contribution or total exceeded the declared block exponent's
    range; the host must retry with a larger exponent."""


#: What :class:`BlockFloatOverflow` says of a total outside the register.
OVERFLOWS = "accumulated total overflows the declared exponent"


def suggest_exponent(estimate: np.ndarray) -> np.ndarray:
    """Initial block-exponent guess from a magnitude estimate.

    Returns ``e`` such that ``2^e > |estimate|`` (elementwise).  In
    production GRAPE codes the estimate is the previous step's force,
    "almost always okay"; on the first step the host uses any cheap
    approximation and relies on the retry loop.
    """
    est = np.abs(np.asarray(estimate, dtype=np.float64))
    est = np.maximum(est, np.finfo(np.float64).tiny)
    _, e = np.frexp(est)  # est = m * 2^e, 0.5 <= m < 1  =>  2^e > est
    return e.astype(np.int64)


@dataclass
class BlockFloatAccumulator:
    """Exact fixed-point accumulator under a per-column block exponent.

    Parameters
    ----------
    exponents:
        int array, one declared exponent per accumulated output
        (broadcastable against the non-summed shape of the
        contributions).
    """

    exponents: np.ndarray

    def __post_init__(self) -> None:
        self.exponents = np.asarray(self.exponents, dtype=np.int64)

    def quantize(self, contributions: np.ndarray) -> np.ndarray:
        """Convert float contributions to accumulator integers (int64).

        Raises :class:`BlockFloatOverflow` if any single contribution
        does not fit the register (the hardware's saturation flag, "not
        (finite and below 2^62)": a NaN contribution saturates too).
        """
        c = np.asarray(contributions, dtype=np.float64)
        q = np.ldexp(1.0, (self.exponents - FRAC_BITS).astype(np.int64))
        scaled = c / q
        if not (np.abs(scaled) < 2.0**62).all():
            raise BlockFloatOverflow("pairwise contribution saturates the accumulator")
        return np.rint(scaled).astype(np.int64)

    def reduce(self, quantized: np.ndarray, axis: int = 0) -> np.ndarray:
        """Exact integer reduction along an axis; object-dtype ints."""
        return np.asarray(exact_int_sum(quantized, axis=axis))

    def combine(self, partials: list) -> np.ndarray:
        """Exact combination of partial integer sums (the FPGA adder
        tree between chips/modules/boards)."""
        total = partials[0]
        for p in partials[1:]:
            total = np.add(np.asarray(total, dtype=object), np.asarray(p, dtype=object))
        return np.asarray(total)

    def to_float(self, total) -> np.ndarray:
        """Check range and convert the exact integer total to float64.

        Raises :class:`BlockFloatOverflow` if the total exceeds the
        64-bit register (this is where the retry loop triggers).

        This is the faithful-path conversion: ``total`` holds exact
        (object-dtype) big integers from :func:`exact_int_sum`, so the
        range check runs elementwise on Python ints — but in one
        vectorised ``np.any`` rather than a Python generator loop.
        The batched datapath converts as :meth:`to_float_lanes` does,
        which never leaves native int64.
        """
        total_obj = np.asarray(total, dtype=object)
        limit = 2**63
        if total_obj.size and bool(np.any(np.abs(total_obj) >= limit)):
            raise BlockFloatOverflow(OVERFLOWS)
        as_float = total_obj.astype(np.float64)
        q = np.ldexp(1.0, (self.exponents - FRAC_BITS).astype(np.int64))
        return np.asarray(as_float * q)

    def to_float_lanes(self, hi: np.ndarray, lo: np.ndarray) -> np.ndarray:
        """Range-check and convert a carry-save total (see
        :func:`repro.hardware.fixedpoint.carry_save_sum`) to float64.

        The exact total is ``hi * 2**32 + lo``.  After normalising the
        carry out of the low lane, the total fits the signed 64-bit
        register iff the carried high lane lies in ``[-2^31, 2^31)``
        (the faithful path's ``|total| >= 2^63`` check, including the
        ``-2^63`` edge the two's-complement register technically holds
        but the hardware flags).  The whole check is native int64
        numpy — no Python-int loop — and for in-range totals the int64
        recombination plus float64 cast rounds identically (nearest
        even) to the faithful path's big-int-to-float conversion, so
        the two paths stay bit-identical.  This method is the reference
        of the pipeline library's conversion, which the batched
        datapath runs beside the tile
        (:func:`repro.hardware.pipeline.lanes_to_forces`).
        """
        hi = np.asarray(hi, dtype=np.int64)
        lo = np.asarray(lo, dtype=np.int64)
        carry = lo >> np.int64(32)
        lo_rem = lo & np.int64(0xFFFFFFFF)
        hi_tot = hi + carry
        half = np.int64(2**31)
        bad = (hi_tot >= half) | (hi_tot < -half) | ((hi_tot == -half) & (lo_rem == 0))
        if np.any(bad):
            raise BlockFloatOverflow(OVERFLOWS)
        total = hi_tot * np.int64(2**32) + lo_rem
        q = np.ldexp(1.0, (self.exponents - FRAC_BITS).astype(np.int64))
        return np.asarray(total.astype(np.float64) * q)


def block_float_sum(
    contributions: np.ndarray, exponents: np.ndarray, axis: int = 0
) -> np.ndarray:
    """One-shot helper: quantise, exactly reduce, and convert back.

    ``exponents`` must broadcast against the output shape (the input
    shape with ``axis`` removed).
    """
    acc = BlockFloatAccumulator(exponents)
    c = np.asarray(contributions, dtype=np.float64)
    # broadcast exponents up to the contribution shape for quantisation
    exp_full = np.broadcast_to(
        np.expand_dims(acc.exponents, axis) if acc.exponents.ndim == c.ndim - 1 else acc.exponents,
        c.shape,
    )
    per_pair = BlockFloatAccumulator(exp_full)
    quantized = per_pair.quantize(c)
    total = exact_int_sum(quantized, axis=axis)
    return acc.to_float(total)
