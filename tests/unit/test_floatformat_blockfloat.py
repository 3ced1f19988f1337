"""Reduced-precision float rounding and block-floating-point sums."""

import numpy as np
import pytest

from repro.hardware.blockfloat import (
    FRAC_BITS,
    BlockFloatAccumulator,
    BlockFloatOverflow,
    block_float_sum,
    suggest_exponent,
)
from repro.hardware.floatformat import FloatFormat


class TestFloatFormat:
    def test_single_precision_equivalence(self):
        fmt = FloatFormat(24)
        rng = np.random.default_rng(1)
        x = rng.normal(0, 1, 1000)
        np.testing.assert_array_equal(
            fmt.round(x), x.astype(np.float32).astype(np.float64)
        )

    def test_full_precision_passthrough(self):
        fmt = FloatFormat(53)
        x = np.array([np.pi, -np.e, 1e-300])
        np.testing.assert_array_equal(fmt.round(x), x)

    def test_idempotent(self):
        fmt = FloatFormat(16)
        x = np.random.default_rng(2).normal(0, 1, 100)
        once = fmt.round(x)
        np.testing.assert_array_equal(fmt.round(once), once)

    def test_relative_error_bound(self):
        fmt = FloatFormat(20)
        x = np.random.default_rng(3).lognormal(0, 10, 1000)
        rel = np.abs(fmt.round(x) - x) / x
        assert rel.max() <= 2.0**-20

    def test_preserves_zero_and_sign(self):
        fmt = FloatFormat(10)
        out = fmt.round(np.array([0.0, -0.0, 1.5, -1.5]))
        assert out[0] == 0.0
        assert out[2] == -out[3]

    def test_nonfinite_passthrough(self):
        fmt = FloatFormat(24)
        x = np.array([np.inf, -np.inf, np.nan])
        out = fmt.round(x)
        assert out[0] == np.inf
        assert out[1] == -np.inf
        assert np.isnan(out[2])

    def test_validation(self):
        with pytest.raises(ValueError):
            FloatFormat(0)
        with pytest.raises(ValueError):
            FloatFormat(54)

    def test_eps(self):
        assert FloatFormat(24).eps == 2.0**-24


def bits(x):
    return np.asarray(x, dtype=np.float64).view(np.uint64)


def rounded_inplace(fmt, x):
    x = np.array(x, dtype=np.float64)
    out = fmt.round_inplace(x, np.empty_like(x))
    assert out is x
    return x


class TestRoundInplace:
    """The pipeline tile's bit-pattern rounding against the ``frexp``
    form, compared as bit patterns (so -0.0 and NaN count)."""

    @pytest.mark.parametrize("mantissa_bits", [24, 32, 11, 2, 53])
    def test_random_normals_over_the_full_exponent_range(self, mantissa_bits):
        fmt = FloatFormat(mantissa_bits)
        rng = np.random.default_rng(mantissa_bits)
        x = np.ldexp(rng.uniform(0.5, 1.0, 20000), rng.integers(-1021, 1025, 20000))
        x *= rng.choice([-1.0, 1.0], x.shape)
        with np.errstate(over="ignore"):  # the top binade may round to inf
            want = fmt.round(x)
        np.testing.assert_array_equal(bits(rounded_inplace(fmt, x)), bits(want))

    def test_exact_ties_go_to_even_both_ways(self):
        fmt = FloatFormat(24)
        ulp = 2.0**-23  # of the 24-bit format in [1, 2)
        x = np.array([1 + 0.5 * ulp, 1 + 1.5 * ulp, -(1 + 0.5 * ulp), -(1 + 1.5 * ulp)])
        got = rounded_inplace(fmt, x)
        np.testing.assert_array_equal(got, [1.0, 1 + 2 * ulp, -1.0, -(1 + 2 * ulp)])
        np.testing.assert_array_equal(bits(got), bits(fmt.round(x)))
        # one float64 ulp either side of a tie is no tie
        near = np.array([np.nextafter(x[0], 2.0), np.nextafter(x[1], 0.0)])
        np.testing.assert_array_equal(rounded_inplace(fmt, near), [1 + ulp, 1 + ulp])

    def test_all_ones_mantissa_carries_into_the_next_binade(self):
        fmt = FloatFormat(24)
        x = np.array([np.nextafter(2.0, 0.0), -np.nextafter(4.0, 0.0), np.finfo(float).max])
        got = rounded_inplace(fmt, x)
        np.testing.assert_array_equal(got, [2.0, -4.0, np.inf])
        with np.errstate(over="ignore"):
            np.testing.assert_array_equal(bits(got), bits(fmt.round(x)))

    def test_zeros_and_nonfinite_unchanged(self):
        x = np.array([0.0, -0.0, np.inf, -np.inf, np.nan])
        for mantissa_bits in (2, 24, 52):  # at 1 the NaN's quiet bit is a tie
            got = rounded_inplace(FloatFormat(mantissa_bits), x)
            np.testing.assert_array_equal(bits(got), bits(x))

    def test_idempotent(self):
        fmt = FloatFormat(24)
        x = np.random.default_rng(4).lognormal(0, 30, 5000)
        once = rounded_inplace(fmt, x)
        np.testing.assert_array_equal(bits(rounded_inplace(fmt, once)), bits(once))

    def test_any_shape_and_no_other_write(self):
        """A (planes, rows, n_j) block as the tile passes it; the scratch
        is the only other memory touched."""
        fmt = FloatFormat(24)
        x = np.random.default_rng(5).normal(0, 1, (7, 5, 9))
        want = fmt.round(x)
        buf = np.full((2, 7, 5, 9), 7.0)
        buf[0] = x
        fmt.round_inplace(buf[0], buf[1])
        np.testing.assert_array_equal(buf[0], want)


class TestSuggestExponent:
    def test_bounds_magnitude(self):
        est = np.array([0.75, 3.0, 1e-10, 1e10])
        e = suggest_exponent(est)
        assert np.all(2.0**e > est)
        assert np.all(2.0 ** (e - 1) <= est)

    def test_zero_estimate_safe(self):
        e = suggest_exponent(np.array([0.0]))
        assert np.isfinite(e).all()


class TestBlockFloatSum:
    def test_exactness_of_sum_on_grid(self):
        # values already on the accumulator grid sum exactly
        e = np.array([0], dtype=np.int64)
        q = 2.0 ** (0 - FRAC_BITS)
        contribs = np.array([3 * q, 5 * q, -2 * q])
        total = block_float_sum(contribs, e[0] * np.ones((), dtype=np.int64))
        assert total == pytest.approx(6 * q, rel=0, abs=0)

    def test_partition_independence(self):
        rng = np.random.default_rng(4)
        contribs = rng.normal(0, 1e-3, (500, 3))
        e = suggest_exponent(np.abs(contribs).sum(axis=0).max() * np.ones(3))
        total = block_float_sum(contribs, e)
        # any split, summed exactly, gives the identical float result
        for parts in (2, 5, 9):
            acc = BlockFloatAccumulator(e)
            partials = []
            for p in range(parts):
                chunk = contribs[p::parts]
                exp_full = np.broadcast_to(e[None, :], chunk.shape)
                qn = BlockFloatAccumulator(exp_full).quantize(chunk)
                partials.append(acc.reduce(qn, axis=0))
            combined = acc.combine(partials)
            np.testing.assert_array_equal(acc.to_float(combined), total)

    def test_quantisation_error_bound(self):
        rng = np.random.default_rng(5)
        contribs = rng.normal(0, 1.0, 1000)
        ref = contribs.sum()
        e = suggest_exponent(np.array([np.abs(ref) + np.abs(contribs).max()]))
        total = block_float_sum(contribs, e[0:1])
        # per-contribution rounding is at most half a quantum
        quantum = 2.0 ** (int(e[0]) - FRAC_BITS)
        assert abs(float(total[0]) - ref) <= 0.5 * quantum * len(contribs)

    def test_overflow_on_underdeclared_exponent(self):
        contribs = np.full(1000, 1.0)
        with pytest.raises(BlockFloatOverflow):
            # declare exponent for ~1.0, sum is 1000: headroom (256x)
            # exceeded
            block_float_sum(contribs, np.array(1, dtype=np.int64))

    def test_single_contribution_saturation(self):
        acc = BlockFloatAccumulator(np.array(0, dtype=np.int64))
        with pytest.raises(BlockFloatOverflow):
            acc.quantize(np.array(1.0e30))

    def test_headroom_allows_moderate_excess(self):
        # totals up to ~256 * 2^e fit (63 - 55 = 8 bits of headroom)
        contribs = np.full(100, 1.0)
        total = block_float_sum(contribs, np.array(1, dtype=np.int64))
        assert float(total) == pytest.approx(100.0)


class TestToFloatLanes:
    """The carry-save conversion of the batched datapath must round and
    range-check exactly like the big-integer ``to_float``."""

    def _both(self, values):
        from repro.hardware.fixedpoint import carry_save_sum, exact_int_sum

        acc = BlockFloatAccumulator(np.zeros(values.shape[1:], dtype=np.int64))
        ref = acc.to_float(exact_int_sum(values, axis=0))
        got = acc.to_float_lanes(*carry_save_sum(values, axis=0))
        return ref, got

    def test_matches_object_path(self):
        rng = np.random.default_rng(6)
        v = rng.integers(-(2**61), 2**61, (40, 7), dtype=np.int64)
        ref, got = self._both(v)
        np.testing.assert_array_equal(ref, got)

    def test_matches_near_register_limit(self):
        # column totals 2^63 - 1 and -(2^63) + 1: the register extremes
        v = np.array(
            [[2**62, -(2**62)], [2**62 - 1, -(2**62) + 1]], dtype=np.int64
        )
        ref, got = self._both(v)
        np.testing.assert_array_equal(ref, got)

    def test_overflow_raised_like_object_path(self):
        from repro.hardware.fixedpoint import carry_save_sum

        acc = BlockFloatAccumulator(np.array(0, dtype=np.int64))
        over = np.array([2**62, 2**62], dtype=np.int64)  # total = 2^63
        with pytest.raises(BlockFloatOverflow):
            acc.to_float(sum(int(x) for x in over))
        with pytest.raises(BlockFloatOverflow):
            acc.to_float_lanes(*carry_save_sum(over))

    def test_negative_register_edge(self):
        # -2^63 is representable in two's complement but flagged by the
        # hardware; both paths must raise
        from repro.hardware.fixedpoint import carry_save_sum

        acc = BlockFloatAccumulator(np.array(0, dtype=np.int64))
        edge = np.array([-(2**62), -(2**62)], dtype=np.int64)
        with pytest.raises(BlockFloatOverflow):
            acc.to_float(np.asarray([-(2**63)], dtype=object))
        with pytest.raises(BlockFloatOverflow):
            acc.to_float_lanes(*carry_save_sum(edge))
        # one quantum inside the edge converts fine on both paths
        inside = np.array([-(2**62), -(2**62) + 1], dtype=np.int64)
        ref = acc.to_float(np.asarray(-(2**63) + 1, dtype=object))
        got = acc.to_float_lanes(*carry_save_sum(inside))
        np.testing.assert_array_equal(np.asarray(ref), got)
