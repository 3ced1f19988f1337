"""Fixed-point formats and exact integer summation."""

import numpy as np
import pytest

from repro.hardware import pipeline
from repro.hardware.fixedpoint import (
    FixedPointFormat,
    FixedPointOverflow,
    NonFiniteValue,
    carry_save_sum,
    combine_lanes_exact,
    exact_int_sum,
)

pytestmark = pytest.mark.tiers

#: Both tiers of the format: the reference method, and the twin the
#: emulator calls (compiled where this process resolved the C tier).
TIERS = [
    pytest.param(FixedPointFormat.quantize, id="numpy"),
    pytest.param(pipeline.quantize, id=f"served-{pipeline.PIPELINE_TIER}"),
]


class TestFixedPointFormat:
    def test_resolution_and_range(self):
        fmt = FixedPointFormat(64, 40)
        assert fmt.resolution == 2.0**-40
        assert fmt.scale == 2.0**40
        assert fmt.max_value == pytest.approx(2.0**23, rel=1e-6)

    def test_quantize_roundtrip_on_grid(self):
        fmt = FixedPointFormat(32, 16)
        x = np.array([1.0, -2.5, 0.0, 100.0 + 2.0**-16])
        np.testing.assert_array_equal(fmt.roundtrip(x), x)

    def test_quantize_rounds_to_nearest(self):
        fmt = FixedPointFormat(32, 4)  # resolution 1/16
        assert fmt.roundtrip(np.array([0.26]))[0] == pytest.approx(0.25)
        assert fmt.roundtrip(np.array([0.30]))[0] == pytest.approx(5 / 16)

    def test_overflow_raises(self):
        fmt = FixedPointFormat(16, 8)  # range ~ +/- 128
        with pytest.raises(FixedPointOverflow):
            fmt.quantize(np.array([200.0]))

    def test_saturation_clamps(self):
        fmt = FixedPointFormat(16, 8)
        q = fmt.quantize(np.array([1.0e6, -1.0e6]), saturate=True)
        assert q[0] == fmt.max_int
        assert q[1] == fmt.min_int

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("saturate", [False, True])
    def test_non_finite_is_a_named_error(self, bad, saturate, recwarn):
        # NaN once cast to INT64_MIN behind a RuntimeWarning, and
        # saturation clamped an infinity to a range end
        fmt = FixedPointFormat(64, 40)
        with pytest.raises(NonFiniteValue):
            fmt.quantize(np.array([0.5, bad, 1.0]), saturate=saturate)
        assert not recwarn.list

    def test_validation(self):
        with pytest.raises(ValueError):
            FixedPointFormat(0, 0)
        with pytest.raises(ValueError):
            FixedPointFormat(65, 10)
        with pytest.raises(ValueError):
            FixedPointFormat(32, 32)

    def test_difference_exactness(self):
        # key property for the pipeline: quantized differences are exact
        fmt = FixedPointFormat(64, 40)
        rng = np.random.default_rng(1)
        x = rng.uniform(-20, 20, 1000)
        q = fmt.quantize(x)
        dq = q[None, :50] - q[:50, None]
        dx = dq.astype(np.float64) * fmt.resolution
        # every difference is an exact multiple of the resolution
        np.testing.assert_array_equal(
            dx / fmt.resolution, np.rint(dx / fmt.resolution)
        )


@pytest.mark.parametrize("quantize", TIERS)
class TestRangeEnds:
    """The range is [-2^(bits-1), 2^(bits-1)) quanta, bounded by the exact
    power of two.  A 64-bit word's ``float(max_int)`` is 2^63, and the
    cast of 2^63 quanta wrapped to INT64_MIN behind a RuntimeWarning:
    a particle flown past +2^23 came back at -2^23."""

    POS = FixedPointFormat(64, 40)

    @pytest.mark.parametrize("x", [2.0**23 - 2.0**-40, 2.0**23, 2.0**24, -(2.0**23) - 2.0**-29])
    def test_the_top_of_a_64_bit_word_overflows(self, quantize, x, recwarn):
        assert 2.0**23 - 2.0**-40 == 2.0**23  # one quantum below is not a float64
        with pytest.raises(FixedPointOverflow) as raised:
            quantize(self.POS, np.array([x]))
        assert type(raised.value) is FixedPointOverflow
        assert not recwarn.list

    def test_saturation_lands_on_the_range_ends(self, quantize, recwarn):
        q = quantize(self.POS, np.array([1e10, -1e10, 2.0**23, -(2.0**23) - 1.0]), True)
        assert q.tolist() == [self.POS.max_int, self.POS.min_int, self.POS.max_int,
                              self.POS.min_int]
        assert not recwarn.list

    def test_the_bottom_end_is_in_range(self, quantize):
        q = quantize(self.POS, np.array([-(2.0**23), np.nextafter(2.0**23, 0.0)]))
        assert q.tolist() == [self.POS.min_int, 2**63 - 2**10]

    def test_a_32_bit_word_is_unchanged(self, quantize):
        fmt = FixedPointFormat(32, 16)
        top = 2.0**15
        edges = np.array([top - 2.0**-16, -top, top - 2.0**-16 - 2.0**-18, -top - 2.0**-18])
        assert quantize(fmt, edges).tolist() == [fmt.max_int, fmt.min_int, fmt.max_int,
                                                 fmt.min_int]
        # half a quantum below the top rounds (to even) onto it
        for x in (top, top - 2.0**-17, -top - 2.0**-16):
            with pytest.raises(FixedPointOverflow):
                quantize(fmt, np.array([x]))
        assert quantize(fmt, np.array([1e6, -1e6]), True).tolist() == [fmt.max_int,
                                                                         fmt.min_int]


class TestExactIntSum:
    def test_matches_python_sum(self):
        rng = np.random.default_rng(2)
        v = rng.integers(-(2**62), 2**62, 1000, dtype=np.int64)
        assert exact_int_sum(v) == sum(int(x) for x in v)

    def test_no_overflow_where_numpy_would(self):
        v = np.full(100, 2**62, dtype=np.int64)
        exact = exact_int_sum(v)
        assert exact == 100 * 2**62
        assert exact > 2**63  # would have wrapped in int64

    def test_axis_handling(self):
        v = np.arange(12, dtype=np.int64).reshape(3, 4)
        np.testing.assert_array_equal(
            exact_int_sum(v, axis=0).astype(np.int64), v.sum(axis=0)
        )
        np.testing.assert_array_equal(
            exact_int_sum(v, axis=1).astype(np.int64), v.sum(axis=1)
        )

    def test_negative_values(self):
        v = np.array([-(2**62), -(2**62), 2**60], dtype=np.int64)
        assert exact_int_sum(v) == -(2**62) * 2 + 2**60

    def test_rejects_wrong_dtype(self):
        with pytest.raises(TypeError):
            exact_int_sum(np.array([1.0, 2.0]))

    def test_partition_invariance(self):
        # the property the whole emulator rests on
        rng = np.random.default_rng(3)
        v = rng.integers(-(2**55), 2**55, 512, dtype=np.int64)
        total = exact_int_sum(v)
        for parts in (2, 3, 7):
            partial = sum(exact_int_sum(v[p::parts]) for p in range(parts))
            assert partial == total


class TestCarrySaveSum:
    """The two-lane int64 reduction of the batched datapath must agree
    with the big-integer reference reduction everywhere — including at
    int64-extreme inputs, where a naive int64 sum would wrap."""

    def test_agrees_with_exact_int_sum_random(self):
        rng = np.random.default_rng(4)
        v = rng.integers(-(2**62), 2**62, (64, 37), dtype=np.int64)
        for axis in (0, 1):
            hi, lo = carry_save_sum(v, axis=axis)
            np.testing.assert_array_equal(
                combine_lanes_exact(hi, lo), exact_int_sum(v, axis=axis)
            )

    def test_agrees_at_int64_extremes(self):
        extremes = np.array(
            [
                np.iinfo(np.int64).max,
                np.iinfo(np.int64).min,
                np.iinfo(np.int64).max,
                np.iinfo(np.int64).min + 1,
                -1,
                0,
                1,
                2**62,
                -(2**62),
                0x7FFFFFFF00000001,
                -0x7FFFFFFF00000001,
            ],
            dtype=np.int64,
        )
        hi, lo = carry_save_sum(extremes)
        assert combine_lanes_exact(hi, lo) == exact_int_sum(extremes)
        assert combine_lanes_exact(hi, lo) == sum(int(x) for x in extremes)

    def test_sum_beyond_int64_range_stays_exact(self):
        # 100 copies of int64 max: the true total needs ~70 bits
        v = np.full(100, np.iinfo(np.int64).max, dtype=np.int64)
        hi, lo = carry_save_sum(v)
        assert combine_lanes_exact(hi, lo) == 100 * int(np.iinfo(np.int64).max)

    def test_partition_invariance_in_lanes(self):
        rng = np.random.default_rng(5)
        v = rng.integers(-(2**62), 2**62, 513, dtype=np.int64)
        hi, lo = carry_save_sum(v)
        total = combine_lanes_exact(hi, lo)
        for parts in (2, 5):
            split = sum(
                combine_lanes_exact(*carry_save_sum(v[p::parts]))
                for p in range(parts)
            )
            assert split == total

    def test_rejects_wrong_dtype(self):
        with pytest.raises(TypeError):
            carry_save_sum(np.array([1.0, 2.0]))
