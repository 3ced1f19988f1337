"""Property-based tests of the hardware arithmetic formats.

These pin the invariants the paper's section 3.4 design rests on:
fixed-point exactness, partition-independent summation, and bounded
rounding of the reduced float formats.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.hardware.blockfloat import (
    FRAC_BITS,
    BlockFloatAccumulator,
    block_float_sum,
    suggest_exponent,
)
from repro.hardware.fixedpoint import FixedPointFormat, exact_int_sum
from repro.hardware.floatformat import FloatFormat

finite_floats = st.floats(
    min_value=-1.0e6, max_value=1.0e6, allow_nan=False, allow_infinity=False
)


class TestFixedPointProperties:
    @given(hnp.arrays(np.float64, st.integers(1, 50), elements=finite_floats))
    def test_roundtrip_error_bounded_by_half_lsb(self, x):
        fmt = FixedPointFormat(64, 32)
        err = np.abs(fmt.roundtrip(x) - x)
        assert np.all(err <= 0.5 * fmt.resolution + 1e-15)

    @given(hnp.arrays(np.float64, st.integers(1, 50), elements=finite_floats))
    def test_quantize_idempotent(self, x):
        fmt = FixedPointFormat(64, 30)
        once = fmt.roundtrip(x)
        np.testing.assert_array_equal(fmt.roundtrip(once), once)

    @given(
        hnp.arrays(
            np.int64,
            st.integers(1, 200),
            elements=st.integers(-(2**60), 2**60),
        ),
        st.integers(2, 7),
    )
    def test_exact_sum_partition_invariance(self, values, parts):
        total = exact_int_sum(values)
        split = sum(exact_int_sum(values[p::parts]) for p in range(parts))
        assert split == total

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @given(
        hnp.arrays(
            np.int64,
            st.integers(1, 200),
            elements=st.integers(-(2**60), 2**60),
        )
    )
    # the low lane's int64 difference wraps (on purpose) on a 1-D input
    @example(np.array([2**60] * 7 + [2**60 - 1, 2**32 - 1]))
    def test_exact_sum_matches_bigint(self, values):
        assert exact_int_sum(values) == sum(int(v) for v in values)

    @given(
        hnp.arrays(
            np.int64, st.integers(1, 64), elements=st.integers(-(2**60), 2**60)
        )
    )
    def test_exact_sum_permutation_invariance(self, values):
        rng = np.random.default_rng(0)
        perm = rng.permutation(values.size)
        assert exact_int_sum(values) == exact_int_sum(values[perm])


class TestFloatFormatProperties:
    @given(
        st.integers(4, 52),
        hnp.arrays(
            np.float64,
            st.integers(1, 50),
            elements=st.floats(
                min_value=1e-10, max_value=1e10, allow_nan=False, allow_infinity=False
            ),
        ),
    )
    def test_relative_error_bounded(self, bits, x):
        fmt = FloatFormat(bits)
        rel = np.abs(fmt.round(x) - x) / x
        assert np.all(rel <= 2.0**-bits)

    @given(st.integers(4, 52), finite_floats)
    def test_idempotence(self, bits, v):
        fmt = FloatFormat(bits)
        once = fmt.round(np.array([v]))
        np.testing.assert_array_equal(fmt.round(once), once)

    @given(st.integers(4, 52), finite_floats)
    def test_sign_symmetry(self, bits, v):
        fmt = FloatFormat(bits)
        a = fmt.round(np.array([v]))[0]
        b = fmt.round(np.array([-v]))[0]
        assert a == -b

    @given(st.integers(4, 52), finite_floats, st.integers(-30, 30))
    def test_power_of_two_scaling_commutes(self, bits, v, k):
        # rounding commutes with exact power-of-two scaling
        fmt = FloatFormat(bits)
        scaled = fmt.round(np.array([v * 2.0**k]))[0]
        direct = fmt.round(np.array([v]))[0] * 2.0**k
        assert scaled == direct or (np.isinf(scaled) and np.isinf(direct))


class TestBlockFloatProperties:
    @settings(max_examples=50)
    @given(
        hnp.arrays(
            np.float64,
            st.integers(1, 100),
            elements=st.floats(
                min_value=-1.0, max_value=1.0, allow_nan=False, allow_infinity=False
            ),
        ),
        st.integers(2, 6),
    )
    def test_partition_independence(self, contribs, parts):
        """The paper's claim: 'the calculated result is independent of
        the number of processor chips used to calculate one force'."""
        e = suggest_exponent(np.array([np.abs(contribs).sum() + 1.0]))
        total = block_float_sum(contribs, e[0:1])
        acc = BlockFloatAccumulator(e[0:1])
        partials = []
        for p in range(parts):
            chunk = contribs[p::parts]
            if chunk.size == 0:
                continue
            exp_full = np.broadcast_to(e[0:1], chunk.shape)
            partials.append(
                acc.reduce(BlockFloatAccumulator(exp_full).quantize(chunk), axis=0)
            )
        combined = acc.combine(partials)
        np.testing.assert_array_equal(acc.to_float(combined), total)

    @settings(max_examples=50)
    @given(
        hnp.arrays(
            np.float64,
            st.integers(1, 100),
            elements=st.floats(
                min_value=-1.0, max_value=1.0, allow_nan=False, allow_infinity=False
            ),
        )
    )
    def test_error_bounded_by_per_term_quantum(self, contribs):
        import math

        e = suggest_exponent(np.array([np.abs(contribs).sum() + 1.0]))
        total = float(np.asarray(block_float_sum(contribs, e[0:1]))[0])
        quantum = 2.0 ** (int(e[0]) - FRAC_BITS)
        # compare against the correctly-rounded sum (math.fsum), not
        # the error-carrying float64 accumulation
        exact = math.fsum(contribs)
        # half a quantum per quantised term, plus the final conversion
        # of the exact integer total back to a float64 result
        bound = 0.5 * quantum * (contribs.size + 1) + np.spacing(abs(exact))
        assert abs(total - exact) <= bound

    @settings(max_examples=50)
    @given(
        hnp.arrays(
            np.float64,
            st.integers(2, 60),
            elements=st.floats(
                min_value=-1.0, max_value=1.0, allow_nan=False, allow_infinity=False
            ),
        )
    )
    def test_permutation_independence(self, contribs):
        e = suggest_exponent(np.array([np.abs(contribs).sum() + 1.0]))
        total = block_float_sum(contribs, e[0:1])
        rng = np.random.default_rng(1)
        shuffled = contribs[rng.permutation(contribs.size)]
        np.testing.assert_array_equal(block_float_sum(shuffled, e[0:1]), total)
