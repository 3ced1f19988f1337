"""Trial statistics for BENCH artifacts (repro.bench.stats)."""

import pytest

from repro.bench import percentile, trial_stats


class TestPercentile:
    def test_empty_is_zero(self):
        assert percentile([], 50.0) == 0.0

    def test_single_value(self):
        assert percentile([3.0], 0.0) == 3.0
        assert percentile([3.0], 100.0) == 3.0

    def test_linear_interpolation(self):
        xs = [1.0, 2.0, 3.0, 4.0]
        assert percentile(xs, 50.0) == pytest.approx(2.5)
        assert percentile(xs, 25.0) == pytest.approx(1.75)
        assert percentile(xs, 0.0) == 1.0
        assert percentile(xs, 100.0) == 4.0

    def test_unsorted_input(self):
        assert percentile([4.0, 1.0, 3.0, 2.0], 50.0) == pytest.approx(2.5)

    def test_out_of_range_raises(self):
        with pytest.raises(ValueError):
            percentile([1.0], 101.0)


class TestTrialStats:
    def test_empty(self):
        s = trial_stats([])
        assert s.n == 0 and s.median == 0.0 and s.iqr == 0.0

    def test_single_trial(self):
        s = trial_stats([2.0])
        assert s.n == 1
        assert s.min == s.max == s.mean == s.median == 2.0
        assert s.std == 0.0 and s.iqr == 0.0

    def test_order_statistics(self):
        s = trial_stats([1.0, 2.0, 3.0, 4.0, 100.0])
        assert s.median == 3.0  # robust to the one slow outlier
        assert s.q1 == 2.0 and s.q3 == 4.0
        assert s.iqr == pytest.approx(2.0)
        assert s.min == 1.0 and s.max == 100.0
