"""Analysis-helper tests: box stats, time series, reports, comparisons."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis import bin_series, box_stats, format_table, relative_saving
from repro.errors import ConfigurationError


class TestBoxStats:
    def test_five_number_summary(self):
        stats = box_stats(range(1, 101))
        assert stats.minimum == 1
        assert stats.maximum == 100
        assert stats.median == pytest.approx(50.5)
        assert stats.q1 == pytest.approx(np.percentile(range(1, 101), 25))
        assert stats.q3 == pytest.approx(np.percentile(range(1, 101), 75))

    def test_outliers_detected(self):
        data = [10.0] * 20 + [10.5] * 20 + [100.0]
        stats = box_stats(data)
        assert stats.outliers == [100.0]
        assert stats.whisker_high <= 10.5

    def test_no_outliers_whiskers_are_extremes(self):
        stats = box_stats([1, 2, 3, 4, 5])
        assert stats.whisker_low == 1
        assert stats.whisker_high == 5

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            box_stats([])

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1,
                    max_size=200))
    def test_property_invariants(self, data):
        stats = box_stats(data)
        assert stats.minimum <= stats.q1 <= stats.median <= stats.q3 <= stats.maximum
        assert stats.whisker_low >= stats.minimum
        assert stats.whisker_high <= stats.maximum
        assert stats.n == len(data)

    # Sizes cross numpy's summation regimes: sequential below 8, eight
    # accumulators to 128, recursive halving above.
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(min_value=-1e9, max_value=1e9), min_size=1,
                    max_size=400))
    def test_bit_equal_to_the_numpy_expressions_it_replaced(self, samples):
        data = np.asarray(samples, dtype=float)
        q1, med, q3 = np.percentile(data, [25, 50, 75])
        low_fence, high_fence = q1 - 1.5 * (q3 - q1), q3 + 1.5 * (q3 - q1)
        inside = data[(data >= low_fence) & (data <= high_fence)]
        outliers = data[(data < low_fence) | (data > high_fence)]
        want = {
            "minimum": np.min(data), "q1": q1, "median": med, "q3": q3,
            "maximum": np.max(data),
            "whisker_low": np.min(inside if inside.size else data),
            "whisker_high": np.max(inside if inside.size else data),
            "mean": np.mean(data),
        }
        stats = box_stats(samples)
        # Order statistics are bit-equal except for the sign of a zero:
        # which of two equal zeros np.min / np.max return follows their SIMD
        # lane order, and which np.percentile interpolates from follows
        # np.partition's, while a stable sort keeps the input's. E.g.
        # [-0.0, 0.0] -> np.min 0.0, and [0.0, -0.0, -0.0, -1.0] -> a median
        # of the other sign. The mean has no such freedom (a sum is -0.0
        # only when every term is) and stays bit-equal.
        for name, value in want.items():
            got = getattr(stats, name)
            if name != "mean" and got == 0.0:
                assert value == 0.0, name
            else:
                assert got.hex() == float(value).hex(), name
        assert stats.outliers == np.sort(outliers).tolist()
        assert stats.n == data.size


class TestTimeSeries:
    def test_bin_series_means(self):
        times = [0.1, 0.2, 1.1, 1.2]
        values = [1.0, 3.0, 10.0, 20.0]
        centres, means = bin_series(times, values, 1.0)
        assert means == pytest.approx([2.0, 15.0])

    def test_bin_series_keeps_the_sample_at_the_last_edge(self):
        # A span that is an exact multiple of the width ends on an edge.
        assert bin_series([0, 1, 2], [10, 20, 30], 1.0) == (
            [0.5, 1.5, 2.5], [10.0, 20.0, 30.0])

    def test_bin_series_empty(self):
        assert bin_series([], [], 1.0) == ([], [])

    def test_bin_series_validation(self):
        with pytest.raises(ConfigurationError):
            bin_series([1], [1, 2], 1.0)
        with pytest.raises(ConfigurationError):
            bin_series([1], [1], 0.0)


class TestReports:
    def test_format_table_contains_headers_and_rows(self):
        text = format_table(["name", "value"], [["alpha", 1.5], ["beta", 2.0]])
        assert "name" in text and "alpha" in text and "1.500" in text


class TestCompare:
    def test_relative_saving(self):
        assert relative_saving(100.0, 80.0) == pytest.approx(0.2)

    def test_negative_saving_when_worse(self):
        assert relative_saving(100.0, 120.0) == pytest.approx(-0.2)

    def test_zero_baseline_rejected(self):
        with pytest.raises(ConfigurationError):
            relative_saving(0.0, 10.0)
