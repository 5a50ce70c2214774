"""Tests for descriptive statistics and confidence intervals."""

import json
import math
import os

import pytest
from hypothesis import given, strategies as st

from repro.simulation.stats import (ci99_halfwidth, mean_with_ci,
                                    regularized_incomplete_beta,
                                    student_t_quantile, summarize)

#: t.ppf(0.995, df) for df 1-200 from an independent implementation,
#: written by ``tests/simulation/make_t_table.py``.
T_TABLE = os.path.join(os.path.dirname(__file__), "t_ppf_0995.json")


class TestSummarize:
    def test_basic(self):
        stats = summarize([1.0, 2.0, 3.0, 4.0])
        assert stats.count == 4
        assert stats.mean == pytest.approx(2.5)
        assert stats.median == pytest.approx(2.5)
        assert stats.minimum == 1.0
        assert stats.maximum == 4.0

    def test_odd_median(self):
        assert summarize([5, 1, 3]).median == 3

    def test_single_value(self):
        stats = summarize([7.0])
        assert stats.std == 0.0
        assert stats.mean == 7.0

    def test_empty(self):
        stats = summarize([])
        assert stats.count == 0
        assert stats.mean == 0.0

    def test_sample_std(self):
        stats = summarize([2.0, 4.0])
        assert stats.std == pytest.approx(math.sqrt(2))

    def test_unsorted_input(self):
        assert summarize([9, 1, 5]).minimum == 1

    def test_format_row(self):
        assert "mean=" in summarize([1.0]).format_row()

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6,
                              allow_nan=False), min_size=1, max_size=100))
    def test_bounds_invariants(self, values):
        stats = summarize(values)
        assert stats.minimum <= stats.median <= stats.maximum
        # Floating-point summation can land the mean a few ulps outside
        # [min, max] (e.g. three 0.7s sum to 2.0999999999999996), so
        # both bounds carry a tolerance scaled to the magnitude.
        slack = 1e-9 * max(1.0, abs(stats.minimum), abs(stats.maximum))
        assert stats.minimum - slack <= stats.mean <= stats.maximum + slack
        assert stats.std >= 0


class TestConfidenceInterval:
    def test_zero_for_single_sample(self):
        assert ci99_halfwidth([5.0]) == 0.0

    def test_zero_for_constant_data(self):
        assert ci99_halfwidth([3.0] * 10) == pytest.approx(0.0)

    def test_matches_t_distribution(self):
        # Two points a distance 2 apart: std = sqrt(2), se = 1,
        # t(0.995, df=1) = 63.657.
        halfwidth = ci99_halfwidth([1.0, 3.0])
        assert halfwidth == pytest.approx(63.657, rel=1e-3)

    def test_shrinks_with_samples(self):
        narrow = ci99_halfwidth([1.0, 2.0] * 50)
        wide = ci99_halfwidth([1.0, 2.0])
        assert narrow < wide

    def test_uses_the_quantile_of_n_minus_one_degrees(self):
        data = [1.0, 2.0, 4.0, 8.0, 16.0]
        std = summarize(data).std
        assert ci99_halfwidth(data) == \
            student_t_quantile(0.995, 4) * std / math.sqrt(5)

    def test_mean_with_ci_format(self):
        text = mean_with_ci([1.0, 2.0, 3.0])
        assert "+/-" in text


class TestStudentTQuantile:
    def test_matches_reference_table(self):
        with open(T_TABLE, encoding="utf-8") as handle:
            table = json.load(handle)
        assert table["probability"] == 0.995
        assert [df for df, _ in table["quantiles"]] == list(range(1, 201))
        for df, expected in table["quantiles"]:
            assert student_t_quantile(0.995, df) == \
                pytest.approx(expected, rel=1e-9, abs=0.0), df

    def test_closed_forms(self):
        # df = 1 is the Cauchy distribution, df = 2 has a closed form.
        for probability in (0.6, 0.9, 0.995):
            assert student_t_quantile(probability, 1) == pytest.approx(
                math.tan(math.pi * (probability - 0.5)), rel=1e-12)
            alpha = 4.0 * probability * (1.0 - probability)
            assert student_t_quantile(probability, 2) == pytest.approx(
                2.0 * (probability - 0.5) * math.sqrt(2.0 / alpha),
                rel=1e-12)

    @pytest.mark.parametrize("probability, df", [(0.5, 3), (0.2, 3),
                                                 (1.0, 3), (0.9, 0)])
    def test_rejects_out_of_range(self, probability, df):
        with pytest.raises(ValueError):
            student_t_quantile(probability, df)

    def test_incomplete_beta_endpoints_and_symmetry(self):
        assert regularized_incomplete_beta(2.0, 3.0, 0.0) == 0.0
        assert regularized_incomplete_beta(2.0, 3.0, 1.0) == 1.0
        # I_x(a, b) = 1 - I_{1-x}(b, a); I_x(1, 1) = x.
        assert regularized_incomplete_beta(2.5, 0.5, 0.3) == pytest.approx(
            1.0 - regularized_incomplete_beta(0.5, 2.5, 0.7), rel=1e-12)
        assert regularized_incomplete_beta(1.0, 1.0, 0.37) == \
            pytest.approx(0.37, rel=1e-12)
