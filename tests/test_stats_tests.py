"""Unit and property tests for the statistical substrate (Welch, KS, t-dist).

Where SciPy is available the implementations are cross-validated against it;
the SciPy comparisons are skipped automatically otherwise.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.exceptions import DataError, ParameterError
from repro.stats import (
    ks_two_sample_statistic,
    ks_two_sample_test,
    sample_mean,
    sample_moments,
    sample_std,
    sample_variance,
    student_t_cdf,
    student_t_sf,
    student_t_two_tailed_pvalue,
    welch_satterthwaite_df,
    welch_satterthwaite_df_batch,
    welch_t_statistic,
    welch_t_test,
)
from repro.stats.tdist import regularized_incomplete_beta

scipy_stats = pytest.importorskip("scipy.stats", reason="scipy unavailable")


class TestDescriptive:
    def test_mean_variance_std(self):
        sample = np.array([1.0, 2.0, 3.0, 4.0])
        assert sample_mean(sample) == pytest.approx(2.5)
        assert sample_variance(sample) == pytest.approx(np.var(sample, ddof=1))
        assert sample_std(sample) == pytest.approx(np.std(sample, ddof=1))

    def test_moments_single_observation(self):
        mean, var, n = sample_moments([5.0])
        assert (mean, var, n) == (5.0, 0.0, 1)

    def test_empty_sample_rejected(self):
        with pytest.raises(DataError):
            sample_mean([])

    def test_nan_rejected(self):
        with pytest.raises(DataError):
            sample_moments([1.0, np.nan])


class TestIncompleteBeta:
    def test_boundaries(self):
        assert regularized_incomplete_beta(2.0, 3.0, 0.0) == 0.0
        assert regularized_incomplete_beta(2.0, 3.0, 1.0) == 1.0

    def test_against_scipy(self):
        from scipy.special import betainc

        for a, b, x in [(0.5, 0.5, 0.3), (2.0, 5.0, 0.7), (10.0, 1.0, 0.9), (3.5, 2.5, 0.1)]:
            assert regularized_incomplete_beta(a, b, x) == pytest.approx(betainc(a, b, x), abs=1e-10)

    def test_invalid_parameters(self):
        with pytest.raises(ParameterError):
            regularized_incomplete_beta(-1.0, 2.0, 0.5)
        with pytest.raises(ParameterError):
            regularized_incomplete_beta(1.0, 2.0, 1.5)

    @given(
        st.floats(min_value=0.5, max_value=20.0),
        st.floats(min_value=0.5, max_value=20.0),
        st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=50)
    def test_property_monotone_in_x(self, a, b, x):
        smaller = regularized_incomplete_beta(a, b, max(0.0, x - 0.05))
        larger = regularized_incomplete_beta(a, b, min(1.0, x + 0.05))
        assert smaller <= larger + 1e-12


class TestStudentT:
    def test_cdf_symmetry(self):
        assert student_t_cdf(0.0, 5.0) == pytest.approx(0.5)
        assert student_t_cdf(1.3, 7.0) + student_t_cdf(-1.3, 7.0) == pytest.approx(1.0)

    def test_against_scipy(self):
        for t, df in [(0.5, 3.0), (-2.1, 10.0), (4.0, 1.5), (0.0, 30.0)]:
            assert student_t_cdf(t, df) == pytest.approx(scipy_stats.t.cdf(t, df), abs=1e-9)
            assert student_t_sf(t, df) == pytest.approx(scipy_stats.t.sf(t, df), abs=1e-9)

    def test_two_tailed_pvalue_against_scipy(self):
        for t, df in [(0.7, 4.0), (2.5, 12.0), (-3.3, 6.0)]:
            expected = 2.0 * scipy_stats.t.sf(abs(t), df)
            assert student_t_two_tailed_pvalue(t, df) == pytest.approx(expected, abs=1e-9)

    def test_infinite_t(self):
        assert student_t_two_tailed_pvalue(np.inf, 5.0) == 0.0
        assert student_t_cdf(np.inf, 5.0) == 1.0
        assert student_t_cdf(-np.inf, 5.0) == 0.0

    def test_invalid_df(self):
        with pytest.raises(ParameterError):
            student_t_cdf(1.0, 0.0)

    @given(st.floats(min_value=-50, max_value=50), st.floats(min_value=0.5, max_value=100))
    @settings(max_examples=60)
    def test_property_cdf_in_unit_interval(self, t, df):
        value = student_t_cdf(t, df)
        assert 0.0 <= value <= 1.0


class TestWelch:
    def test_identical_samples_give_high_pvalue(self):
        sample = np.linspace(0, 1, 100)
        result = welch_t_test(sample, sample)
        assert result.statistic == pytest.approx(0.0)
        assert result.pvalue == pytest.approx(1.0)
        assert result.deviation == pytest.approx(0.0)

    def test_shifted_samples_give_low_pvalue(self):
        rng = np.random.default_rng(0)
        a = rng.normal(0.0, 1.0, 200)
        b = rng.normal(3.0, 1.0, 200)
        result = welch_t_test(a, b)
        assert result.pvalue < 1e-6
        assert result.deviation > 0.999

    def test_against_scipy(self):
        rng = np.random.default_rng(1)
        a = rng.normal(0.0, 1.0, 80)
        b = rng.normal(0.3, 2.0, 120)
        ours = welch_t_test(a, b)
        theirs = scipy_stats.ttest_ind(a, b, equal_var=False)
        assert ours.statistic == pytest.approx(theirs.statistic, rel=1e-9)
        assert ours.pvalue == pytest.approx(theirs.pvalue, rel=1e-6)

    def test_statistic_zero_variance_equal_means(self):
        assert welch_t_statistic(1.0, 0.0, 10, 1.0, 0.0, 10) == 0.0

    def test_statistic_zero_variance_different_means(self):
        assert welch_t_statistic(2.0, 0.0, 10, 1.0, 0.0, 10) == np.inf
        assert welch_t_statistic(0.0, 0.0, 10, 1.0, 0.0, 10) == -np.inf

    def test_statistic_requires_observations(self):
        with pytest.raises(DataError):
            welch_t_statistic(0.0, 1.0, 0, 0.0, 1.0, 5)

    def test_satterthwaite_bounds(self):
        df = welch_satterthwaite_df(1.0, 30, 2.0, 40)
        assert 1.0 <= df <= 68.0

    def test_satterthwaite_degenerate(self):
        assert welch_satterthwaite_df(0.0, 1, 0.0, 1) == 1.0

    @pytest.mark.parametrize("exponent", [520, 800, 1000])
    def test_satterthwaite_survives_overflowing_squares(self, exponent):
        # (var / n)^2 overflows once var / n passes 2**512 (data around 1e78);
        # scaling both variances by a power of two must not change the df.
        var_a, n_a, var_b, n_b = 0.7, 30, 1.9, 400
        expected = welch_satterthwaite_df(var_a, n_a, var_b, n_b)
        scale = 2.0**exponent
        assert welch_satterthwaite_df(var_a * scale, n_a, var_b * scale, n_b) == expected
        batch = welch_satterthwaite_df_batch(
            np.array([var_a, var_a * scale, 0.0]), np.array([n_a, n_a, 1]),
            np.array([var_b, var_b * scale, 0.0]), np.array([n_b, n_b, 1]),
        )
        assert batch.tolist() == [expected, expected, 1.0]

    def test_infinite_statistic_gives_zero_pvalue(self):
        result = welch_t_test([1.0, 1.0, 1.0], [2.0, 2.0, 2.0])
        assert result.pvalue == 0.0
        assert result.deviation == 1.0

    @given(
        st.lists(st.floats(min_value=-10, max_value=10), min_size=3, max_size=50),
        st.lists(st.floats(min_value=-10, max_value=10), min_size=3, max_size=50),
    )
    @settings(max_examples=50)
    def test_property_pvalue_in_unit_interval(self, a, b):
        result = welch_t_test(np.asarray(a), np.asarray(b))
        assert 0.0 <= result.pvalue <= 1.0
        assert 0.0 <= result.deviation <= 1.0

    @given(st.lists(st.floats(min_value=-5, max_value=5), min_size=5, max_size=40))
    @settings(max_examples=30)
    def test_property_symmetry(self, values):
        rng = np.random.default_rng(0)
        other = rng.normal(size=20)
        forward = welch_t_test(np.asarray(values), other)
        backward = welch_t_test(other, np.asarray(values))
        assert forward.pvalue == pytest.approx(backward.pvalue, abs=1e-9)


class TestKolmogorovSmirnov:
    def test_identical_samples_zero_statistic(self):
        sample = np.arange(50, dtype=float)
        assert ks_two_sample_statistic(sample, sample) == 0.0

    def test_disjoint_samples_statistic_one(self):
        a = np.linspace(0, 1, 50)
        b = np.linspace(10, 11, 60)
        assert ks_two_sample_statistic(a, b) == pytest.approx(1.0)

    def test_against_scipy_statistic(self):
        rng = np.random.default_rng(5)
        a = rng.normal(0, 1, 130)
        b = rng.normal(0.4, 1.5, 90)
        ours = ks_two_sample_test(a, b)
        theirs = scipy_stats.ks_2samp(a, b)
        assert ours.statistic == pytest.approx(theirs.statistic, abs=1e-12)
        # Our p-value uses the asymptotic Kolmogorov distribution; allow a
        # loose tolerance against scipy's exact computation.
        assert ours.pvalue == pytest.approx(theirs.pvalue, abs=0.05)

    def test_empty_sample_rejected(self):
        with pytest.raises(DataError):
            ks_two_sample_statistic([], [1.0])

    def test_deviation_equals_statistic(self):
        a = np.linspace(0, 1, 30)
        b = np.linspace(0.5, 1.5, 30)
        result = ks_two_sample_test(a, b)
        assert result.deviation == result.statistic

    @given(
        st.lists(st.floats(min_value=-100, max_value=100), min_size=1, max_size=60),
        st.lists(st.floats(min_value=-100, max_value=100), min_size=1, max_size=60),
    )
    @settings(max_examples=60)
    def test_property_statistic_in_unit_interval_and_symmetric(self, a, b):
        a_arr, b_arr = np.asarray(a), np.asarray(b)
        forward = ks_two_sample_statistic(a_arr, b_arr)
        backward = ks_two_sample_statistic(b_arr, a_arr)
        assert 0.0 <= forward <= 1.0
        assert forward == pytest.approx(backward, abs=1e-12)

    @given(st.lists(st.floats(min_value=-100, max_value=100), min_size=2, max_size=60))
    @settings(max_examples=40)
    def test_property_identical_sample_statistic_zero(self, values):
        arr = np.asarray(values)
        assert ks_two_sample_statistic(arr, arr) == pytest.approx(0.0)
