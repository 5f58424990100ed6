"""Welch's two-sample t-test (unequal variances).

This is the first statistical instantiation of the HiCS deviation function
(HiCS_WT).  The test statistic is

.. math::

    t = \\frac{\\hat\\mu_A - \\hat\\mu_B}
             {\\sqrt{\\hat\\sigma_A^2 / N_A + \\hat\\sigma_B^2 / N_B}}

and the degrees of freedom of the reference t-distribution are obtained from
the Welch-Satterthwaite equation.  The deviation value used by HiCS is
``1 - p_t`` where ``p_t`` is the two-tailed p-value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from ..exceptions import DataError
from .descriptive import sample_moments
from .tdist import student_t_two_tailed_pvalue, student_t_two_tailed_pvalue_batch

__all__ = [
    "WelchTestResult",
    "welch_t_statistic",
    "welch_t_statistic_batch",
    "welch_satterthwaite_df",
    "welch_satterthwaite_df_batch",
    "welch_t_test",
    "welch_t_test_batch",
]


@dataclass(frozen=True)
class WelchTestResult:
    """Full result of a Welch two-sample t-test."""

    statistic: float
    df: float
    pvalue: float

    @property
    def deviation(self) -> float:
        """HiCS deviation value: ``1 - p``; large when the samples differ."""
        return 1.0 - self.pvalue


def welch_t_statistic(
    mean_a: float, var_a: float, n_a: int, mean_b: float, var_b: float, n_b: int
) -> float:
    """Welch's t statistic from the sample moments of two samples.

    Degenerate inputs (both variances zero) yield ``0.0`` when the means agree
    and ``inf`` with the appropriate sign when they differ, which matches the
    limit behaviour of the statistic.
    """
    if n_a < 1 or n_b < 1:
        raise DataError("both samples must contain at least one observation")
    se2 = var_a / n_a + var_b / n_b
    diff = mean_a - mean_b
    if se2 <= 0.0:
        if diff == 0.0:
            return 0.0
        return float(np.inf) if diff > 0 else float(-np.inf)
    return float(diff / np.sqrt(se2))


def _satterthwaite_parts(term_a: float, n_a: int, term_b: float, n_b: int):
    """Numerator and denominator of the Welch-Satterthwaite ratio."""
    # Squares via explicit multiplication: libm pow(x, 2.0) can differ from
    # x*x in the last ulp, and the batched implementation must be able to
    # reproduce this function bit-for-bit with array arithmetic.
    numerator = (term_a + term_b) * (term_a + term_b)
    denominator = 0.0
    if n_a > 1:
        denominator += term_a * term_a / (n_a - 1)
    if n_b > 1:
        denominator += term_b * term_b / (n_b - 1)
    return numerator, denominator


def welch_satterthwaite_df(var_a: float, n_a: int, var_b: float, n_b: int) -> float:
    """Welch-Satterthwaite approximation of the degrees of freedom.

    Returns 1.0 as a conservative lower bound when the formula is undefined
    (e.g. both variances are zero or a sample has a single observation).
    Squaring ``var / n`` overflows for data of magnitude around 1e78; such
    cases are recomputed with both terms scaled by one power of two, which is
    exact, so the ratio is the one the unscaled formula would give.
    """
    if n_a < 2 and n_b < 2:
        return 1.0
    term_a = float(var_a) / n_a
    term_b = float(var_b) / n_b
    numerator, denominator = _satterthwaite_parts(term_a, n_a, term_b, n_b)
    largest = max(term_a, term_b)
    overflowed = not (math.isfinite(numerator) and math.isfinite(denominator))
    if overflowed and math.isfinite(largest):
        scale = math.ldexp(1.0, -math.frexp(largest)[1])
        numerator, denominator = _satterthwaite_parts(
            term_a * scale, n_a, term_b * scale, n_b
        )
    if numerator <= 0.0 or denominator <= 0.0:
        return 1.0
    return float(max(1.0, numerator / denominator))


def welch_t_statistic_batch(mean_a, var_a, n_a, mean_b, var_b, n_b) -> np.ndarray:
    """Vectorised :func:`welch_t_statistic` over arrays of sample moments.

    All six arguments broadcast against each other; the degenerate-variance
    branches (both variances zero) reproduce the scalar limits element-wise.
    Bit-for-bit equal to calling the scalar function per element.
    """
    mean_a, var_a, n_a, mean_b, var_b, n_b = np.broadcast_arrays(
        mean_a, var_a, n_a, mean_b, var_b, n_b
    )
    n_a = np.asarray(n_a, dtype=float)
    n_b = np.asarray(n_b, dtype=float)
    if np.any(n_a < 1) or np.any(n_b < 1):
        raise DataError("both samples must contain at least one observation")
    var_a = np.asarray(var_a, dtype=float)
    var_b = np.asarray(var_b, dtype=float)
    se2 = var_a / n_a + var_b / n_b
    diff = np.asarray(mean_a, dtype=float) - np.asarray(mean_b, dtype=float)
    t = np.zeros(diff.shape, dtype=float)
    regular = se2 > 0.0
    t[regular] = diff[regular] / np.sqrt(se2[regular])
    t[~regular & (diff > 0.0)] = np.inf
    t[~regular & (diff < 0.0)] = -np.inf
    return t


def welch_satterthwaite_df_batch(var_a, n_a, var_b, n_b) -> np.ndarray:
    """Vectorised :func:`welch_satterthwaite_df` over arrays of sample moments.

    Bit-for-bit equal to the scalar routine per element, including the
    conservative 1.0 fallbacks for undefined cases (both samples of size one,
    zero variances) and the power-of-two rescaling of overflowing rows.
    """
    var_a, n_a, var_b, n_b = np.broadcast_arrays(var_a, n_a, var_b, n_b)
    var_a = np.asarray(var_a, dtype=float)
    var_b = np.asarray(var_b, dtype=float)
    n_a = np.asarray(n_a, dtype=float)
    n_b = np.asarray(n_b, dtype=float)
    term_a = var_a / n_a
    term_b = var_b / n_b
    a_multi = n_a > 1
    b_multi = n_b > 1

    def parts(term_a, term_b):
        numerator = (term_a + term_b) * (term_a + term_b)
        denominator = np.zeros(numerator.shape, dtype=float)
        denominator[a_multi] += term_a[a_multi] * term_a[a_multi] / (n_a[a_multi] - 1)
        denominator[b_multi] += term_b[b_multi] * term_b[b_multi] / (n_b[b_multi] - 1)
        return numerator, denominator

    with np.errstate(over="ignore"):
        numerator, denominator = parts(term_a, term_b)
        if not np.isfinite(numerator + denominator).all():
            # Recompute the rows whose squares overflowed with both terms
            # scaled by one power of two; scaling the other rows by 1.0
            # leaves their floats exactly as they were.
            largest = np.maximum(term_a, term_b)
            rows = ~(np.isfinite(numerator) & np.isfinite(denominator)) & np.isfinite(largest)
            scale = np.where(rows, np.ldexp(1.0, -np.frexp(largest)[1]), 1.0)
            numerator, denominator = parts(term_a * scale, term_b * scale)
    df = np.ones(numerator.shape, dtype=float)
    defined = (a_multi | b_multi) & (numerator > 0.0) & (denominator > 0.0)
    df[defined] = np.maximum(1.0, numerator[defined] / denominator[defined])
    return df


def welch_t_test_batch(
    samples: Sequence[np.ndarray], reference: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Welch's t-test of many samples against one shared reference sample.

    The batched hot path of the HiCS_WT deviation: the reference (marginal)
    moments are extracted once, the per-sample moments once each, and the
    statistic, Welch-Satterthwaite degrees of freedom and two-tailed p-values
    of all tests are then evaluated with array arithmetic.

    Parameters
    ----------
    samples:
        Sequence of one-dimensional samples (the conditional samples).
    reference:
        The shared second sample (the marginal sample in the HiCS use case).

    Returns
    -------
    (statistics, dfs, pvalues):
        Three arrays of length ``len(samples)``; bit-for-bit equal to calling
        :func:`welch_t_test` once per sample.
    """
    mean_b, var_b, n_b = sample_moments(reference)
    n_samples = len(samples)
    means = np.empty(n_samples, dtype=float)
    variances = np.empty(n_samples, dtype=float)
    sizes = np.empty(n_samples, dtype=np.intp)
    for i, sample in enumerate(samples):
        means[i], variances[i], sizes[i] = sample_moments(sample)
    t = welch_t_statistic_batch(means, variances, sizes, mean_b, var_b, n_b)
    df = welch_satterthwaite_df_batch(variances, sizes, var_b, n_b)
    return t, df, student_t_two_tailed_pvalue_batch(t, df)


def welch_t_test(sample_a: np.ndarray, sample_b: np.ndarray) -> WelchTestResult:
    """Perform Welch's two-sample t-test.

    Parameters
    ----------
    sample_a, sample_b:
        One-dimensional samples (the conditional and the marginal sample in the
        HiCS use case).

    Returns
    -------
    WelchTestResult
        The t statistic, the Welch-Satterthwaite degrees of freedom and the
        two-tailed p-value.
    """
    mean_a, var_a, n_a = sample_moments(sample_a)
    mean_b, var_b, n_b = sample_moments(sample_b)
    t = welch_t_statistic(mean_a, var_a, n_a, mean_b, var_b, n_b)
    df = welch_satterthwaite_df(var_a, n_a, var_b, n_b)
    if not np.isfinite(t):
        pvalue = 0.0
    else:
        pvalue = student_t_two_tailed_pvalue(t, df)
    return WelchTestResult(statistic=t, df=df, pvalue=pvalue)
