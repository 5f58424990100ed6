"""Descriptive statistics: sample moments used by the Welch t-test.

The paper's HiCS_WT variant extracts the first two statistical moments of each
sample (mean and variance) and compares the samples through those moments.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..exceptions import DataError
from ..utils.chunks import row_chunks

__all__ = [
    "sample_mean",
    "sample_variance",
    "sample_std",
    "sample_moments",
    "sample_moments_batch",
]


def _as_sample(values: np.ndarray, name: str = "sample") -> np.ndarray:
    arr = np.asarray(values, dtype=float).ravel()
    if arr.size == 0:
        raise DataError(f"{name} must not be empty")
    if not np.all(np.isfinite(arr)):
        raise DataError(f"{name} contains NaN or infinite values")
    return arr


def sample_mean(values: np.ndarray) -> float:
    """Arithmetic mean of a one-dimensional sample."""
    return float(np.mean(_as_sample(values)))


def sample_variance(values: np.ndarray, ddof: int = 1) -> float:
    """Sample variance.

    Parameters
    ----------
    values:
        One-dimensional sample.
    ddof:
        Delta degrees of freedom; the default 1 gives the unbiased estimator
        used in the Welch test statistic.  Samples of size one have an
        undefined unbiased variance and return 0.0 by convention.
    """
    arr = _as_sample(values)
    if arr.size <= ddof:
        return 0.0
    return float(np.var(arr, ddof=ddof))


def sample_std(values: np.ndarray, ddof: int = 1) -> float:
    """Sample standard deviation (square root of :func:`sample_variance`)."""
    return float(np.sqrt(sample_variance(values, ddof=ddof)))


def sample_moments(values: np.ndarray) -> Tuple[float, float, int]:
    """Return ``(mean, variance, n)`` of a sample in a single pass.

    This is the moment extraction step of the HiCS_WT deviation function.
    """
    arr = _as_sample(values)
    n = arr.size
    mean = float(np.mean(arr))
    variance = float(np.var(arr, ddof=1)) if n > 1 else 0.0
    return mean, variance, n


def sample_moments_batch(
    values: np.ndarray, lengths: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(means, variances, sizes)`` of samples stored back to back.

    ``values`` holds the samples one after another and ``lengths[i]`` is the
    size of sample ``i``.  The batched hot-path counterpart of
    :func:`sample_moments`: finiteness validation is skipped (callers pass
    values of an already-validated data matrix).  Samples of equal length are
    stacked into C-contiguous ``(k, L)`` matrices of whole rows under the
    cell budget of :func:`~repro.utils.chunks.row_chunks`, counted in bytes —
    views when they lie next to each other in ``values`` — and reduced along
    axis 1, so a chunk and its centred squares stay in cache.  Each row goes
    through the same pairwise ``np.add.reduce`` that ``np.mean`` / ``np.var``
    run on the sample alone, whichever chunk it falls in, so the results are
    bit-for-bit identical to calling :func:`sample_moments` per sample (the
    property-based suite asserts this).
    """
    values = np.asarray(values, dtype=float)
    sizes = np.asarray(lengths, dtype=np.intp)
    if sizes.ndim != 1 or values.ndim != 1:
        raise DataError("values and lengths must be one-dimensional")
    if sizes.size and sizes.min() < 1:
        raise DataError("sample must not be empty")
    if int(sizes.sum()) != values.size:
        raise DataError(
            f"lengths add up to {int(sizes.sum())}, but there are {values.size} values"
        )
    means = np.empty(sizes.size, dtype=float)
    variances = np.zeros(sizes.size, dtype=float)
    if sizes.size == 0:
        return means, variances, sizes
    starts = np.cumsum(sizes) - sizes
    order = np.argsort(sizes, kind="stable")
    bounds = [0, *(np.flatnonzero(np.diff(sizes[order])) + 1).tolist(), sizes.size]
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        length = int(sizes[order[lo]])
        adjacent = order[hi - 1] - order[lo] == hi - lo - 1
        for chunk_lo, chunk_hi in row_chunks(hi - lo, length * values.itemsize):
            rows = order[lo + chunk_lo : lo + chunk_hi]
            if adjacent:
                first = int(starts[rows[0]])
                block = values[first : first + rows.size * length].reshape(rows.size, length)
            else:
                block = values[starts[rows, None] + np.arange(length)]
            mean = np.add.reduce(block, axis=1) / length
            means[rows] = mean
            if length > 1:
                centred = block - mean[:, None]
                centred *= centred
                variances[rows] = np.add.reduce(centred, axis=1) / (length - 1)
    return means, variances, sizes
