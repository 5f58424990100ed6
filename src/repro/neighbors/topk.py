"""Deterministic top-k selection over dense distance rows.

All kNN consumers in the library rely on one tie-break convention: neighbours
are ordered by ascending distance and, among equal distances, by ascending
index — exactly what a stable full-row ``argsort`` produces.  This module
provides that result without sorting whole rows while remaining
**bit-for-bit identical** to the argsort reference, including in the
presence of exact distance ties that straddle the k-th value.

Most rows are reduced by a bound: the k-th smallest of ``4k`` column-group
minima is at least the row's k-th smallest value, so only the few entries at
or below it are ordered.  Rows whose bound is not finite, and blocks too
narrow for groups of a few columns, take an ``argpartition`` route.
"""

from __future__ import annotations

import numpy as np

from ..exceptions import ParameterError

__all__ = ["top_k_smallest", "merge_top_k"]

#: Column groups per wanted neighbour: the bound is the k-th smallest of
#: ``_GROUPS_PER_K * k`` group minima.  With four, a 1000 x 1000 block of
#: 3-attribute distances at k = 10 kept 11 entries a row on average, 17 at
#: most.
_GROUPS_PER_K = 4

#: Fewest columns per group for the bound to pay off; narrower blocks take
#: the partition route.
_MIN_GROUP_WIDTH = 4


def top_k_smallest(distances: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-row indices and values of the ``k`` smallest entries, index tie-break.

    Equivalent to ``order = np.argsort(distances, axis=1, kind="stable")[:, :k]``
    (and gathering the values).  A row's columns are dealt into
    ``g = 4k`` groups of ``w = n_cols // g`` columns (column ``j`` of the
    first ``w * g`` joins group ``j % g``); the k-th smallest of the ``g``
    group minima bounds the row's k-th value from above, because those
    minima are ``g`` distinct entries of the row.  Every entry at or below
    the bound — all ties on the k-th value included — is kept and the
    survivors are ordered by ``(value, index)``.  Rows with a non-finite
    bound, and blocks with ``w < 4``, are reduced by ``argpartition`` and a
    repair of ties across the partition boundary instead.

    Parameters
    ----------
    distances:
        Matrix of shape ``(n_rows, n_cols)``.  Not modified.
    k:
        Number of smallest entries to return per row (``1 <= k <= n_cols``).

    Returns
    -------
    (indices, values):
        Arrays of shape ``(n_rows, k)``.
    """
    distances = np.asarray(distances)
    if distances.ndim != 2:
        raise ParameterError(f"distances must be 2-dimensional, got ndim={distances.ndim}")
    n_rows, n_cols = distances.shape
    if not 1 <= k <= n_cols:
        raise ParameterError(f"k={k} out of range for rows of length {n_cols}")
    groups = _GROUPS_PER_K * k
    width = n_cols // groups
    if width < _MIN_GROUP_WIDTH or not n_rows:
        return _partitioned_top_k(distances, k)
    minima = distances[:, : width * groups].reshape(n_rows, width, groups).min(axis=1)
    bound = np.partition(minima, k - 1, axis=1)[:, k - 1]
    finite = np.isfinite(bound)
    if finite.all():
        return _bounded_top_k(distances, bound, k)
    indices = np.empty((n_rows, k), dtype=np.intp)
    values = np.empty((n_rows, k), dtype=distances.dtype)
    indices[~finite], values[~finite] = _partitioned_top_k(distances[~finite], k)
    if finite.any():
        indices[finite], values[finite] = _bounded_top_k(
            distances[finite], bound[finite], k
        )
    return indices, values


def _bounded_top_k(
    distances: np.ndarray, bound: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """Top-k of rows each holding at least ``k`` entries ``<= bound``.

    The survivors of a row keep their column order, are padded to the widest
    row with the row's bound (index ``n_cols``), and one stable sort by value
    orders them by ``(value, index)``; a pad sorts after every survivor, so
    the first ``k`` are survivors.
    """
    n_rows, n_cols = distances.shape
    keep = distances <= bound[:, None]
    row, col = np.divmod(np.flatnonzero(keep), n_cols)
    counts = np.bincount(row, minlength=n_rows)
    width = int(counts.max())
    slots = np.arange(width) < counts[:, None]
    candidates = np.full((n_rows, width), n_cols, dtype=np.intp)
    candidates[slots] = col
    values = np.repeat(bound, width).reshape(n_rows, width)
    values[slots] = distances[row, col]
    order = np.argsort(values, axis=1, kind="stable")[:, :k]
    order += np.arange(0, n_rows * width, width)[:, None]
    return candidates.ravel()[order], values.ravel()[order]


def _partitioned_top_k(distances: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Top-k by ``argpartition`` plus a local stable sort of the k-block."""
    n_rows, n_cols = distances.shape
    offsets = np.arange(0, n_rows * n_cols, n_cols)[:, None]
    flat = distances.ravel()
    if k == n_cols:
        block = np.tile(np.arange(n_cols), (n_rows, 1))
    else:
        block = np.argpartition(distances, k - 1, axis=1)[:, :k]
        block_values = flat[block + offsets]
        kth = block_values.max(axis=1)
        # argpartition picks an arbitrary subset of the columns tied on the
        # k-th value.  Rows where such ties cross the partition boundary are
        # repaired to keep the lowest-indexed tied columns, matching the
        # stable argsort reference.
        ties_inside = np.count_nonzero(block_values == kth[:, None], axis=1)
        ties_total = np.count_nonzero(distances == kth[:, None], axis=1)
        for row in np.flatnonzero(ties_total > ties_inside):
            values = distances[row]
            below = np.flatnonzero(values < kth[row])
            tied = np.flatnonzero(values == kth[row])[: k - below.size]
            block[row, : below.size] = below
            block[row, below.size :] = tied
    # Normalise the block: ascending column index first, then a stable sort by
    # value, which leaves equal values ordered by index — the argsort rule.
    block.sort(axis=1)
    block += offsets
    block_values = flat[block]
    order = np.argsort(block_values, axis=1, kind="stable")
    order += np.arange(0, n_rows * k, k)[:, None]
    return block.ravel()[order] - offsets, block_values.ravel()[order]


def merge_top_k(
    indices_a: np.ndarray,
    values_a: np.ndarray,
    indices_b: np.ndarray,
    values_b: np.ndarray,
    k: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Merge two per-row candidate sets into the ``k`` smallest (value, index) pairs.

    Both inputs must already obey the library tie-break order (ascending value,
    then ascending index — exactly what :func:`top_k_smallest` emits), and the
    index sets of a row must be disjoint between the two candidates.  The merge
    re-sorts the concatenated pairs lexicographically (value primary, index
    secondary), so folding per-reference-chunk local top-k results one chunk at
    a time reproduces the global dense top-k **exactly**, under any chunk
    grouping: the k smallest (value, index) pairs of a union are the k smallest
    pairs of the merged per-chunk winners, because each chunk contributes at
    least its own ``min(k, chunk_width)`` smallest pairs.

    Fewer than ``k`` total candidates return all of them (still sorted).
    """
    indices = np.concatenate([indices_a, indices_b], axis=1)
    values = np.concatenate([values_a, values_b], axis=1)
    if indices.shape != values.shape:
        raise ParameterError(
            f"indices and values disagree on shape: {indices.shape} vs {values.shape}"
        )
    order = np.lexsort((indices, values), axis=-1)[:, :k]
    return (
        np.take_along_axis(indices, order, axis=1),
        np.take_along_axis(values, order, axis=1),
    )
