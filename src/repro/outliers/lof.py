"""Local Outlier Factor (LOF), with subspace-restricted distances.

Implements Breunig, Kriegel, Ng & Sander (SIGMOD 2000) from scratch:

* ``k-distance(o)`` — distance of ``o`` to its k-th nearest neighbour,
* ``reach-dist_k(o, p) = max(k-distance(p), dist(o, p))``,
* ``lrd_k(o)`` — local reachability density: inverse of the average
  reachability distance from ``o`` to its neighbours,
* ``LOF_k(o)`` — average ratio of the neighbours' lrd to ``o``'s own lrd.

Values around 1 indicate objects inside a cluster; values substantially above
1 indicate local outliers.  For the subspace extension used throughout the
paper, all distances are simply computed in the projected space (``dist_S``).
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from ..exceptions import ParameterError
from ..neighbors.base import check_knn_algorithm, create_knn_searcher
from ..neighbors.engine import SharedNeighborEngine
from ..neighbors.topk import top_k_smallest
from ..types import Subspace
from ..utils.validation import check_data_matrix, check_positive_int
from .base import OutlierScorer

__all__ = ["LOFScorer", "local_outlier_factor"]

#: Bytes of one block of independently scored queries: their stacked distance
#: rows, per-group tables and top-k scratch, at 48 bytes a reference object
#: and subspace per query.
_QUERY_BLOCK_BYTES = 256 * 2**20


def _mean_reach(neighbour_kth: np.ndarray, distances: np.ndarray) -> np.ndarray:
    """Mean reach-distance of each row, ``mean_p max(k-distance(p), dist(o, p))``."""
    return np.maximum(neighbour_kth, distances).mean(axis=1)


def _lrd_floor(largest: np.ndarray) -> np.ndarray:
    """The floor of the mean reach-distances, given the largest finite one.

    A zero mean (duplicate points) would give an infinite density, so every
    mean is floored at ``1e-12`` times the largest finite mean, which gives
    those objects a very high but finite density and LOF close to 1 — the
    same convention scikit-learn uses.  Being relative, the floor leaves
    every score bit-identical under a common power-of-two scale of the data.
    A positive distance is the square root of a float, at least about
    ``1e-162``, so averaging the lrd values cannot overflow.  Infinite means
    (distances that overflow) are left out; with no positive finite mean the
    floor is ``1e-12``.
    """
    return np.where(largest > 0.0, 1e-12 * largest, 1e-12)


def _lof_ratio(neighbour_lrd: np.ndarray, lrd: np.ndarray, finite: np.ndarray) -> np.ndarray:
    """``mean lrd of the neighbours / own lrd``, and ``+inf`` where not ``finite``.

    A row with an infinite mean reach-distance has lrd 0: it is infinitely
    far from its neighbourhood, and its score is ``+inf``.
    """
    return np.divide(neighbour_lrd, lrd, out=np.full(lrd.shape, np.inf), where=finite)


def _lof_from_knn(indices: np.ndarray, distances: np.ndarray) -> np.ndarray:
    """Compute LOF scores from a kNN result (indices + distances).

    Parameters
    ----------
    indices:
        Neighbour indices of shape ``(n, k)``.
    distances:
        Corresponding neighbour distances of shape ``(n, k)``.
    """
    # reach-dist_k(o, p) = max(k-distance(p), dist(o, p)) for each neighbour
    # p of o; lrd_k(o) = 1 / mean(reach-dist_k(o, p)), floored (_lrd_floor).
    mean_reach = _mean_reach(distances[:, -1][indices], distances)
    finite = np.isfinite(mean_reach)
    floor = _lrd_floor(mean_reach[finite].max(initial=0.0))
    lrd = 1.0 / np.maximum(mean_reach, floor)
    # LOF_k(o) = mean(lrd(p) / lrd(o)) over the neighbours p of o.
    return _lof_ratio(lrd[indices].mean(axis=1), lrd, finite)


class _LocalUpdatePlan:
    """Reference LOF state of a list of subspaces, read by :func:`_independent_lof`.

    Subspace ``s`` of the list owns rows ``s * n`` to ``(s + 1) * n`` of the
    stacked arrays, so the key ``s * n + row`` addresses a reference object
    of any subspace.  Per subspace the plan holds the reference kNN lists,
    each row's k-distance and mean reach-distance, the rows in descending
    order of finite mean reach (``order_values`` reads 0 for the rest), and
    the reverse kNN lists as a CSR (``reverse_start``, ``reverse_rows``).
    The arrays are read-only: a plan is shared by concurrent scoring calls.
    """

    __slots__ = (
        "attributes", "n", "k", "indices", "distances", "kth", "mean_reach",
        "order", "order_values", "reverse_start", "reverse_rows",
    )

    def __init__(self, engine: SharedNeighborEngine, attributes: list, k: int):
        self.attributes = tuple(attributes)
        self.n, self.k = engine.n_objects, k
        parts = [_prepare_subspace(engine, a, k) for a in attributes]
        indices, distances, mean_reach, order, values, counts, reverse = (
            np.stack(column) for column in zip(*parts)
        )
        self.indices = indices.reshape(-1, k)
        self.distances = distances.reshape(-1, k)
        self.kth = np.ascontiguousarray(distances[:, :, -1])
        self.mean_reach = mean_reach.ravel()
        self.order, self.order_values = order, values
        self.reverse_start = np.concatenate([[0], np.cumsum(counts)])
        self.reverse_rows = reverse.ravel()
        for name in self.__slots__[3:]:
            getattr(self, name).flags.writeable = False


def _prepare_subspace(engine: SharedNeighborEngine, attributes, k: int) -> tuple:
    """One subspace's part of a :class:`_LocalUpdatePlan`, from its reference kNN."""
    knn = engine.kneighbors(k, attributes)
    indices, distances = knn.indices, knn.distances
    mean_reach = _mean_reach(distances[:, -1][indices], distances)
    ranked = np.where(np.isfinite(mean_reach), mean_reach, 0.0)
    order = np.argsort(-ranked, kind="stable")
    # Row p's reverse neighbours: the owners of p's entries in the lists.
    reverse = np.argsort(indices, axis=None, kind="stable") // k
    counts = np.bincount(indices.ravel(), minlength=indices.shape[0])
    return indices, distances, mean_reach, order, ranked[order], counts, reverse


def _independent_lof(
    plan: _LocalUpdatePlan, engine: SharedNeighborEngine, queries: np.ndarray
) -> np.ndarray:
    """LOF of each query on ``reference + [query]``, in every subspace of ``plan``.

    Returns shape ``(n_subspaces, n_queries)``, bit-equal to running
    :func:`_lof_from_knn` on the ``n + 1`` rows.  Inserting a query ``q`` (row
    ``n``, so it loses every distance tie) changes only

    * the lists of the set A of rows ``r`` with ``dist(r, q) < kth(r)``:
      ``q`` enters at ``count(list distances <= dist(r, q))`` and the old
      k-th neighbour drops out;
    * the mean reach-distances of the changed set C: A and the rows whose
      lists hold a member of A (the reverse kNN of A);
    * ``q``'s own row, from its k nearest reference objects;
    * the floor: ``1e-12`` times the largest finite mean over all ``n + 1``
      rows, the largest of C, of ``q`` and of the first row outside C in the
      plan's descending order.

    All (subspace, query) groups ``g = s * n_queries + i`` are done at once:
    one :func:`top_k_smallest` call over the stacked query rows (it reduces
    each row on its own), one comparison for A, and per-group tables and
    segment operations keyed by ``g * n + row``.  The row means of gathered
    ``(m, k)`` arrays equal the same rows' means inside the ``(n + 1, k)``
    matrix, which ``tests/test_shared_engine.py`` pins on the installed NumPy.
    """
    n, k = plan.n, plan.k
    n_subspaces, n_queries = len(plan.attributes), queries.shape[0]
    n_groups = n_subspaces * n_queries
    subspace = np.repeat(np.arange(n_subspaces), n_queries)
    stacked = np.empty((n_subspaces, n_queries, n))
    for s, attributes in enumerate(plan.attributes):
        stacked[s] = engine.query_distances(queries, attributes)
    # A, as keys g * n + row: positions in the (n_groups, n) query rows.
    a_key = np.flatnonzero(stacked < plan.kth[:, None, :])
    stacked = stacked.reshape(n_groups, n)
    query_indices, query_distances = top_k_smallest(stacked, k)
    group, row = np.divmod(a_key, n)
    reference = subspace[group] * n + row

    # Insert q into each list of A; the old k-th neighbour drops out.
    old_i, old_d = plan.indices[reference], plan.distances[reference]
    d = stacked.reshape(-1)[a_key][:, None]
    position = np.count_nonzero(old_d <= d, axis=1)[:, None]
    columns = np.arange(k)
    shifted = np.maximum(columns - 1, 0)
    before, at = columns < position, columns == position
    a_indices = np.where(before, old_i, np.where(at, n, old_i[:, shifted]))
    a_distances = np.where(before, old_d, np.where(at, d, old_d[:, shifted]))
    # Each group's k-distances after the insert, q's in column n: a row of A
    # ends its list with q (position k - 1) or with its old (k - 1)-th.
    kth = np.empty((n_groups, n + 1))
    kth[:, :n] = plan.kth[subspace]
    kth[:, n] = query_distances[:, -1]
    kth[group, row] = np.where(position[:, 0] == k - 1, d[:, 0], old_d[:, max(k - 2, 0)])

    # C: A plus the reverse kNN of A, with their new lists.
    start = plan.reverse_start[reference]
    count = plan.reverse_start[reference + 1] - start
    offsets = np.repeat(start - np.cumsum(count) + count, count) + np.arange(count.sum())
    c_key = np.sort(
        np.concatenate([a_key, np.repeat(group * n, count) + plan.reverse_rows[offsets]])
    )
    distinct = np.ones(c_key.size, dtype=bool)
    distinct[1:] = c_key[1:] != c_key[:-1]
    c_key = c_key[distinct]
    c_group, c_row = np.divmod(c_key, n)
    c_reference = subspace[c_group] * n + c_row
    c_indices, c_distances = plan.indices[c_reference], plan.distances[c_reference]
    in_c = np.searchsorted(c_key, a_key)
    c_indices[in_c], c_distances[in_c] = a_indices, a_distances
    means = _mean_reach(
        np.concatenate(
            [kth[c_group[:, None], c_indices], np.take_along_axis(kth, query_indices, axis=1)]
        ),
        np.concatenate([c_distances, query_distances]),
    )
    c_mean, query_mean = means[: c_key.size], means[c_key.size :]

    # The floor, from the largest finite mean of C, of q and of the first
    # row outside C in descending order of the reference means.
    largest = np.where(np.isfinite(query_mean), query_mean, 0.0)
    np.maximum.at(largest, c_group, np.where(np.isfinite(c_mean), c_mean, 0.0))
    changed = np.zeros((n_groups, n), dtype=bool)
    changed.reshape(-1)[c_key] = True
    depth = min(int(np.bincount(c_group, minlength=n_groups).max()) + 1, n)
    listed = np.take_along_axis(changed, plan.order[subspace, :depth], axis=1)
    first = np.argmax(~listed, axis=1)
    unchanged = np.where(listed.all(axis=1), 0.0, plan.order_values[subspace, first])
    floor = _lrd_floor(np.maximum(largest, unchanged))

    mean = plan.mean_reach.reshape(n_subspaces, n)[subspace]
    mean.reshape(-1)[c_key] = c_mean
    neighbour_mean = np.take_along_axis(mean, query_indices, axis=1)
    neighbour_lrd = 1.0 / np.maximum(neighbour_mean, floor[:, None])
    query_lrd = 1.0 / np.maximum(query_mean, floor)
    scores = _lof_ratio(neighbour_lrd.mean(axis=1), query_lrd, np.isfinite(query_mean))
    return scores.reshape(n_subspaces, n_queries)


def local_outlier_factor(
    data: np.ndarray,
    min_pts: int = 10,
    subspace: Optional[Subspace] = None,
    *,
    algorithm: str = "auto",
) -> np.ndarray:
    """Compute LOF scores for every object of a data matrix.

    Parameters
    ----------
    data:
        Matrix of shape ``(n_objects, n_dims)``.
    min_pts:
        Neighbourhood size (the ``MinPts`` parameter of LOF).
    subspace:
        Optional subspace restricting the distance computation.
    algorithm:
        kNN searcher, one of :data:`~repro.neighbors.base.KNN_ALGORITHMS`
        (see :func:`~repro.neighbors.base.create_knn_searcher`).

    Returns
    -------
    numpy.ndarray
        LOF scores, shape ``(n_objects,)``.
    """
    data = check_data_matrix(data, name="data", min_objects=2)
    min_pts = check_positive_int(min_pts, name="min_pts")
    if min_pts >= data.shape[0]:
        raise ParameterError(
            f"min_pts={min_pts} must be smaller than the number of objects ({data.shape[0]})"
        )
    attributes = None
    if subspace is not None:
        subspace.validate_against_dimensionality(data.shape[1])
        attributes = subspace.attributes
    searcher = create_knn_searcher(data, attributes, algorithm=algorithm)
    knn = searcher.kneighbors(min_pts, exclude_self=True)
    return _lof_from_knn(knn.indices, knn.distances)


class LOFScorer(OutlierScorer):
    """LOF as an :class:`OutlierScorer` with a fixed ``MinPts``.

    The paper fixes the same MinPts for all competitors to ensure
    comparability; the default of 10 follows common practice for datasets of a
    few hundred to a few thousand objects.
    """

    name = "LOF"

    def __init__(self, min_pts: int = 10, *, algorithm: str = "auto"):
        self.min_pts = check_positive_int(min_pts, name="min_pts")
        self.algorithm = check_knn_algorithm(algorithm)

    def score(self, data: np.ndarray, subspace: Optional[Subspace] = None) -> np.ndarray:
        data = check_data_matrix(data, name="data", min_objects=2)
        # Degenerate but valid edge case: fewer objects than MinPts + 1.  Use
        # the largest feasible neighbourhood instead of failing, so that small
        # datasets (e.g. toy examples) can still be ranked.
        effective_min_pts = min(self.min_pts, data.shape[0] - 1)
        return local_outlier_factor(
            data, effective_min_pts, subspace, algorithm=self.algorithm
        )

    def score_batch(
        self,
        data: np.ndarray,
        subspaces: List[Optional[Subspace]],
        *,
        engine: Optional[SharedNeighborEngine] = None,
    ) -> List[np.ndarray]:
        """One shared kNN pass per subspace instead of a fresh distance matrix.

        With an engine every subspace is answered from it, whatever
        ``algorithm`` says: all searchers return the same neighbours.
        """
        data = check_data_matrix(data, name="data", min_objects=2)
        if engine is None:
            return super().score_batch(data, subspaces, engine=engine)
        self._check_engine(engine, data)
        effective_min_pts = min(self.min_pts, data.shape[0] - 1)
        scores = []
        for subspace in subspaces:
            attributes = self._subspace_attributes(data, subspace)
            knn = engine.kneighbors(effective_min_pts, attributes)
            scores.append(_lof_from_knn(knn.indices, knn.distances))
        return scores

    def score_samples_independent(
        self,
        data: np.ndarray,
        subspaces: List[Optional[Subspace]],
        *,
        engine: Optional[str] = None,
    ) -> List[np.ndarray]:
        """Independent scoring by a local update of the reference LOF.

        Scoring object ``q`` independently means running LOF on
        ``reference + [q]``.  Inserting ``q`` changes the neighbour lists
        of the few reference objects ``q`` is closer to than their k-th
        neighbour, and the mean reach-distances of those objects and of
        their reverse neighbours, so ``q`` is scored from those rows alone
        (:func:`_independent_lof`), bit-for-bit equal to the reference loop.
        The reference state it reads (kNN lists, mean reach-distances, their
        descending order, reverse kNN lists) is prepared once per subspace
        list and kept with the reference engine.  A request then costs one
        distance row per query and subspace plus work in the changed rows,
        for all queries and subspaces at once.
        """
        data = self._check_reference(data)
        n_reference = self.reference_data_.shape[0]
        mode = self._resolve_engine_mode(engine)
        # The local update needs the full MinPts neighbourhood among the
        # references alone; tiny references fall back to the reference loop.
        if mode != "shared" or self.min_pts > n_reference - 1:
            return super().score_samples_independent(data, subspaces, engine=engine)
        if not subspaces:
            return []
        shared = self._shared_reference_engine()
        attributes = [self._subspace_attributes(data, s) for s in subspaces]
        plan = self._reference_preparation(
            shared,
            (self.min_pts, tuple(attributes)),
            lambda built_on: _LocalUpdatePlan(built_on, attributes, self.min_pts),
        )
        # Queries in blocks whose stacked distance rows, per-group tables and
        # top-k scratch stay within _QUERY_BLOCK_BYTES; every query is scored
        # on its own, so the blocking changes no bit.
        per_query = 6 * 8 * len(subspaces) * n_reference
        step = max(1, _QUERY_BLOCK_BYTES // per_query)
        scores = np.concatenate(
            [
                _independent_lof(plan, shared, data[start : start + step])
                for start in range(0, data.shape[0], step)
            ],
            axis=1,
        )
        return list(scores)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"LOFScorer(min_pts={self.min_pts}, algorithm={self.algorithm!r})"
