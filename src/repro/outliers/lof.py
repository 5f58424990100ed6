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
from .base import DEFAULT_MEMORY_BUDGET_MB, OutlierScorer

__all__ = ["LOFScorer", "local_outlier_factor"]


def _lof_from_knn(indices: np.ndarray, distances: np.ndarray) -> np.ndarray:
    """Compute LOF scores from a kNN result (indices + distances).

    Parameters
    ----------
    indices:
        Neighbour indices of shape ``(n, k)``.
    distances:
        Corresponding neighbour distances of shape ``(n, k)``.
    """
    n, k = indices.shape
    k_distance = distances[:, -1]

    # reach-dist_k(o, p) = max(k-distance(p), dist(o, p)) for each neighbour p of o.
    reach_dist = np.maximum(k_distance[indices], distances)

    # lrd_k(o) = 1 / mean(reach-dist_k(o, p)); guard against zero mean
    # (duplicate points) by flooring with a small epsilon, which gives those
    # objects a very high but finite density and LOF close to 1 — the same
    # convention scikit-learn uses.  The floor is relative to the largest
    # mean, so a common power-of-two scale of the data leaves every score
    # bit-identical.  A positive distance is the square root of a float, at
    # least about 1e-162, so averaging the lrd values cannot overflow.
    mean_reach = reach_dist.mean(axis=1)
    positive = mean_reach[mean_reach > 0.0]
    floor = 1e-12 * float(positive.max()) if positive.size else 1e-12
    mean_reach = np.maximum(mean_reach, floor)
    lrd = 1.0 / mean_reach

    # LOF_k(o) = mean(lrd(p) / lrd(o)) over the neighbours p of o.
    lof = (lrd[indices].mean(axis=1)) / lrd
    return lof


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
        memory_budget_mb: float = DEFAULT_MEMORY_BUDGET_MB,
    ) -> List[np.ndarray]:
        """Independent scoring through the engine's asymmetric query mode.

        Scoring object ``q`` independently means running LOF on
        ``reference + [q]``; inserting ``q`` changes a reference object's
        neighbour list only when ``dist(r, q)`` beats ``r``'s current
        k-distance.  The reference neighbour lists are therefore computed
        once per subspace and patched per query, which replaces the
        per-object full scoring pass with an ``O(n k)`` update while staying
        bit-for-bit equal to the reference loop.
        """
        data = self._check_reference(data)
        n_reference = self.reference_data_.shape[0]
        mode = self._resolve_engine_mode(engine)
        # The incremental path needs the full MinPts neighbourhood among the
        # references alone; tiny references fall back to the reference loop.
        if mode != "shared" or self.min_pts > n_reference - 1:
            return super().score_samples_independent(
                data, subspaces, engine=engine, memory_budget_mb=memory_budget_mb
            )
        shared = self._shared_reference_engine(memory_budget_mb)
        k = self.min_pts
        n_queries = data.shape[0]
        columns = np.arange(k)[None, :]
        results = []
        for subspace in subspaces:
            attributes = self._subspace_attributes(data, subspace)
            reference_knn = shared.kneighbors(k, attributes)
            ref_indices, ref_distances = reference_knn.indices, reference_knn.distances
            kth = ref_distances[:, -1]
            query_rows = shared.query_distances(data, attributes)
            query_indices, query_distances = top_k_smallest(query_rows, k)
            scores = np.empty(n_queries)
            for qi in range(n_queries):
                row = query_rows[qi]
                combined_indices = np.vstack([ref_indices, query_indices[qi : qi + 1]])
                combined_distances = np.vstack(
                    [ref_distances, query_distances[qi : qi + 1]]
                )
                affected = np.flatnonzero(row < kth)
                if affected.size:
                    # Insert the query (combined index n, losing all distance
                    # ties by index) into each affected neighbour list and
                    # drop the old k-th neighbour.
                    old_i = ref_indices[affected]
                    old_d = ref_distances[affected]
                    query_d = row[affected][:, None]
                    position = np.count_nonzero(old_d <= query_d, axis=1)[:, None]
                    shifted = np.maximum(columns - 1, 0)
                    combined_indices[affected] = np.where(
                        columns < position,
                        old_i,
                        np.where(
                            columns == position,
                            n_reference,
                            np.take_along_axis(old_i, shifted, axis=1),
                        ),
                    )
                    combined_distances[affected] = np.where(
                        columns < position,
                        old_d,
                        np.where(
                            columns == position,
                            query_d,
                            np.take_along_axis(old_d, shifted, axis=1),
                        ),
                    )
                scores[qi] = _lof_from_knn(combined_indices, combined_distances)[-1]
            results.append(scores)
        return results

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"LOFScorer(min_pts={self.min_pts}, algorithm={self.algorithm!r})"
