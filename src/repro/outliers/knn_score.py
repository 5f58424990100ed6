"""k-nearest-neighbour distance outlier score.

A simple density proxy: the outlier score of an object is the distance to its
k-th nearest neighbour (or the average distance to its k nearest neighbours).
It shares the core assumption the paper relies on — "an outlier has low
density compared to its local neighbourhood" — and demonstrates that the HiCS
subspace selection is not tied to LOF.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from ..exceptions import ParameterError
from ..neighbors.base import check_knn_algorithm, create_knn_searcher
from ..neighbors.engine import SharedNeighborEngine
from ..types import Subspace
from ..utils.validation import check_data_matrix, check_positive_int
from .base import OutlierScorer

__all__ = ["knn_distance_score", "KNNDistanceScorer"]


def knn_distance_score(
    data: np.ndarray,
    k: int = 10,
    subspace: Optional[Subspace] = None,
    *,
    aggregate: str = "kth",
    algorithm: str = "auto",
) -> np.ndarray:
    """Distance-based outlier score.

    Parameters
    ----------
    data:
        Matrix of shape ``(n_objects, n_dims)``.
    k:
        Neighbourhood size.
    subspace:
        Optional subspace restricting the distance computation.
    aggregate:
        ``"kth"`` uses the distance to the k-th neighbour (Ramaswamy et al.),
        ``"mean"`` the average distance to all k neighbours (Angiulli &
        Pizzuti).
    algorithm:
        kNN searcher, one of :data:`~repro.neighbors.base.KNN_ALGORITHMS`
        (see :func:`~repro.neighbors.base.create_knn_searcher`).
    """
    data = check_data_matrix(data, name="data", min_objects=2)
    k = check_positive_int(k, name="k")
    if k >= data.shape[0]:
        raise ParameterError(f"k={k} must be smaller than the number of objects ({data.shape[0]})")
    if aggregate not in ("kth", "mean"):
        raise ParameterError(f"aggregate must be 'kth' or 'mean', got {aggregate!r}")
    attributes = None
    if subspace is not None:
        subspace.validate_against_dimensionality(data.shape[1])
        attributes = subspace.attributes
    searcher = create_knn_searcher(data, attributes, algorithm=algorithm)
    knn = searcher.kneighbors(k, exclude_self=True)
    if aggregate == "kth":
        return knn.kth_distance().copy()
    return knn.distances.mean(axis=1)


class KNNDistanceScorer(OutlierScorer):
    """kNN-distance score as an :class:`OutlierScorer`."""

    name = "kNN-dist"

    def __init__(self, k: int = 10, *, aggregate: str = "kth", algorithm: str = "auto"):
        self.k = check_positive_int(k, name="k")
        if aggregate not in ("kth", "mean"):
            raise ParameterError(f"aggregate must be 'kth' or 'mean', got {aggregate!r}")
        self.aggregate = aggregate
        self.algorithm = check_knn_algorithm(algorithm)

    def score(self, data: np.ndarray, subspace: Optional[Subspace] = None) -> np.ndarray:
        data = check_data_matrix(data, name="data", min_objects=2)
        effective_k = min(self.k, data.shape[0] - 1)
        return knn_distance_score(
            data,
            effective_k,
            subspace,
            aggregate=self.aggregate,
            algorithm=self.algorithm,
        )

    def _aggregate_distances(self, distances: np.ndarray) -> np.ndarray:
        if self.aggregate == "kth":
            return distances[:, -1].copy()
        return distances.mean(axis=1)

    def score_batch(
        self,
        data: np.ndarray,
        subspaces: List[Optional[Subspace]],
        *,
        engine: Optional[SharedNeighborEngine] = None,
    ) -> List[np.ndarray]:
        """All subspaces answered by the shared engine's kNN."""
        data = check_data_matrix(data, name="data", min_objects=2)
        if engine is None:
            return super().score_batch(data, subspaces, engine=engine)
        self._check_engine(engine, data)
        effective_k = min(self.k, data.shape[0] - 1)
        scores = []
        for subspace in subspaces:
            attributes = self._subspace_attributes(data, subspace)
            knn = engine.kneighbors(effective_k, attributes)
            scores.append(self._aggregate_distances(knn.distances))
        return scores

    def score_samples_independent(
        self,
        data: np.ndarray,
        subspaces: List[Optional[Subspace]],
        *,
        engine: Optional[str] = None,
    ) -> List[np.ndarray]:
        """Independent scoring via the engine's asymmetric query mode.

        The kNN-distance score of a lone new object depends only on its own
        neighbourhood among the references, so the whole batch reduces to one
        asymmetric top-k query per subspace — no per-object passes at all.
        """
        data = self._check_reference(data)
        if self._resolve_engine_mode(engine) != "shared":
            return super().score_samples_independent(data, subspaces, engine=engine)
        shared = self._shared_reference_engine()
        effective_k = min(self.k, self.reference_data_.shape[0])
        results = []
        for subspace in subspaces:
            attributes = self._subspace_attributes(data, subspace)
            knn = shared.query_kneighbors(data, effective_k, attributes)
            results.append(self._aggregate_distances(knn.distances))
        return results

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"KNNDistanceScorer(k={self.k}, aggregate={self.aggregate!r})"
