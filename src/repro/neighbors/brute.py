"""Brute-force k-nearest-neighbour search.

Computes the full pairwise distance matrix once and answers all-neighbour
queries with a partial sort.  Quadratic in the number of objects — exactly the
complexity the paper attributes to LOF — but simple, exact and fast enough for
the laptop-scale datasets of the evaluation.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..exceptions import DataError, ParameterError
from ..utils.validation import check_data_matrix, check_positive_int
from .base import KNNResult, NearestNeighborSearcher
from .distance import pairwise_distances
from .topk import top_k_smallest

__all__ = ["BruteForceKNN"]


class BruteForceKNN(NearestNeighborSearcher):
    """Exact kNN via a dense pairwise distance matrix.

    The dense reference the other exact backends are tested against;
    :class:`~repro.neighbors.engine.SharedNeighborEngine` is the exact
    searcher that scales past one ``n x n`` matrix.

    Parameters
    ----------
    data:
        Reference data matrix of shape ``(n_objects, n_dims)``.
    attributes:
        Optional attribute indices restricting the distance to a subspace.
    p:
        Minkowski order of the distance (2 = Euclidean).
    """

    def __init__(
        self,
        data: np.ndarray,
        attributes: Optional[Sequence[int]] = None,
        *,
        p: float = 2.0,
    ):
        self._data = check_data_matrix(data, name="data", min_objects=2)
        self._attributes = None if attributes is None else tuple(int(a) for a in attributes)
        if self._attributes is not None:
            if not self._attributes:
                raise ParameterError("attributes must not be empty")
            if max(self._attributes) >= self._data.shape[1]:
                raise DataError(
                    f"attribute {max(self._attributes)} out of range for "
                    f"{self._data.shape[1]}-dimensional data"
                )
        self._p = float(p)
        self._distance_matrix: Optional[np.ndarray] = None

    @property
    def n_objects(self) -> int:
        return self._data.shape[0]

    @property
    def distance_matrix(self) -> np.ndarray:
        """The (lazily computed and cached) full pairwise distance matrix."""
        if self._distance_matrix is None:
            self._distance_matrix = pairwise_distances(
                self._data, attributes=self._attributes, p=self._p
            )
        return self._distance_matrix

    def kneighbors(self, k: int, *, exclude_self: bool = True) -> KNNResult:
        k = check_positive_int(k, name="k")
        n = self.n_objects
        max_k = n - 1 if exclude_self else n
        if k > max_k:
            raise ParameterError(
                f"k={k} is too large for {n} objects (max {max_k} with exclude_self={exclude_self})"
            )
        distances = self.distance_matrix
        # Temporarily mask the diagonal in place instead of copying the cached
        # n x n matrix per query; the true diagonal is exactly zero, so
        # restoring it afterwards is lossless.
        if exclude_self:
            np.fill_diagonal(distances, np.inf)
        try:
            # top_k_smallest applies the same deterministic index tie-break a
            # stable full-row argsort would, which keeps LOF reproducible
            # across runs, at partial-sort instead of full-sort cost.
            order, neighbor_distances = top_k_smallest(distances, k)
        finally:
            if exclude_self:
                np.fill_diagonal(distances, 0.0)
        return KNNResult(indices=order, distances=neighbor_distances)
