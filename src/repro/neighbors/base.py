"""Common interface for k-nearest-neighbour searchers.

Both the brute-force and the KD-tree searcher implement the
:class:`NearestNeighborSearcher` protocol; LOF and the kNN-distance scorer only
depend on that protocol, so the backends are interchangeable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ..exceptions import ParameterError

__all__ = [
    "KNNResult",
    "NearestNeighborSearcher",
    "check_knn_algorithm",
    "create_knn_searcher",
]

#: kNN backend names :func:`create_knn_searcher` accepts.
KNN_ALGORITHMS = ("auto", "brute", "kdtree", "shared", "subsample")


def check_knn_algorithm(algorithm: str) -> str:
    """Validate a kNN backend name, so a scorer fails at construction time."""
    if algorithm not in KNN_ALGORITHMS:
        raise ParameterError(
            f"algorithm must be one of {KNN_ALGORITHMS}, got {algorithm!r}"
        )
    return algorithm


@dataclass(frozen=True)
class KNNResult:
    """k-nearest-neighbour query result for a batch of query objects.

    Attributes
    ----------
    indices:
        Array of shape ``(n_queries, k)`` with the neighbour indices sorted by
        ascending distance.  Ties on the k-th distance are broken by index so
        results are deterministic.
    distances:
        Array of the corresponding distances, same shape as ``indices``.
    """

    indices: np.ndarray
    distances: np.ndarray

    @property
    def k(self) -> int:
        return self.indices.shape[1]

    def kth_distance(self) -> np.ndarray:
        """The distance to the k-th neighbour of each query (``k-distance`` in LOF)."""
        return self.distances[:, -1]


class NearestNeighborSearcher:
    """Abstract base class of kNN searchers over a fixed reference data matrix."""

    def __init__(self, data: np.ndarray, attributes: Optional[Sequence[int]] = None):
        raise NotImplementedError

    @property
    def n_objects(self) -> int:
        raise NotImplementedError

    def kneighbors(self, k: int, *, exclude_self: bool = True) -> KNNResult:
        """k nearest neighbours of every reference object.

        Parameters
        ----------
        k:
            Number of neighbours (``MinPts`` in LOF terms).
        exclude_self:
            When True (the default, and what LOF requires) an object is never
            reported as its own neighbour.
        """
        raise NotImplementedError


def create_knn_searcher(
    data: np.ndarray,
    attributes: Optional[Sequence[int]] = None,
    *,
    algorithm: str = "auto",
) -> NearestNeighborSearcher:
    """Factory choosing a kNN backend.

    ``"auto"`` picks the vectorised brute-force backend for all but very large
    low-dimensional inputs: the dense NumPy distance matrix is faster than a
    pure-Python KD-tree traversal up to several thousand objects, and the
    datasets of the paper stay in that regime.  ``"brute"`` / ``"kdtree"`` /
    ``"shared"`` force a backend; ``"shared"`` runs on a
    :class:`~repro.neighbors.engine.SharedNeighborEngine` and produces the
    same neighbours as ``"brute"``, bit for bit.  ``"subsample"`` is the
    approximate backend: exact distances against a deterministic reference
    subsample (:class:`~repro.neighbors.subsample.SubsampledKNN`), linear in
    the dataset size.
    """
    from .brute import BruteForceKNN
    from .engine import SharedEngineKNN
    from .kdtree import KDTreeKNN
    from .subsample import SubsampledKNN

    algorithm = algorithm.strip().lower()
    arr = np.asarray(data, dtype=float)
    n_dims = len(attributes) if attributes is not None else (arr.shape[1] if arr.ndim == 2 else 1)
    if algorithm == "auto":
        algorithm = "kdtree" if n_dims <= 4 and arr.shape[0] > 20000 else "brute"
    if algorithm == "brute":
        return BruteForceKNN(data, attributes)
    if algorithm == "kdtree":
        return KDTreeKNN(data, attributes)
    if algorithm == "shared":
        return SharedEngineKNN(data, attributes)
    if algorithm == "subsample":
        return SubsampledKNN(data, attributes)
    raise ParameterError(
        f"unknown kNN algorithm {algorithm!r}; expected 'auto', 'brute', 'kdtree', "
        f"'shared' or 'subsample'"
    )
