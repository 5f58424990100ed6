"""Common interface for k-nearest-neighbour searchers.

The dense brute-force searcher and the shared engine's adapter implement the
:class:`NearestNeighborSearcher` protocol; LOF and the kNN-distance scorer only
depend on that protocol, and both searchers return the same neighbours, bit
for bit.
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

#: kNN algorithm names :func:`create_knn_searcher` accepts.
KNN_ALGORITHMS = ("auto", "brute")

#: Retired kNN backend names and the algorithm that now computes their
#: neighbours.  ``kdtree`` and ``shared`` were exact (the KD-tree could order
#: exact distance ties differently; ``auto`` keeps the brute-force order).
#: ``subsample`` was approximate, so no exact path reproduces its scores and
#: it maps to ``None``: rejected.
LEGACY_KNN_ALGORITHMS = {"kdtree": "auto", "shared": "auto", "subsample": None}


def check_knn_algorithm(algorithm: object) -> str:
    """Validate a kNN algorithm name, so a scorer fails at construction time.

    Constructors, spec strings and saved models all resolve retired names
    here, through :data:`LEGACY_KNN_ALGORITHMS`.
    """
    if not isinstance(algorithm, str):
        raise ParameterError(f"algorithm must be a string, got {type(algorithm).__name__}")
    key = algorithm.strip().lower()
    if key in LEGACY_KNN_ALGORITHMS:
        key = LEGACY_KNN_ALGORITHMS[key]
        if key is None:
            raise ParameterError(
                f"algorithm={algorithm!r}: the approximate subsample kNN backend "
                f"was removed; algorithm='auto' is exact"
            )
    if key not in KNN_ALGORITHMS:
        raise ParameterError(
            f"algorithm must be one of {KNN_ALGORITHMS}, got {algorithm!r}"
        )
    return key


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
    """Factory choosing a kNN searcher; both choices are exact and bit-identical.

    ``"auto"`` (the default) is the dense :class:`~repro.neighbors.brute.BruteForceKNN`
    up to the height at which a :class:`~repro.neighbors.engine.SharedNeighborEngine`
    still takes its dense pass, and the engine's pruned search past it: a
    one-shot query on shorter data gains nothing from the engine.
    ``"brute"`` is always the dense reference.
    """
    from . import engine
    from .brute import BruteForceKNN

    if check_knn_algorithm(algorithm) == "auto" and len(data) > engine._DENSE_MAX_ROWS:
        return engine.SharedEngineKNN(data, attributes)
    return BruteForceKNN(data, attributes)
