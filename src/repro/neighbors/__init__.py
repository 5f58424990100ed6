"""Nearest-neighbour substrate.

Density-based outlier scores such as LOF are defined over k-nearest-neighbour
queries.  This package provides distance metrics (including subspace-restricted
metrics as required by the subspace extension of LOF), the shared neighbour
engine — one exact kNN path, dense on short data and a pruned leaf search
on tall data — and the dense brute-force searcher it is tested against, all
implemented from scratch on top of NumPy.
"""

from .base import KNNResult, NearestNeighborSearcher, create_knn_searcher
from .brute import BruteForceKNN
from .distance import (
    euclidean_distance,
    manhattan_distance,
    minkowski_distance,
    pairwise_distances,
    squared_difference_block,
    subspace_pairwise_distances,
)
from .engine import SharedEngineKNN, SharedNeighborEngine, normalise_engine_mode
from .topk import merge_top_k, top_k_smallest

__all__ = [
    "euclidean_distance",
    "manhattan_distance",
    "minkowski_distance",
    "pairwise_distances",
    "squared_difference_block",
    "subspace_pairwise_distances",
    "BruteForceKNN",
    "KNNResult",
    "NearestNeighborSearcher",
    "SharedEngineKNN",
    "SharedNeighborEngine",
    "create_knn_searcher",
    "merge_top_k",
    "normalise_engine_mode",
    "top_k_smallest",
]
