"""Enclus: entropy-based subspace search (Cheng, Fu & Zhang, KDD 1999).

Enclus partitions every candidate subspace into equi-width grid cells and
measures the Shannon entropy of the cell-occupancy distribution.  Subspaces
with *low* entropy show large density variation (clusters and empty regions)
and are considered interesting.  Candidates are grown level-wise: entropy is
(essentially) monotone non-decreasing when attributes are added, so Enclus
prunes candidates whose entropy exceeds a threshold ``omega``.

The reproduction follows the paper's usage of Enclus as a *pre-processing*
step for outlier ranking: the output is a list of subspaces ranked by
increasing entropy (best first).  To match the HiCS evaluation protocol an
adaptive per-level cutoff is used in addition to the entropy threshold, and
the final list is capped at ``max_output_subspaces``.

The quality score reported for each subspace is ``max_entropy - entropy`` so
that, like the HiCS contrast, *larger is better*.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from ..exceptions import ParameterError
from ..stats.entropy import subspace_grid_entropy
from ..subspaces.apriori import all_two_dimensional_subspaces, apply_cutoff, generate_candidates
from ..subspaces.base import SubspaceSearcher
from ..types import ScoredSubspace, Subspace, best_first
from ..utils.validation import check_data_matrix, check_positive_int

__all__ = ["EnclusSearcher"]


class EnclusSearcher(SubspaceSearcher):
    """Grid-entropy based subspace search.

    Parameters
    ----------
    n_bins:
        Grid resolution per dimension (``ξ`` in the Enclus paper).
    entropy_threshold:
        Optional absolute entropy threshold ``omega``; candidates with a higher
        entropy are discarded.  ``None`` disables the absolute threshold and
        relies purely on the per-level cutoff, which is more robust across
        datasets (finding a good omega is exactly the parameter-sensitivity
        problem the paper reports for Enclus).
    candidate_cutoff:
        Maximum number of candidates kept per level.
    max_dimensionality:
        Hard cap on the dimensionality of the explored subspaces.  The grid
        based density estimate degrades quickly with dimensionality (the paper
        observes Enclus mostly finds 2-D and some 3-D subspaces), so the
        default of 4 mirrors its practical reach.
    max_output_subspaces:
        Cap on the number of returned subspaces (paper protocol: best 100).
    """

    name = "Enclus"

    def __init__(
        self,
        *,
        n_bins: int = 10,
        entropy_threshold: Optional[float] = None,
        candidate_cutoff: int = 400,
        max_dimensionality: int = 4,
        max_output_subspaces: int = 100,
    ):
        self.n_bins = check_positive_int(n_bins, name="n_bins", minimum=2)
        if entropy_threshold is not None and entropy_threshold <= 0:
            raise ParameterError(f"entropy_threshold must be positive, got {entropy_threshold}")
        self.entropy_threshold = entropy_threshold
        self.candidate_cutoff = check_positive_int(candidate_cutoff, name="candidate_cutoff")
        self.max_dimensionality = check_positive_int(
            max_dimensionality, name="max_dimensionality", minimum=2
        )
        self.max_output_subspaces = check_positive_int(
            max_output_subspaces, name="max_output_subspaces"
        )

    def _interest(self, data: np.ndarray, subspace: Subspace) -> float:
        """Interest score: ``max_entropy - entropy`` (larger = more clustered)."""
        entropy = subspace_grid_entropy(data, subspace.attributes, self.n_bins)
        max_entropy = subspace.dimensionality * np.log2(self.n_bins)
        return float(max_entropy - entropy)

    def search(self, data: np.ndarray) -> List[ScoredSubspace]:
        data = check_data_matrix(data, name="data", min_objects=10, min_dims=2)
        candidates = all_two_dimensional_subspaces(data.shape[1])
        all_scored: List[ScoredSubspace] = []
        while candidates:
            scored_level = []
            for subspace in candidates:
                entropy = subspace_grid_entropy(data, subspace.attributes, self.n_bins)
                if self.entropy_threshold is not None and entropy > self.entropy_threshold:
                    continue
                max_entropy = subspace.dimensionality * np.log2(self.n_bins)
                scored_level.append(
                    ScoredSubspace(subspace=subspace, score=float(max_entropy - entropy))
                )
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
