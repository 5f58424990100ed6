"""The subspace outlier ranking engine.

Given a list of (high-contrast) subspaces and an :class:`OutlierScorer`, the
ranker evaluates the scorer in each subspace and aggregates the per-subspace
scores into the final ranking (Definition 1).  This is the second step of the
decoupled processing; the subspaces can come from HiCS or from any of the
baseline subspace search methods.
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

import numpy as np

from ..exceptions import ParameterError
from ..neighbors.engine import SharedNeighborEngine, normalise_engine_mode
from ..types import RankingResult, Subspace
from ..utils.timing import Stopwatch
from ..utils.validation import check_data_matrix
from .aggregation import aggregate_scores
from .base import OutlierScorer
from .lof import LOFScorer

__all__ = ["SubspaceOutlierRanker"]


class SubspaceOutlierRanker:
    """Scores objects in a set of subspaces and aggregates the results.

    Parameters
    ----------
    scorer:
        The per-subspace outlier scorer; defaults to :class:`LOFScorer` with
        ``MinPts = 10`` as in the paper's experiments.
    aggregation:
        ``"average"`` (paper default), ``"max"`` or a custom callable.
    max_subspaces:
        Upper bound on the number of subspaces that are actually scored; the
        paper keeps only the best 100 subspaces of every search method "to
        enforce a concise subspace selection".
    engine:
        ``"shared"`` (default) scores all subspaces through one
        :class:`~repro.neighbors.engine.SharedNeighborEngine`, which
        assembles each subspace's distances from the data columns in row
        bands and selects each band's neighbours as it goes; tall datasets
        are scored through an exact pruned kNN search.
        ``"per-subspace"`` is the reference path that rebuilds every
        subspace's distances from scratch.  Both produce identical scores,
        bit for bit.
    """

    def __init__(
        self,
        scorer: Optional[OutlierScorer] = None,
        *,
        aggregation: Union[str, callable] = "average",
        max_subspaces: int = 100,
        engine: str = "shared",
    ):
        self.scorer = scorer if scorer is not None else LOFScorer()
        if not isinstance(self.scorer, OutlierScorer):
            raise ParameterError("scorer must be an OutlierScorer instance")
        self.aggregation = aggregation
        if max_subspaces < 1:
            raise ParameterError(f"max_subspaces must be >= 1, got {max_subspaces}")
        self.max_subspaces = int(max_subspaces)
        self.engine = normalise_engine_mode(engine)

    def rank(
        self,
        data: np.ndarray,
        subspaces: Sequence[Subspace],
        *,
        stopwatch: Optional[Stopwatch] = None,
    ) -> RankingResult:
        """Rank all objects of ``data`` using the given subspaces.

        Falls back to a full-space ranking when the subspace list is empty, so
        that a degenerate subspace search never leaves the user without a
        result.
        """
        data = check_data_matrix(data, name="data", min_objects=2)
        stopwatch = stopwatch if stopwatch is not None else Stopwatch()

        selected = list(subspaces)[: self.max_subspaces]
        with stopwatch.measure("outlier_ranking"):
            if not selected:
                scores = self.scorer.score(data, subspace=None)
                return RankingResult(
                    scores=scores,
                    subspaces=(),
                    method=f"{self.scorer.name} (full space)",
                    metadata={"runtime_sec": stopwatch.total(), "n_subspaces": 0},
                )
            shared = SharedNeighborEngine(data) if self.engine == "shared" else None
            per_subspace = self.scorer.score_batch(data, selected, engine=shared)
            combined = aggregate_scores(per_subspace, self.aggregation)
        return RankingResult(
            scores=combined,
            subspaces=tuple(selected),
            method=f"{self.scorer.name} in {len(selected)} subspaces",
            metadata={
                "runtime_sec": stopwatch.total(),
                "n_subspaces": len(selected),
                "aggregation": self.aggregation if isinstance(self.aggregation, str) else "custom",
            },
        )

    def rank_full_space(self, data: np.ndarray) -> RankingResult:
        """Convenience: rank in the full space only (the plain LOF baseline)."""
        return self.rank(data, subspaces=())
