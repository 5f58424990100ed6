"""Redundancy pruning of the final subspace list (Section IV-B, last step).

A d-dimensional subspace ``T`` is removed from the output when the result list
contains a (d+1)-dimensional superset ``S ⊇ T`` with a strictly higher
contrast: the superset explains the same correlation structure at least as
well, so keeping ``T`` only dilutes the outlier ranking with redundant
projections (following the non-redundant subspace-mining idea of [22]).
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence, Tuple

from ..types import ScoredSubspace, best_first

__all__ = ["prune_redundant_subspaces"]


def prune_redundant_subspaces(
    scored_subspaces: Sequence[ScoredSubspace],
) -> List[ScoredSubspace]:
    """Drop subspaces dominated by a higher-contrast superset.

    Only a superset with exactly one more attribute can prune (the paper's
    rule).  Every such superset of ``T`` is ``T`` plus one attribute, so one
    pass maps each subspace's one-smaller subsets to the best score among
    their supersets, and a second pass prunes ``T`` when that best score
    beats its own — linear in the list instead of pairwise.  Both passes
    compare with ``>``, which is False with NaN, so a NaN score never enters
    the map and is never pruned, as under the pairwise rule.

    Parameters
    ----------
    scored_subspaces:
        The scored subspaces collected over all levels of the search.

    Returns
    -------
    list of ScoredSubspace
        The non-redundant subspaces, sorted by decreasing contrast with NaN
        scores last (ties broken by the attribute tuple for determinism).
    """
    items = list(scored_subspaces)
    best_superset: Dict[Tuple[int, ...], float] = {}
    for item in items:
        attrs = item.subspace.attributes
        for drop in range(len(attrs)):
            subset = attrs[:drop] + attrs[drop + 1 :]
            if item.score > best_superset.get(subset, -math.inf):
                best_superset[subset] = item.score
    kept = [
        item
        for item in items
        if not best_superset.get(item.subspace.attributes, -math.inf) > item.score
    ]
    return sorted(kept, key=best_first)
