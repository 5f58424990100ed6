"""Apriori-style level-wise subspace candidate generation (Section IV-B).

HiCS grows subspaces bottom-up: starting from all two-dimensional subspaces,
the d-dimensional subspaces surviving the candidate cutoff are merged into
(d+1)-dimensional candidates, Apriori style.  Unlike classical Apriori there is
no formal anti-monotonicity for correlation (Figure 3 gives a counterexample),
so the procedure is a heuristic: correlation is very likely visible in lower
dimensional projections.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, List, Optional, Sequence, Set, Tuple

from ..exceptions import ParameterError, SubspaceError
from ..types import ScoredSubspace, Subspace, best_first

__all__ = ["all_two_dimensional_subspaces", "merge_subspaces", "generate_candidates", "apply_cutoff"]


def all_two_dimensional_subspaces(n_dims: int) -> List[Subspace]:
    """All ``C(D, 2)`` two-dimensional subspaces of a D-dimensional space.

    This is the starting level of the HiCS search; one-dimensional subspaces
    are skipped because a one-dimensional contrast is not meaningful.
    """
    if n_dims < 2:
        raise ParameterError(f"need at least 2 dimensions to build 2-D subspaces, got {n_dims}")
    return [Subspace(pair) for pair in combinations(range(n_dims), 2)]


def merge_subspaces(a: Subspace, b: Subspace) -> Optional[Subspace]:
    """Apriori merge step: join two d-dim subspaces sharing a (d-1)-dim prefix.

    Two subspaces of equal dimensionality ``d`` are merged into a ``d+1``
    dimensional candidate when their first ``d - 1`` attributes coincide (the
    classical sorted-prefix join).  Returns ``None`` when the pair does not
    join.
    """
    if a.dimensionality != b.dimensionality:
        raise SubspaceError(
            "can only merge subspaces of equal dimensionality, got "
            f"{a.dimensionality} and {b.dimensionality}"
        )
    if a.attributes[:-1] != b.attributes[:-1]:
        return None
    if a.attributes[-1] == b.attributes[-1]:
        return None
    return Subspace(a.attributes + (b.attributes[-1],))


def generate_candidates(
    level_subspaces: Sequence[Subspace],
    *,
    require_subset_support: bool = False,
) -> List[Subspace]:
    """Generate all (d+1)-dimensional candidates from the surviving d-dim subspaces.

    Parameters
    ----------
    level_subspaces:
        The d-dimensional subspaces that survived the cutoff at the current
        level.
    require_subset_support:
        If True, additionally require (classic Apriori pruning) that every
        d-dimensional subset of a candidate is present in ``level_subspaces``.
        HiCS does not enforce this because contrast is not anti-monotone; the
        flag exists for experimentation and the pruning ablation.

    Returns
    -------
    list of Subspace
        Unique candidates in deterministic (sorted) order.
    """
    level = list(level_subspaces)
    if not level:
        return []
    dimensionality = level[0].dimensionality
    for s in level:
        if s.dimensionality != dimensionality:
            raise SubspaceError("all subspaces of one level must share the same dimensionality")

    present: Set[Tuple[int, ...]] = {s.attributes for s in level}
    candidates: Set[Tuple[int, ...]] = set()
    sorted_level = sorted(level)
    for i, a in enumerate(sorted_level):
        for b in sorted_level[i + 1 :]:
            merged = merge_subspaces(a, b)
            if merged is None:
                # The level is sorted, so once prefixes diverge no later b joins with a.
                if a.attributes[:-1] != b.attributes[:-1]:
                    break
                continue
            if require_subset_support:
                subsets_ok = all(
                    tuple(sorted(set(merged.attributes) - {attr})) in present
                    for attr in merged.attributes
                )
                if not subsets_ok:
                    continue
            candidates.add(merged.attributes)
    return [Subspace(attrs) for attrs in sorted(candidates)]


def apply_cutoff(
    scored: Iterable[ScoredSubspace], cutoff: int
) -> List[ScoredSubspace]:
    """Keep the ``cutoff`` highest-contrast subspaces of one level.

    This is the paper's *adaptive threshold*: instead of a fixed minimum
    contrast, the decision which candidates to keep is postponed until the
    contrast of all candidates of the level is known, and only the top
    ``cutoff`` are retained.  Ties are broken deterministically by the
    subspace's attribute tuple, and a NaN contrast ranks below every other
    (:func:`~repro.types.best_first`).
    """
    if cutoff < 1:
        raise ParameterError(f"cutoff must be >= 1, got {cutoff}")
    return sorted(scored, key=best_first)[:cutoff]
