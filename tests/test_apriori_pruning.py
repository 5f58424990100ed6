"""Tests for the Apriori-style candidate generation, cutoff and redundancy pruning."""

from __future__ import annotations

import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.exceptions import ParameterError, SubspaceError
from repro.subspaces.apriori import (
    all_two_dimensional_subspaces,
    apply_cutoff,
    generate_candidates,
    merge_subspaces,
)
from repro.subspaces.pruning import prune_redundant_subspaces
from repro.types import ScoredSubspace, Subspace


def assert_best_first(items):
    """Scores non-increasing with NaN scores last, checked without a sort key."""
    unscored = [math.isnan(item.score) for item in items]
    assert unscored == sorted(unscored), "a NaN score sorts ahead of a number"
    scores = [item.score for item, nan in zip(items, unscored) if not nan]
    assert all(a >= b for a, b in zip(scores, scores[1:])), scores


def _disjoint_pairs(*scores):
    """Scored subspaces (0, 1), (2, 3), ... with the given scores, in order."""
    return [
        ScoredSubspace(Subspace((2 * i, 2 * i + 1)), score) for i, score in enumerate(scores)
    ]


class TestTwoDimensionalStart:
    def test_counts(self):
        assert len(all_two_dimensional_subspaces(5)) == 10
        assert len(all_two_dimensional_subspaces(2)) == 1

    def test_all_pairs_unique_and_sorted(self):
        subspaces = all_two_dimensional_subspaces(4)
        assert len({s.attributes for s in subspaces}) == 6
        assert all(s.dimensionality == 2 for s in subspaces)

    def test_too_few_dimensions(self):
        with pytest.raises(ParameterError):
            all_two_dimensional_subspaces(1)

    @given(st.integers(min_value=2, max_value=30))
    def test_property_binomial_count(self, n_dims):
        subspaces = all_two_dimensional_subspaces(n_dims)
        assert len(subspaces) == n_dims * (n_dims - 1) // 2


class TestMerge:
    def test_shared_prefix_merges(self):
        merged = merge_subspaces(Subspace((0, 1)), Subspace((0, 2)))
        assert merged.attributes == (0, 1, 2)

    def test_different_prefix_does_not_merge(self):
        assert merge_subspaces(Subspace((0, 1)), Subspace((2, 3))) is None

    def test_identical_last_attribute_does_not_merge(self):
        assert merge_subspaces(Subspace((0, 1)), Subspace((0, 1))) is None

    def test_dimensionality_mismatch_raises(self):
        with pytest.raises(SubspaceError):
            merge_subspaces(Subspace((0, 1)), Subspace((0, 1, 2)))

    def test_three_dimensional_merge(self):
        merged = merge_subspaces(Subspace((1, 2, 5)), Subspace((1, 2, 7)))
        assert merged.attributes == (1, 2, 5, 7)


class TestGenerateCandidates:
    def test_from_all_pairs_of_three_dims(self):
        pairs = all_two_dimensional_subspaces(3)
        candidates = generate_candidates(pairs)
        assert [c.attributes for c in candidates] == [(0, 1, 2)]

    def test_empty_input(self):
        assert generate_candidates([]) == []

    def test_mixed_dimensionality_rejected(self):
        with pytest.raises(SubspaceError):
            generate_candidates([Subspace((0, 1)), Subspace((0, 1, 2))])

    def test_candidates_unique_and_higher_dimensional(self):
        level = [Subspace(p) for p in [(0, 1), (0, 2), (0, 3), (1, 2)]]
        candidates = generate_candidates(level)
        assert all(c.dimensionality == 3 for c in candidates)
        assert len({c.attributes for c in candidates}) == len(candidates)
        assert Subspace((0, 1, 2)) in candidates
        assert Subspace((0, 1, 3)) in candidates
        assert Subspace((0, 2, 3)) in candidates

    def test_subset_support_pruning(self):
        # (0,1,2) needs all of (0,1), (0,2), (1,2) present when support is required.
        level = [Subspace((0, 1)), Subspace((0, 2))]
        without_support = generate_candidates(level, require_subset_support=False)
        with_support = generate_candidates(level, require_subset_support=True)
        assert Subspace((0, 1, 2)) in without_support
        assert Subspace((0, 1, 2)) not in with_support

    @given(
        st.sets(
            st.tuples(st.integers(min_value=0, max_value=8), st.integers(min_value=0, max_value=8)),
            min_size=1,
            max_size=15,
        )
    )
    @settings(max_examples=40)
    def test_property_candidates_are_supersets_of_two_parents(self, raw_pairs):
        level = [Subspace(p) for p in raw_pairs if p[0] != p[1]]
        level = list({s.attributes: s for s in level}.values())
        if not level:
            return
        candidates = generate_candidates(level)
        parents = {s.attributes for s in level}
        for candidate in candidates:
            assert candidate.dimensionality == 3
            contained_parents = [
                p for p in parents if set(p).issubset(candidate.attributes)
            ]
            assert len(contained_parents) >= 2


class TestCutoff:
    def test_keeps_top_k_by_score(self):
        scored = [
            ScoredSubspace(Subspace((0, 1)), 0.2),
            ScoredSubspace(Subspace((0, 2)), 0.9),
            ScoredSubspace(Subspace((1, 2)), 0.5),
        ]
        kept = apply_cutoff(scored, 2)
        assert [s.subspace.attributes for s in kept] == [(0, 2), (1, 2)]

    def test_cutoff_larger_than_list(self):
        scored = [ScoredSubspace(Subspace((0, 1)), 0.2)]
        assert len(apply_cutoff(scored, 10)) == 1

    def test_ties_broken_deterministically(self):
        scored = [
            ScoredSubspace(Subspace((1, 2)), 0.5),
            ScoredSubspace(Subspace((0, 1)), 0.5),
        ]
        kept = apply_cutoff(scored, 1)
        assert kept[0].subspace.attributes == (0, 1)

    def test_invalid_cutoff(self):
        with pytest.raises(ParameterError):
            apply_cutoff([], 0)

    def test_nan_contrast_ranks_below_every_score(self):
        kept = apply_cutoff(_disjoint_pairs(0.2, float("nan"), 0.9, 0.5), 2)
        assert [s.score for s in kept] == [0.9, 0.5]


class TestPruning:
    def test_lower_dimensional_dominated_subspace_removed(self):
        scored = [
            ScoredSubspace(Subspace((0, 1)), 0.6),
            ScoredSubspace(Subspace((0, 1, 2)), 0.8),
        ]
        kept = prune_redundant_subspaces(scored)
        assert [s.subspace.attributes for s in kept] == [(0, 1, 2)]

    def test_higher_contrast_subset_is_kept(self):
        scored = [
            ScoredSubspace(Subspace((0, 1)), 0.9),
            ScoredSubspace(Subspace((0, 1, 2)), 0.4),
        ]
        kept = prune_redundant_subspaces(scored)
        assert {s.subspace.attributes for s in kept} == {(0, 1), (0, 1, 2)}

    def test_equal_contrast_keeps_both(self):
        scored = [
            ScoredSubspace(Subspace((0, 1)), 0.5),
            ScoredSubspace(Subspace((0, 1, 2)), 0.5),
        ]
        assert len(prune_redundant_subspaces(scored)) == 2

    def test_only_a_one_larger_superset_prunes(self):
        # A (d+2)-dimensional superset does not prune under the paper's rule.
        scored = [
            ScoredSubspace(Subspace((0, 1)), 0.5),
            ScoredSubspace(Subspace((0, 1, 2, 3)), 0.9),
        ]
        kept = prune_redundant_subspaces(scored)
        assert {s.subspace.attributes for s in kept} == {(0, 1), (0, 1, 2, 3)}

    def test_nan_contrast_neither_prunes_nor_is_pruned(self):
        nan = float("nan")
        scored = [
            ScoredSubspace(Subspace((0, 1)), 0.5),
            ScoredSubspace(Subspace((0, 1, 2)), nan),
            ScoredSubspace(Subspace((0, 1, 3)), 0.4),
            ScoredSubspace(Subspace((0, 1, 2, 3)), 0.9),
        ]
        kept = prune_redundant_subspaces(scored)
        assert {s.subspace.attributes for s in kept} == {(0, 1), (0, 1, 2), (0, 1, 2, 3)}

    def test_output_sorted_by_score(self):
        scored = [
            ScoredSubspace(Subspace((2, 3)), 0.3),
            ScoredSubspace(Subspace((0, 1)), 0.7),
            ScoredSubspace(Subspace((4, 5)), 0.5),
        ]
        kept = prune_redundant_subspaces(scored)
        assert [s.score for s in kept] == [0.7, 0.5, 0.3]

    def test_nan_contrast_sorts_last(self):
        kept = prune_redundant_subspaces(_disjoint_pairs(0.2, float("nan"), 0.9, 0.5))
        assert [s.subspace.attributes for s in kept] == [(4, 5), (6, 7), (0, 1), (2, 3)]
        assert_best_first(kept)

    def test_empty_input(self):
        assert prune_redundant_subspaces([]) == []

    @given(
        st.lists(
            st.tuples(
                st.sets(st.integers(min_value=0, max_value=6), min_size=2, max_size=4),
                st.floats(min_value=0.0, max_value=1.0),
            ),
            min_size=0,
            max_size=12,
        )
    )
    @settings(max_examples=40)
    def test_property_pruned_output_is_subset_and_every_drop_is_justified(self, raw):
        scored = [ScoredSubspace(Subspace(attrs), score) for attrs, score in raw]
        # Deduplicate subspaces, keeping the first occurrence.
        unique = list({s.subspace: s for s in scored}.values())
        kept = prune_redundant_subspaces(unique)
        kept_set = {s.subspace for s in kept}
        assert kept_set.issubset({s.subspace for s in unique})
        for item in unique:
            if item.subspace in kept_set:
                continue
            justification = [
                other
                for other in unique
                if other.subspace.is_superset_of(item.subspace)
                and other.subspace != item.subspace
                and other.dimensionality == item.dimensionality + 1
                and other.score > item.score
            ]
            assert justification, "a subspace was pruned without a dominating superset"


def pairwise_prune(scored_subspaces):
    """The pairwise reference rule: the oracle of the hashed pruning."""
    items = list(scored_subspaces)
    kept = [
        candidate
        for candidate in items
        if not any(
            other.subspace != candidate.subspace
            and other.subspace.is_superset_of(candidate.subspace)
            and other.dimensionality - candidate.dimensionality == 1
            and other.score > candidate.score
            for other in items
        )
    ]
    scored = [s for s in kept if not math.isnan(s.score)]
    unscored = [s for s in kept if math.isnan(s.score)]
    return sorted(scored, key=lambda s: (-s.score, s.subspace.attributes)) + sorted(
        unscored, key=lambda s: s.subspace.attributes
    )


class TestHashedPruningOracle:
    """The one-smaller-subset dict keeps exactly the pairwise rule's list."""

    @given(
        st.lists(
            st.tuples(
                st.sets(st.integers(min_value=0, max_value=5), min_size=1, max_size=5),
                # Few distinct values force ties; NaN and infinities are scores
                # a custom deviation can produce.
                st.sampled_from([0.0, 0.25, 0.5, 1.0, float("nan"), float("inf"), -float("inf")])
                | st.floats(allow_nan=True, allow_infinity=True),
            ),
            min_size=0,
            max_size=40,
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_property_equals_pairwise_oracle(self, raw):
        # Duplicated subspaces stay in: both rules must treat them alike.
        scored = [ScoredSubspace(Subspace(attrs), score) for attrs, score in raw]
        hashed = prune_redundant_subspaces(scored)
        oracle = pairwise_prune(scored)
        assert [(s.subspace, id(s)) for s in hashed] == [(s.subspace, id(s)) for s in oracle]
        assert_best_first(hashed)

    def test_dense_lattice_equals_pairwise_oracle(self):
        rng = np.random.default_rng(0)
        scored = [
            ScoredSubspace(Subspace(attrs), float(rng.choice([0.1, 0.2, 0.3, np.nan])))
            for size in (2, 3, 4)
            for attrs in combinations(range(8), size)
        ]
        hashed = prune_redundant_subspaces(scored)
        assert hashed == pairwise_prune(scored)
        assert_best_first(hashed)
