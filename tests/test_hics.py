"""Tests for the complete HiCS subspace search."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import ParameterError
from repro.stats.deviation import welch_deviation
from repro.subspaces import HiCS
from repro.types import Subspace


def _data_with_correlated_pair(n: int = 400, n_dims: int = 6, seed: int = 0) -> np.ndarray:
    """Attributes 0 and 1 strongly correlated; the rest independent uniform."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(size=n)
    correlated = np.column_stack([x, x + rng.normal(0.0, 0.02, size=n)])
    noise = rng.uniform(size=(n, n_dims - 2))
    return np.hstack([correlated, noise])


def _data_with_correlated_triple(n: int = 500, n_dims: int = 7, seed: int = 1) -> np.ndarray:
    """Attributes 0, 1, 2 jointly correlated; the rest independent."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(size=n)
    triple = np.column_stack(
        [x, x + rng.normal(0, 0.02, n), 1.0 - x + rng.normal(0, 0.02, n)]
    )
    noise = rng.uniform(size=(n, n_dims - 3))
    return np.hstack([triple, noise])


class TestHiCSSearch:
    def test_finds_correlated_pair_first(self):
        data = _data_with_correlated_pair()
        result = HiCS(n_iterations=30, random_state=0).search(data)
        assert result, "HiCS returned no subspaces"
        assert result[0].subspace.attributes == (0, 1)
        assert result[0].score > 0.5

    def test_finds_correlated_triple(self):
        data = _data_with_correlated_triple()
        searcher = HiCS(n_iterations=40, random_state=0)
        result = searcher.search(data)
        top_attribute_sets = [set(s.subspace.attributes) for s in result[:5]]
        assert any(attrs.issubset({0, 1, 2}) and len(attrs) >= 2 for attrs in top_attribute_sets)
        # The correlated triple (or a 2-D projection of it) must clearly beat
        # pure-noise subspaces.
        noise_scores = [s.score for s in result if not set(s.subspace.attributes) & {0, 1, 2}]
        assert result[0].score > (max(noise_scores) if noise_scores else 0.0)

    def test_output_sorted_descending(self):
        data = _data_with_correlated_pair()
        result = HiCS(n_iterations=15, random_state=1).search(data)
        scores = [s.score for s in result]
        assert scores == sorted(scores, reverse=True)

    def test_max_output_subspaces_respected(self):
        data = _data_with_correlated_pair(n_dims=8)
        result = HiCS(n_iterations=5, max_output_subspaces=7, random_state=0).search(data)
        assert len(result) <= 7

    def test_max_dimensionality_cap(self):
        data = _data_with_correlated_triple(n_dims=6)
        searcher = HiCS(n_iterations=5, max_dimensionality=2, random_state=0)
        result = searcher.search(data)
        assert all(s.subspace.dimensionality == 2 for s in result)

    def test_candidate_cutoff_limits_levels(self):
        data = _data_with_correlated_pair(n_dims=8)
        searcher = HiCS(n_iterations=5, candidate_cutoff=3, random_state=0)
        searcher.search(data)
        for level in searcher.levels_:
            assert len(level) <= 3

    def test_levels_and_evaluated_subspaces_recorded(self):
        data = _data_with_correlated_pair(n_dims=5)
        searcher = HiCS(n_iterations=5, random_state=0)
        searcher.search(data)
        assert searcher.levels_, "no levels recorded"
        assert searcher.levels_[0][0].dimensionality == 2
        assert all(isinstance(s, Subspace) for s in searcher.evaluated_subspaces_)
        # All C(5,2) = 10 two-dimensional subspaces must have been evaluated.
        two_dim = [s for s in searcher.evaluated_subspaces_ if s.dimensionality == 2]
        assert len(two_dim) == 10

    def test_search_subspaces_helper(self):
        data = _data_with_correlated_pair(n_dims=5)
        subspaces = HiCS(n_iterations=5, random_state=0).search_subspaces(data)
        assert all(isinstance(s, Subspace) for s in subspaces)

    def test_reproducible_with_seed(self):
        data = _data_with_correlated_pair(n_dims=6)
        a = HiCS(n_iterations=10, random_state=7).search(data)
        b = HiCS(n_iterations=10, random_state=7).search(data)
        assert [(s.subspace.attributes, s.score) for s in a] == [
            (s.subspace.attributes, s.score) for s in b
        ]

    def test_ks_variant_also_finds_pair(self):
        data = _data_with_correlated_pair()
        result = HiCS(n_iterations=30, deviation="ks", random_state=0).search(data)
        assert result[0].subspace.attributes == (0, 1)

    def test_pruning_toggle_changes_output(self):
        data = _data_with_correlated_triple(n_dims=6)
        pruned = HiCS(n_iterations=20, random_state=3).search(data)
        unpruned = HiCS(n_iterations=20, prune_redundant=False, random_state=3).search(data)
        # Without pruning the output can only be larger or equal in size (both
        # capped at max_output_subspaces).
        assert len(unpruned) >= len(pruned)

    def test_display_name(self):
        assert HiCS(deviation="welch")._display_name() == "HiCS_WT"
        assert HiCS(deviation="ks")._display_name() == "HiCS_KS"
        assert HiCS(deviation="cvm")._display_name() == "HiCS"

    def test_invalid_parameters(self):
        with pytest.raises(ParameterError):
            HiCS(n_iterations=0)
        with pytest.raises(ParameterError):
            HiCS(alpha=0.0)
        with pytest.raises(ParameterError):
            HiCS(candidate_cutoff=0)
        with pytest.raises(ParameterError):
            HiCS(max_output_subspaces=0)
        with pytest.raises(ParameterError):
            HiCS(max_dimensionality=1)

    @pytest.mark.parametrize("factor", [1e78, 1e100, 1e150, 2.0**480])
    def test_huge_finite_data_gives_the_unscaled_contrasts(self, factor):
        # Slicing is rank-based and every statistic scales exactly by a power
        # of two, so the contrasts must not move — and must not crash in the
        # Welch-Satterthwaite df, whose squares overflow from about 1e78 on.
        data = np.random.default_rng(5).normal(size=(300, 4))
        expected = HiCS(n_iterations=20, random_state=0).search(data)
        found = HiCS(n_iterations=20, random_state=0).search(data * factor)
        assert [s.subspace for s in found] == [s.subspace for s in expected]
        if np.log2(factor).is_integer():
            assert found == expected

    def test_requires_enough_data(self):
        with pytest.raises(Exception):
            HiCS(n_iterations=5).search(np.zeros((3, 3)))

    def test_synthetic_dataset_relevant_subspaces_score_high(self, small_synthetic):
        """On the paper-style synthetic dataset the planted subspaces (or their
        2-D projections) must appear near the top of the contrast ranking."""
        searcher = HiCS(n_iterations=40, random_state=0)
        result = searcher.search(small_synthetic.data)
        relevant_attrs = [set(s.attributes) for s in small_synthetic.relevant_subspaces]
        top_sets = [set(s.subspace.attributes) for s in result[:10]]
        hits = sum(
            1
            for top in top_sets
            if any(top.issubset(rel) or rel.issubset(top) for rel in relevant_attrs)
        )
        assert hits >= 3


def _nan_on_a_shifted_marginal(conditional_sample, marginal_sample):
    """Welch's deviation, except NaN when the marginal mean exceeds 5."""
    if marginal_sample.mean() > 5:
        return float("nan")
    return welch_deviation(conditional_sample, marginal_sample)


class TestNaNContrasts:
    @pytest.mark.parametrize("prune_redundant", [True, False])
    def test_nan_contrasts_never_displace_finite_ones(self, prune_redundant):
        # Attribute 1 follows attribute 0, which is then shifted by +10, so
        # every subspace holding attribute 0 scores NaN.  The best finite
        # pairs must survive the cutoff and lead the output.
        rng = np.random.default_rng(0)
        data = rng.normal(size=(400, 5))
        data[:, 1] = data[:, 0] + 0.1 * rng.normal(size=400)
        data[:, 0] += 10.0
        searcher = HiCS(
            n_iterations=20,
            candidate_cutoff=3,
            random_state=0,
            deviation=_nan_on_a_shifted_marginal,
            prune_redundant=prune_redundant,
        )
        result = searcher.search(data)
        evaluated = searcher.evaluated_subspaces_
        assert np.isnan(evaluated[Subspace((0, 1))])
        finite_pairs = [
            s for s, score in evaluated.items() if s.dimensionality == 2 and np.isfinite(score)
        ]
        best = sorted(finite_pairs, key=lambda s: -evaluated[s])[:3]
        assert [s.subspace for s in searcher.levels_[0]] == best
        assert result[0].subspace == best[0]
        assert not any(np.isnan(s.score) for s in result)
