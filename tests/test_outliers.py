"""Unit and property tests for LOF, the kNN-distance score, aggregation and ranking."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.exceptions import DataError, ParameterError
from repro.neighbors import SharedEngineKNN, create_knn_searcher
from repro.outliers import (
    KNNDistanceScorer,
    LOFScorer,
    SubspaceOutlierRanker,
    aggregate_scores,
    available_aggregations,
    average_aggregation,
    knn_distance_score,
    local_outlier_factor,
    maximum_aggregation,
)
from repro.registry import make_pipeline_from_spec
from repro.types import Subspace

sklearn_neighbors = pytest.importorskip(
    "scipy.spatial", reason="scipy unavailable"
)  # scipy presence implies the numeric stack we compare against is intact


def _cluster_with_outlier(n: int = 60, seed: int = 0) -> np.ndarray:
    """A tight Gaussian cluster plus one far-away point (the last row)."""
    rng = np.random.default_rng(seed)
    cluster = rng.normal(0.0, 0.1, size=(n - 1, 2))
    return np.vstack([cluster, [5.0, 5.0]])


class TestLocalOutlierFactor:
    def test_outlier_has_highest_score(self):
        data = _cluster_with_outlier()
        scores = local_outlier_factor(data, min_pts=10)
        assert np.argmax(scores) == data.shape[0] - 1
        assert scores[-1] > 2.0

    def test_uniform_cluster_scores_near_one(self):
        rng = np.random.default_rng(1)
        data = rng.uniform(size=(300, 2))
        scores = local_outlier_factor(data, min_pts=10)
        # Objects inside a homogeneous distribution have LOF close to 1.
        assert 0.9 < np.median(scores) < 1.3

    def test_subspace_restriction_detects_hidden_outlier(self):
        rng = np.random.default_rng(2)
        n = 200
        # Outlier only in attributes (0, 1); attribute 2 is pure noise.
        base = rng.normal(0.5, 0.02, size=(n, 2))
        noise = rng.uniform(size=(n, 1))
        data = np.hstack([base, noise])
        data[-1, :2] = [0.9, 0.1]
        subspace_scores = local_outlier_factor(data, 10, Subspace((0, 1)))
        assert np.argmax(subspace_scores) == n - 1

    def test_against_sklearn_convention_duplicates(self):
        # Duplicate points must not produce NaN/inf scores.
        data = np.vstack([np.zeros((20, 2)), np.ones((20, 2))])
        scores = local_outlier_factor(data, min_pts=5)
        assert np.all(np.isfinite(scores))

    def test_overflowing_row_scores_inf_and_leaves_the_rest(self):
        # Squared distances of a finite row at 1e200 overflow, so its mean
        # reach-distance is inf; the floor is taken over finite means only,
        # and that row alone scores +inf.
        data = np.random.default_rng(0).normal(size=(300, 3))
        far = data.copy()
        far[0, 0] = 1e200
        with np.errstate(over="ignore"):
            scores = local_outlier_factor(far, 10)
        assert scores[0] == np.inf
        assert np.array_equal(scores[1:], local_outlier_factor(data[1:], 10))

    def test_min_pts_validation(self):
        data = np.random.default_rng(0).normal(size=(20, 2))
        with pytest.raises(ParameterError):
            local_outlier_factor(data, min_pts=20)
        with pytest.raises(ParameterError):
            local_outlier_factor(data, min_pts=0)

    def test_too_few_objects(self):
        with pytest.raises(DataError):
            local_outlier_factor(np.zeros((1, 2)), min_pts=1)

    def test_brute_and_auto_agree_on_tall_data(self):
        # 3345 rows is one past the engine's dense kNN route, so "auto"
        # answers with the pruned search.
        data = np.random.default_rng(3).uniform(size=(3345, 3))
        assert isinstance(create_knn_searcher(data), SharedEngineKNN)
        brute = local_outlier_factor(data, 8, algorithm="brute")
        auto = local_outlier_factor(data, 8, algorithm="auto")
        assert np.array_equal(brute, auto)

    @given(st.integers(min_value=2, max_value=15))
    @settings(max_examples=15, deadline=None)
    def test_property_scores_positive_finite(self, min_pts):
        rng = np.random.default_rng(min_pts)
        data = rng.normal(size=(80, 3))
        scores = local_outlier_factor(data, min_pts=min_pts)
        assert np.all(np.isfinite(scores))
        assert np.all(scores > 0.0)


class TestLOFScorer:
    def test_scorer_interface(self):
        data = _cluster_with_outlier()
        scorer = LOFScorer(min_pts=10)
        scores = scorer.score(data)
        assert scores.shape == (data.shape[0],)
        assert np.argmax(scores) == data.shape[0] - 1

    def test_small_dataset_clamps_min_pts(self):
        data = np.random.default_rng(0).normal(size=(5, 2))
        scores = LOFScorer(min_pts=50).score(data)
        assert scores.shape == (5,)

    def test_full_space_helper(self):
        data = _cluster_with_outlier()
        scorer = LOFScorer(min_pts=10)
        assert np.array_equal(scorer.score_full_space(data), scorer.score(data))

    def test_invalid_algorithm(self):
        with pytest.raises(ParameterError):
            LOFScorer(algorithm="annoy")


class TestKNNDistanceScore:
    def test_outlier_has_highest_score(self):
        data = _cluster_with_outlier()
        scores = knn_distance_score(data, k=10)
        assert np.argmax(scores) == data.shape[0] - 1

    def test_mean_aggregate_leq_kth(self):
        data = np.random.default_rng(0).normal(size=(100, 2))
        kth = knn_distance_score(data, k=5, aggregate="kth")
        mean = knn_distance_score(data, k=5, aggregate="mean")
        assert np.all(mean <= kth + 1e-12)

    def test_invalid_aggregate(self):
        with pytest.raises(ParameterError):
            knn_distance_score(np.zeros((10, 2)), k=2, aggregate="median")
        with pytest.raises(ParameterError):
            KNNDistanceScorer(aggregate="median")

    def test_k_too_large(self):
        with pytest.raises(ParameterError):
            knn_distance_score(np.zeros((5, 2)), k=5)

    def test_scorer_clamps_k(self):
        data = np.random.default_rng(0).normal(size=(4, 2))
        assert KNNDistanceScorer(k=50).score(data).shape == (4,)

    def test_subspace_restriction(self):
        data = np.array([[0.0, 100.0], [0.1, -100.0], [0.2, 0.0], [9.0, 0.1]])
        scores = knn_distance_score(data, k=1, subspace=Subspace((0,)))
        assert np.argmax(scores) == 3

    def test_invalid_algorithm_rejected_at_construction(self):
        with pytest.raises(ParameterError, match="algorithm"):
            KNNDistanceScorer(algorithm="nope")
        # The spec route builds the scorer before any search runs.
        with pytest.raises(ParameterError, match="algorithm"):
            make_pipeline_from_spec("hics+knn(algorithm=nope)")


class TestAggregation:
    def test_average(self):
        combined = aggregate_scores([np.array([1.0, 2.0]), np.array([3.0, 4.0])], "average")
        assert combined.tolist() == [2.0, 3.0]

    def test_maximum(self):
        combined = aggregate_scores([np.array([1.0, 5.0]), np.array([3.0, 4.0])], "max")
        assert combined.tolist() == [3.0, 5.0]

    def test_callable_aggregation(self):
        combined = aggregate_scores([np.array([1.0, 2.0])], lambda m: m.min(axis=0))
        assert combined.tolist() == [1.0, 2.0]

    def test_available_names(self):
        names = available_aggregations()
        assert "average" in names and "max" in names

    def test_unknown_name(self):
        with pytest.raises(ParameterError):
            aggregate_scores([np.array([1.0])], "median")

    def test_empty_list_rejected(self):
        with pytest.raises(DataError):
            aggregate_scores([], "average")

    def test_length_mismatch_rejected(self):
        with pytest.raises(DataError):
            aggregate_scores([np.array([1.0, 2.0]), np.array([1.0])], "average")

    def test_bad_callable_output_shape(self):
        with pytest.raises(DataError):
            aggregate_scores([np.array([1.0, 2.0])], lambda m: m)

    def test_direct_functions(self):
        matrix = np.array([[1.0, 4.0], [3.0, 2.0]])
        assert average_aggregation(matrix).tolist() == [2.0, 3.0]
        assert maximum_aggregation(matrix).tolist() == [3.0, 4.0]

    def test_average_is_batch_shape_stable(self):
        """A column aggregated alone must equal the same column in a batch.

        Regression test: ``mean(axis=0)`` switches between sequential and
        pairwise summation with the matrix layout, so an ``(s, 1)`` slice
        could differ in the last bit from the full ``(s, n)`` aggregation —
        which would break the serving guarantee that micro-batched scores
        are bit-identical to single-point scores.
        """
        rng = np.random.default_rng(123)
        # Scores at serving-realistic magnitudes; 8+ rows so pairwise
        # summation would actually re-associate.
        matrix = np.exp(rng.normal(size=(9, 33)) * 3.0)
        batch = average_aggregation(matrix)
        for column in range(matrix.shape[1]):
            alone = average_aggregation(np.ascontiguousarray(matrix[:, column : column + 1]))
            assert alone[0] == batch[column]
        for stop in (1, 2, 5, matrix.shape[1]):
            prefix = average_aggregation(np.ascontiguousarray(matrix[:, :stop]))
            assert np.array_equal(prefix, batch[:stop])

    @given(
        st.integers(min_value=1, max_value=5),
        st.integers(min_value=2, max_value=20),
    )
    @settings(max_examples=30)
    def test_property_average_between_min_and_max(self, n_subspaces, n_objects):
        rng = np.random.default_rng(n_subspaces * 100 + n_objects)
        vectors = [rng.uniform(size=n_objects) for _ in range(n_subspaces)]
        avg = aggregate_scores(vectors, "average")
        mx = aggregate_scores(vectors, "max")
        stacked = np.vstack(vectors)
        assert np.all(avg <= mx + 1e-12)
        assert np.all(avg >= stacked.min(axis=0) - 1e-12)

    def test_cumulative_outlierness(self):
        """Objects deviating in several subspaces must outrank single-subspace deviators.

        This is the paper's argument for the average aggregation (Sec. IV-C).
        """
        base = np.ones(4)
        scores_s1 = base.copy()
        scores_s2 = base.copy()
        scores_s1[0] = 3.0  # object 0 deviates in S1 only
        scores_s1[1] = 3.0  # object 1 deviates in S1 ...
        scores_s2[1] = 3.0  # ... and in S2
        combined = aggregate_scores([scores_s1, scores_s2], "average")
        assert combined[1] > combined[0]


class TestSubspaceOutlierRanker:
    def test_rank_with_subspaces(self, small_synthetic):
        ranker = SubspaceOutlierRanker(LOFScorer(min_pts=10))
        result = ranker.rank(small_synthetic.data, list(small_synthetic.relevant_subspaces))
        assert result.n_objects == small_synthetic.n_objects
        assert len(result.subspaces) == len(small_synthetic.relevant_subspaces)
        assert "runtime_sec" in result.metadata

    def test_empty_subspace_list_falls_back_to_full_space(self, small_synthetic):
        ranker = SubspaceOutlierRanker(LOFScorer(min_pts=10))
        result = ranker.rank(small_synthetic.data, [])
        assert result.metadata["n_subspaces"] == 0
        assert "full space" in result.method

    def test_max_subspaces_cap(self, small_synthetic):
        ranker = SubspaceOutlierRanker(LOFScorer(min_pts=5), max_subspaces=1)
        result = ranker.rank(small_synthetic.data, list(small_synthetic.relevant_subspaces))
        assert len(result.subspaces) == 1

    def test_rank_full_space_helper(self, small_synthetic):
        ranker = SubspaceOutlierRanker(LOFScorer(min_pts=10))
        result = ranker.rank_full_space(small_synthetic.data)
        assert result.n_objects == small_synthetic.n_objects

    def test_ranking_in_relevant_subspaces_beats_full_space(self, small_synthetic):
        """Scoring in the ground-truth subspaces must beat the full space (paper's premise)."""
        from repro.evaluation.metrics import roc_auc_score

        ranker = SubspaceOutlierRanker(LOFScorer(min_pts=10))
        subspace_auc = roc_auc_score(
            small_synthetic.labels,
            ranker.rank(small_synthetic.data, list(small_synthetic.relevant_subspaces)).scores,
        )
        full_auc = roc_auc_score(
            small_synthetic.labels, ranker.rank_full_space(small_synthetic.data).scores
        )
        assert subspace_auc >= full_auc

    def test_invalid_arguments(self):
        with pytest.raises(ParameterError):
            SubspaceOutlierRanker(scorer="LOF")
        with pytest.raises(ParameterError):
            SubspaceOutlierRanker(LOFScorer(), max_subspaces=0)
