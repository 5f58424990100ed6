"""Golden-equivalence suite: shared engine ≡ per-subspace reference, bit for bit.

The shared-neighborhood engine must reproduce the per-subspace reference
scores exactly — the same guarantee the batch contrast estimator gives
against its per-iteration oracle.  Every test here asserts ``np.array_equal``
(no tolerances) across scorers, joint and independent scoring modes, and the
full pipeline, on golden datasets that include duplicate points and exact
distance ties.
"""

from __future__ import annotations

import collections
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import (
    AdaptiveDensityScorer,
    HiCS,
    KNNDistanceScorer,
    LOFScorer,
    ORCAScorer,
    SubspaceOutlierPipeline,
    SubspaceOutlierRanker,
    generate_synthetic_dataset,
    make_pipeline_from_spec,
)
from repro.exceptions import DataError, ParameterError
from repro.neighbors import SharedNeighborEngine
from repro.neighbors import engine as engine_module
from repro.outliers import lof as lof_module
from repro.outliers.base import OutlierScorer
from repro.types import Subspace
from repro.utils import chunks as chunks_module

# --------------------------------------------------------------------- data


def _golden_datasets():
    """Name -> data matrix; covers random, duplicates and exact lattice ties."""
    rng = np.random.default_rng(42)
    random = rng.normal(size=(80, 8))
    duplicates = np.vstack(
        [rng.normal(size=(40, 8)), np.ones((10, 8)), np.ones((6, 8)) * 3.0]
    )
    duplicates[45] = duplicates[2]
    lattice = rng.integers(0, 3, size=(60, 8)).astype(float)
    return {"random": random, "duplicates": duplicates, "lattice": lattice}


GOLDEN = _golden_datasets()

#: Overlapping subspaces (shared dimensions and shared prefixes) plus the
#: full space — the shapes the engine's block/prefix cache is built for.
SUBSPACES = [
    Subspace((0, 1)),
    Subspace((0, 1, 2)),
    Subspace((0, 1, 3)),
    Subspace((2, 5)),
    Subspace((1, 4, 6)),
    None,
]

SCORERS = [
    ("lof", lambda: LOFScorer(min_pts=7)),
    ("knn-kth", lambda: KNNDistanceScorer(k=5)),
    ("knn-mean", lambda: KNNDistanceScorer(k=5, aggregate="mean")),
    ("adaptive", lambda: AdaptiveDensityScorer(n_neighbors=8)),
]


def _queries(data: np.ndarray) -> np.ndarray:
    rng = np.random.default_rng(7)
    queries = rng.normal(size=(9, data.shape[1]))
    queries[0] = data[3]  # an exact duplicate of a reference object
    queries[1] = data[0] + 1e-12  # a near-duplicate
    return queries


# ------------------------------------------------------------- scorer layer


@pytest.mark.parametrize("dataset", sorted(GOLDEN))
@pytest.mark.parametrize("name,factory", SCORERS, ids=[n for n, _ in SCORERS])
class TestScorerGoldenEquivalence:
    def test_score_batch_bit_for_bit(self, dataset, name, factory):
        data = GOLDEN[dataset]
        engine = SharedNeighborEngine(data)
        shared = factory().score_batch(data, SUBSPACES, engine=engine)
        reference = factory().score_batch(data, SUBSPACES, engine=None)
        for got, expected in zip(shared, reference):
            assert np.array_equal(got, expected)

    def test_score_samples_many_bit_for_bit(self, dataset, name, factory):
        data = GOLDEN[dataset]
        queries = _queries(data)
        shared_scorer, reference_scorer = factory().fit(data), factory().fit(data)
        shared = shared_scorer.score_samples_many(queries, SUBSPACES, engine="shared")
        reference = reference_scorer.score_samples_many(
            queries, SUBSPACES, engine="per-subspace"
        )
        default = reference_scorer.score_samples_many(queries, SUBSPACES)
        for got, expected, base in zip(shared, reference, default):
            assert np.array_equal(got, expected)
            assert np.array_equal(expected, base)

    def test_score_samples_independent_bit_for_bit(self, dataset, name, factory):
        data = GOLDEN[dataset]
        queries = _queries(data)
        shared_scorer, reference_scorer = factory().fit(data), factory().fit(data)
        shared = shared_scorer.score_samples_independent(
            queries, SUBSPACES, engine="shared"
        )
        reference = reference_scorer.score_samples_independent(queries, SUBSPACES)
        for got, expected in zip(shared, reference):
            assert np.array_equal(got, expected)

    def test_pruned_search_and_one_row_bands_bit_for_bit(
        self, dataset, name, factory, monkeypatch
    ):
        # One-row distance bands and the pruned kNN search, forced on short
        # data; results must not change by a single bit.
        data = GOLDEN[dataset]
        monkeypatch.setattr(chunks_module, "_CHUNK_CELLS", 1)
        monkeypatch.setattr(engine_module, "_DENSE_MAX_ROWS", 0)
        engine = SharedNeighborEngine(data)
        shared = factory().score_batch(data, SUBSPACES[:3], engine=engine)
        reference = factory().score_batch(data, SUBSPACES[:3], engine=None)
        for got, expected in zip(shared, reference):
            assert np.array_equal(got, expected)


class TestScorerEdgeCases:
    def test_lof_min_pts_larger_than_reference_falls_back_exactly(self):
        data = np.random.default_rng(0).normal(size=(6, 4))
        queries = data[:3] + 0.1
        shared, reference = LOFScorer(min_pts=50).fit(data), LOFScorer(min_pts=50).fit(data)
        a = shared.score_samples_independent(queries, [None, Subspace((0, 2))], engine="shared")
        b = reference.score_samples_independent(queries, [None, Subspace((0, 2))])
        for got, expected in zip(a, b):
            assert np.array_equal(got, expected)

    def test_single_row_query_independent(self):
        data = GOLDEN["duplicates"]
        one = data[11:12]
        shared, reference = LOFScorer(min_pts=6).fit(data), LOFScorer(min_pts=6).fit(data)
        a = shared.score_samples_independent(one, SUBSPACES, engine="shared")
        b = reference.score_samples_independent(one, SUBSPACES)
        for got, expected in zip(a, b):
            assert np.array_equal(got, expected)

    def test_orca_passes_through_base_protocol(self):
        data = GOLDEN["random"]
        engine = SharedNeighborEngine(data)
        a = ORCAScorer(k=5, random_state=3).score_batch(data, SUBSPACES[:2], engine=engine)
        b = ORCAScorer(k=5, random_state=3).score_batch(data, SUBSPACES[:2])
        for got, expected in zip(a, b):
            assert np.array_equal(got, expected)

    @pytest.mark.parametrize(
        "factory",
        [lambda: LOFScorer(min_pts=5), lambda: KNNDistanceScorer(k=5),
         lambda: AdaptiveDensityScorer(n_neighbors=5)],
        ids=["lof", "knn", "adaptive"],
    )
    def test_engine_over_other_data_of_the_same_height_rejected(self, factory):
        # An engine answers for the data it was built over; handed other data
        # of the same shape, it would score that data with the wrong points.
        rng = np.random.default_rng(0)
        data, other = rng.normal(size=(50, 3)), rng.normal(size=(50, 3))
        subspaces = [Subspace((0, 1))]
        with pytest.raises(DataError, match="other data"):
            factory().score_batch(data, subspaces, engine=SharedNeighborEngine(other))
        # An engine over an equal copy of the data answers for it.
        copied = factory().score_batch(data, subspaces, engine=SharedNeighborEngine(data.copy()))
        assert np.array_equal(copied[0], factory().score_batch(data, subspaces)[0])

    def test_unknown_engine_mode_rejected(self):
        scorer = LOFScorer().fit(GOLDEN["random"])
        with pytest.raises(ParameterError):
            scorer.score_samples_many(GOLDEN["random"][:2], [None], engine="warp")

    def test_legacy_scorer_override_without_engine_kwargs_still_works(self):
        """Custom scorers predating the engine keywords must keep working."""
        from repro.outliers.base import OutlierScorer

        class LegacyScorer(OutlierScorer):
            name = "legacy"

            def score(self, data, subspace=None):
                return np.asarray(data[:, 0], dtype=float)

            def score_samples_many(self, data, subspaces):  # pre-engine signature
                reference = self.reference_data_
                combined = np.vstack([reference, data])
                return [
                    self.score(combined, subspace=s)[reference.shape[0] :]
                    for s in subspaces
                ]

        dataset = generate_synthetic_dataset(n_objects=60, n_dims=6, random_state=0)
        pipeline = SubspaceOutlierPipeline(
            HiCS(n_iterations=5, candidate_cutoff=10, max_output_subspaces=4, random_state=0),
            LegacyScorer(),
            engine="shared",
        ).fit(dataset)
        queries = dataset.data[:4]
        assert np.array_equal(
            pipeline.score_samples(queries), queries[:, 0].astype(float)
        )
        assert np.array_equal(
            pipeline.score_samples(queries, independent=True),
            queries[:, 0].astype(float),
        )


# ------------------------------------------------------------ ranker layer


class TestRankerGoldenEquivalence:
    @pytest.mark.parametrize("name,factory", SCORERS, ids=[n for n, _ in SCORERS])
    def test_rank_bit_for_bit(self, name, factory):
        data = GOLDEN["duplicates"]
        subspaces = [s for s in SUBSPACES if s is not None]
        shared = SubspaceOutlierRanker(factory(), engine="shared").rank(data, subspaces)
        reference = SubspaceOutlierRanker(factory(), engine="per-subspace").rank(
            data, subspaces
        )
        assert np.array_equal(shared.scores, reference.scores)

    def test_engine_mode_validation(self):
        with pytest.raises(ParameterError):
            SubspaceOutlierRanker(LOFScorer(), engine="warp")


class TestDefaultScorersStayOnTheEngine:
    """Default scorers answer from the engine at every size.

    Past 20,000 rows, ``algorithm="auto"`` once meant a KD-tree for subspaces
    of up to 4 attributes, and the whole rank or request then left the
    engine.  A spy on the engine's query methods pins that it no longer does.
    """

    @pytest.fixture(scope="class")
    def data(self):
        return np.random.default_rng(3).normal(size=(20_001, 3))

    @pytest.fixture
    def calls(self, monkeypatch):
        counts = {"kneighbors": 0, "query_distances": 0}

        def spy(name):
            original = getattr(SharedNeighborEngine, name)

            def counted(self, *args, **kwargs):
                counts[name] += 1
                return original(self, *args, **kwargs)

            return counted

        for name in counts:
            monkeypatch.setattr(SharedNeighborEngine, name, spy(name))
        return counts

    @pytest.mark.parametrize("factory", [LOFScorer, KNNDistanceScorer], ids=["lof", "knn"])
    def test_rank(self, data, calls, factory):
        ranking = SubspaceOutlierRanker(factory()).rank(data, [Subspace((0, 2))])
        assert calls == {"kneighbors": 1, "query_distances": 0}
        assert np.all(np.isfinite(ranking.scores))

    @pytest.mark.parametrize(
        "factory, expected",
        [
            (LOFScorer, {"kneighbors": 1, "query_distances": 1}),
            (KNNDistanceScorer, {"kneighbors": 0, "query_distances": 1}),
        ],
        ids=["lof", "knn"],
    )
    def test_independent_scoring(self, data, calls, factory, expected):
        scorer = factory().fit(data)
        scores = scorer.score_samples_independent(
            data[:4] + 0.01, [Subspace((0, 2))], engine="shared"
        )
        assert calls == expected
        assert np.all(np.isfinite(scores[0]))


# ------------------------------------------------------- local LOF update


def _definitional_lof(data, queries, subspaces, k):
    """LOF on ``reference + [q]`` for each query: the base-class reference loop."""
    scorer = LOFScorer(min_pts=k).fit(data)
    return OutlierScorer.score_samples_independent(scorer, queries, subspaces)


def _assert_local_update_exact(data, queries, subspaces, k):
    """The local update equals the reference loop, as a batch and row by row."""
    scorer = LOFScorer(min_pts=k).fit(data)
    batch = scorer.score_samples_independent(queries, subspaces, engine="shared")
    for got, expected in zip(batch, _definitional_lof(data, queries, subspaces, k)):
        assert np.array_equal(got, expected)
    for i in range(queries.shape[0]):
        alone = scorer.score_samples_independent(queries[i : i + 1], subspaces, engine="shared")
        assert np.array_equal(np.concatenate(alone), [scores[i] for scores in batch])


def _affected_and_changed(data, query, attributes, k):
    """A (rows whose k-distance the query beats) and C (A plus its reverse kNN),
    straight from the definitions, to show which case a test exercises."""
    engine = SharedNeighborEngine(data)
    knn = engine.kneighbors(k, attributes)
    distances = engine.query_distances(query[None, :], attributes)[0]
    affected = set(np.flatnonzero(distances < knn.distances[:, -1]).tolist())
    changed = affected | {
        row for row in range(data.shape[0]) if affected & set(knn.indices[row].tolist())
    }
    return distances, knn, affected, changed


def _mixed_queries(data, rng, n_random):
    """Reference rows, 1e-12 and 1e-300 offsets of them, 1-ulp scalings, far
    points, a repeated row and fresh draws."""
    n, d = data.shape
    picks = rng.integers(0, n, size=4)
    return np.vstack(
        [
            data[picks],
            data[picks[:2]] + 1e-12,
            data[picks[2:]] + 1e-300,
            data[picks[:2]] * (1.0 + 2.0**-52),
            np.full((1, d), 1e3),
            data[picks[:1]],
            rng.normal(size=(n_random, d)),
        ]
    )


class TestLocalLOFUpdateGolden:
    """``LOFScorer.score_samples_independent`` scores a query from the rows its
    insertion changes.  Every case is ``np.array_equal`` to the reference
    loop, which runs LOF on ``reference + [q]`` for each query."""

    @pytest.mark.parametrize("n", [400, 2000])
    def test_reference_sizes(self, n):
        rng = np.random.default_rng(n)
        data = rng.normal(size=(n, 5))
        queries = _mixed_queries(data, rng, 2)
        _assert_local_update_exact(
            data, queries, [Subspace((0, 1)), Subspace((1, 3, 4))], k=10
        )

    def test_query_distance_ties_a_k_distance(self):
        rng = np.random.default_rng(21)
        data = rng.integers(0, 4, size=(300, 3)).astype(float)
        queries = np.vstack([rng.integers(0, 4, size=(6, 3)), rng.integers(0, 8, size=(4, 3)) / 2.0])
        k = 6
        ties = 0
        for query in queries:
            distances, knn, _, _ = _affected_and_changed(data, query, (0, 1, 2), k)
            ties += int(np.count_nonzero(distances == knn.distances[:, -1]))
        assert ties > 0  # the tie rule is exercised: q loses, the list stays
        _assert_local_update_exact(data, queries, [None, Subspace((0, 2))], k)

    def test_far_points_change_no_list(self):
        rng = np.random.default_rng(4)
        data = rng.normal(size=(500, 3))
        queries = np.array([[40.0, 0.0, 0.0], [0.0, -60.0, 5.0], [1e6, 1e6, 1e6]])
        for query in queries:
            assert not _affected_and_changed(data, query, None, 10)[2]
        _assert_local_update_exact(data, queries, [None, Subspace((1,))], k=10)

    def test_floor_binds_and_comes_from_an_unchanged_row(self):
        # 30 copies of one point have mean reach 0, so the floor binds; the
        # isolated point holds the largest mean reach and lies outside C.
        rng = np.random.default_rng(8)
        data = np.vstack([rng.normal(size=(200, 2)), np.full((30, 2), 5.0), [[-40.0, -40.0]]])
        k = 8
        engine = SharedNeighborEngine(data)
        knn = engine.kneighbors(k)
        mean_reach = lof_module._mean_reach(knn.distances[:, -1][knn.indices], knn.distances)
        assert mean_reach[200] == 0.0 and int(np.argmax(mean_reach)) == 230
        queries = np.array([[5.0 + 1e-3, 5.0], [5.0, 5.0 - 1e-9], [5.0, 5.0], [4.0, 4.5]])
        for query in queries:
            assert 230 not in _affected_and_changed(data, query, None, k)[3]
        _assert_local_update_exact(data, queries, [None, Subspace((0,))], k)

    @pytest.mark.parametrize("k", [1, 39], ids=["min_pts=1", "min_pts=n-1"])
    def test_min_pts_extremes(self, k):
        rng = np.random.default_rng(k)
        data = np.vstack([rng.normal(size=(34, 3)), np.zeros((6, 3))])
        queries = _mixed_queries(data, rng, 3)
        _assert_local_update_exact(data, queries, [None, Subspace((0, 2)), Subspace((1,))], k)

    def test_one_attribute_subspaces_and_full_space(self):
        rng = np.random.default_rng(12)
        data = rng.normal(size=(300, 5))
        data[:20, 3] = 0.5  # ties along one attribute
        queries = _mixed_queries(data, rng, 3)
        _assert_local_update_exact(
            data, queries, [Subspace((0,)), Subspace((3,)), None], k=10
        )

    @pytest.fixture(scope="class")
    def batch_case(self):
        rng = np.random.default_rng(64)
        data = rng.normal(size=(400, 4))
        queries = np.vstack([_mixed_queries(data, rng, 0)] * 4 + [rng.normal(size=(28, 4))])[:64]
        subspaces = [Subspace((0, 1)), Subspace((2,)), None]
        return data, queries, subspaces, _definitional_lof(data, queries, subspaces, 10)

    @pytest.mark.parametrize("size", [1, 8, 64])
    def test_batches(self, batch_case, size):
        data, queries, subspaces, expected = batch_case
        scorer = LOFScorer(min_pts=10).fit(data)
        rows = np.arange(size) * (64 // size)
        got = scorer.score_samples_independent(queries[rows], subspaces, engine="shared")
        for scores, want in zip(got, expected):
            assert np.array_equal(scores, want[rows])

    @given(
        n=st.integers(min_value=12, max_value=300),
        dims=st.integers(min_value=1, max_value=4),
        lattice=st.booleans(),
        k_draw=st.integers(min_value=1, max_value=20),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_property(self, n, dims, lattice, k_draw, seed):
        rng = np.random.default_rng(seed)
        if lattice:
            data = rng.integers(0, 3, size=(n, dims)).astype(float)
            fresh = rng.integers(0, 5, size=(3, dims)) / 2.0
        else:
            data = rng.normal(size=(n, dims))
            fresh = rng.normal(size=(3, dims))
        queries = np.vstack([data[rng.integers(0, n, size=3)], fresh])
        k = min(k_draw, n - 1)
        _assert_local_update_exact(data, queries, [None, Subspace((dims - 1,))], k)

    def test_gathered_row_means_equal_the_rows_in_place(self):
        # The local update averages gathered (m, k) rows where LOF averages
        # the rows of the (n + 1, k) matrix; NumPy reduces each row alike.
        rng = np.random.default_rng(2)
        for k in range(1, 41):
            for n_rows in (1, 2, 3, 17, 256, 2001):
                scale = 10.0 ** rng.integers(-6, 6, size=(n_rows, 1))
                matrix = rng.random((n_rows, k)) * scale
                rows = rng.integers(0, n_rows, size=min(n_rows, 9))
                assert np.array_equal(matrix[rows].mean(axis=1), matrix.mean(axis=1)[rows])

    def test_overflowing_query_scores_inf_and_leaves_the_rest(self):
        # A query whose squared distances overflow has an infinite mean
        # reach-distance: it scores +inf, where the floor once became inf and
        # every score 0/0 = NaN.
        rng = np.random.default_rng(1)
        data = rng.normal(size=(300, 4))
        queries = np.array([[1e200, 0.0, 0.0, 0.0], [1e160, 0.0, 0.0, 0.0], [0.1, 0.2, 0.3, 0.4]])
        tame = queries.copy()
        tame[:2, 0] = 0.0
        subspaces = [Subspace((0, 1)), Subspace((2, 3))]
        scorer = LOFScorer(min_pts=10).fit(data)
        with np.errstate(over="ignore"):
            for engine in ("shared", None):
                scores = scorer.score_samples_independent(queries, subspaces, engine=engine)
                assert np.array_equal(scores[0][:2], [np.inf, np.inf])
                untouched = scorer.score_samples_independent(tame, subspaces, engine=engine)
                assert np.array_equal(scores[0][2:], untouched[0][2:])
                assert np.array_equal(scores[1], untouched[1])

    def test_overflowing_reference_row(self):
        # A reference row with an infinite mean reach-distance is left out
        # of the floor and of the descending order; a query on top of it
        # joins its list.
        rng = np.random.default_rng(6)
        data = rng.normal(size=(200, 3))
        data[7, 0] = 1e200
        queries = np.vstack([data[[7, 3]], data[7] + [0.0, 0.5, 0.0], rng.normal(size=(2, 3))])
        with np.errstate(over="ignore"):
            _assert_local_update_exact(data, queries, [None, Subspace((0, 2)), Subspace((1,))], 5)

    def test_overflowing_query_scores_inf_through_the_pipeline(self):
        dataset, shared, _ = _fitted_pipelines(lambda: LOFScorer(min_pts=8))
        shared.fit(dataset)
        queries = dataset.data[:3].copy()
        queries[1] = 1e200
        with np.errstate(over="ignore"):
            scores = shared.score_samples(queries, independent=True)
        assert scores[1] == np.inf
        assert np.array_equal(
            scores[[0, 2]], shared.score_samples(queries[[0, 2]], independent=True)
        )


# ---------------------------------------------------------- pipeline layer


def _fitted_pipelines(scorer_factory, **kwargs):
    dataset = generate_synthetic_dataset(
        n_objects=150, n_dims=10, n_relevant_subspaces=3, random_state=1
    )
    searcher = dict(
        n_iterations=8, candidate_cutoff=25, max_output_subspaces=8, random_state=0
    )
    shared = SubspaceOutlierPipeline(
        HiCS(**searcher), scorer_factory(), engine="shared", **kwargs
    )
    reference = SubspaceOutlierPipeline(
        HiCS(**searcher), scorer_factory(), engine="per-subspace", **kwargs
    )
    return dataset, shared, reference


class TestPipelineGoldenEquivalence:
    @pytest.mark.parametrize("name,factory", SCORERS, ids=[n for n, _ in SCORERS])
    def test_fit_rank_and_score_samples_bit_for_bit(self, name, factory):
        dataset, shared, reference = _fitted_pipelines(factory)
        assert np.array_equal(
            shared.fit_rank(dataset).scores, reference.fit_rank(dataset).scores
        )
        queries = _queries(dataset.data)
        assert np.array_equal(
            shared.score_samples(queries), reference.score_samples(queries)
        )
        assert np.array_equal(
            shared.score_samples(queries, independent=True),
            reference.score_samples(queries, independent=True),
        )

    def test_pruned_route_and_small_blocks_do_not_change_scores(self, monkeypatch):
        # One-row distance bands, the pruned kNN search and independent
        # queries scored one per block, against the defaults.
        dataset, shared, _ = _fitted_pipelines(lambda: LOFScorer(min_pts=8))
        _, constrained, _ = _fitted_pipelines(lambda: LOFScorer(min_pts=8))
        queries = _queries(dataset.data)
        a = shared.fit_rank(dataset).scores
        independent = shared.score_samples(queries, independent=True)
        monkeypatch.setattr(chunks_module, "_CHUNK_CELLS", 1)
        monkeypatch.setattr(engine_module, "_DENSE_MAX_ROWS", 0)
        monkeypatch.setattr(lof_module, "_QUERY_BLOCK_BYTES", 1)
        assert np.array_equal(a, constrained.fit_rank(dataset).scores)
        assert np.array_equal(
            independent, constrained.score_samples(queries, independent=True)
        )

    def test_streaming_reuses_reference_engine(self):
        dataset, shared, _ = _fitted_pipelines(lambda: LOFScorer(min_pts=8))
        shared.fit(dataset)
        queries = _queries(dataset.data)
        shared.score_samples(queries, independent=True)
        engine = shared.scorer._reference_engine_
        assert isinstance(engine, SharedNeighborEngine)
        shared.score_samples(queries[:2], independent=True)
        assert shared.scorer._reference_engine_ is engine

    def test_engine_parameter_validation(self):
        with pytest.raises(ParameterError):
            SubspaceOutlierPipeline(engine="warp")


class TestPersistenceAndSpecs:
    def test_save_load_preserves_engine_and_scores(self, tmp_path):
        dataset, shared, reference = _fitted_pipelines(lambda: LOFScorer(min_pts=8))
        shared.fit(dataset)
        reference.fit(dataset)
        queries = _queries(dataset.data)
        path = str(tmp_path / "model.npz")
        shared.save(path)
        loaded = SubspaceOutlierPipeline.load(path)
        assert loaded.engine == "shared"
        assert np.array_equal(loaded.score_samples(queries), shared.score_samples(queries))
        reference.save(path)
        loaded = SubspaceOutlierPipeline.load(path)
        assert loaded.engine == "per-subspace"
        assert np.array_equal(
            loaded.score_samples(queries), reference.score_samples(queries)
        )

    def test_payload_without_engine_defaults_to_shared(self):
        payload = SubspaceOutlierPipeline().to_dict()
        assert payload["engine"] == "shared"
        del payload["engine"]
        assert SubspaceOutlierPipeline.from_dict(payload).engine == "shared"

    def test_spec_grammar_engine_segment(self):
        pipeline = make_pipeline_from_spec("hics+lof+average+shared")
        assert pipeline.engine == "shared"
        pipeline = make_pipeline_from_spec("hics+per-subspace")
        assert pipeline.engine == "per-subspace"
        pipeline = make_pipeline_from_spec("hics+lof+per_subspace")
        assert pipeline.engine == "per-subspace"

    def test_spec_engine_round_trips_through_render(self):
        from repro import parse_spec

        spec = parse_spec("hics(alpha=0.2)+knn(k=5)+max+shared")
        assert spec.engine is not None
        assert parse_spec(spec.render()) == spec

    def test_spec_with_retired_memory_budget(self):
        # The engine's retired budget is accepted and dropped: the spec
        # renders and round-trips without it, and scores as if it never
        # carried one.
        from repro import parse_spec

        spec = parse_spec("hics+lof+shared(memory_budget_mb=64)")
        assert spec == parse_spec("hics+lof+shared")
        assert spec.render() == "hics+lof+shared"
        assert parse_spec(spec.render()) == spec
        fast = "hics(n_iterations=8, candidate_cutoff=25, random_state=0)+lof(min_pts=8)"
        legacy = make_pipeline_from_spec(fast + "+shared(memory_budget_mb=64)")
        survivor = make_pipeline_from_spec(fast)
        assert not hasattr(legacy, "memory_budget_mb")
        data = GOLDEN["duplicates"]
        assert np.array_equal(legacy.fit_rank(data).scores, survivor.fit_rank(data).scores)

    def test_spec_rejects_bad_engine_usage(self):
        with pytest.raises(ParameterError):
            make_pipeline_from_spec("hics+lof+shared+per-subspace")
        with pytest.raises(ParameterError):
            make_pipeline_from_spec("hics+lof+shared(bogus=1)")
        with pytest.raises(ParameterError):
            make_pipeline_from_spec("pca+lof+shared")


# ------------------------------------------------------- concurrent scoring


class TestConcurrentWarmScoring:
    def test_threaded_independent_scoring_matches_serial_bit_for_bit(self):
        """N threads hammering the warm engine must reproduce serial scores.

        The serving host funnels every scoring pass through a single-writer
        executor, but the engine's internal lock must make direct concurrent
        use safe too — same scores, no torn caches.
        """
        import concurrent.futures

        dataset, shared, _ = _fitted_pipelines(lambda: LOFScorer(min_pts=8))
        shared.fit(dataset)
        rng = np.random.default_rng(11)
        batches = [
            rng.normal(size=(rng.integers(1, 7), dataset.n_dims)) for _ in range(24)
        ]
        batches[0] = dataset.data[:1].copy()  # exact duplicate of a reference row
        shared.score_samples(batches[0], independent=True)  # warm the caches
        serial = [shared.score_samples(batch, independent=True) for batch in batches]

        def score(index):
            return index, shared.score_samples(batches[index], independent=True)

        with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
            threaded = dict(pool.map(score, list(range(len(batches))) * 3))
        for index, expected in enumerate(serial):
            assert np.array_equal(threaded[index], expected)

    def test_single_writer_executor_serialises_scoring(self):
        """Routing every pass through SingleWriterExecutor (the serving-host
        discipline) is bit-identical to calling the pipeline directly."""
        from repro.parallel import SingleWriterExecutor

        dataset, shared, _ = _fitted_pipelines(lambda: LOFScorer(min_pts=8))
        shared.fit(dataset)
        queries = _queries(dataset.data)
        direct = shared.score_samples(queries, independent=True)
        with SingleWriterExecutor(name="test-writer") as writer:
            futures = [
                writer.submit(shared.score_samples, queries[i : i + 1], independent=True)
                for i in range(len(queries))
            ]
            via_writer = np.concatenate([f.result() for f in futures])
        assert np.array_equal(via_writer, direct)


class TestLocalUpdatePlanLifetime:
    """The local-update plan is built once per subspace, beside the reference
    engine, and lives and dies with it."""

    @pytest.fixture
    def builds(self, monkeypatch):
        """Counts of ``_prepare_subspace`` calls, by subspace attributes."""
        counts = collections.Counter()
        lock = threading.Lock()
        original = lof_module._prepare_subspace

        def counted(engine, attributes, k):
            with lock:
                counts[attributes] += 1
            return original(engine, attributes, k)

        monkeypatch.setattr(lof_module, "_prepare_subspace", counted)
        return counts

    @staticmethod
    def _once_per_subspace(pipeline):
        selected = pipeline.subspaces_[: pipeline.ranker.max_subspaces]
        return collections.Counter(
            None if s is None else s.attributes for s in dict.fromkeys(selected)
        )

    def test_cold_pipeline_scored_by_eight_threads_at_once(self, builds):
        import concurrent.futures

        dataset, serial_pipeline, _ = _fitted_pipelines(lambda: LOFScorer(min_pts=8))
        serial_pipeline.fit(dataset)
        cold = _fitted_pipelines(lambda: LOFScorer(min_pts=8))[1]
        cold.fit(dataset)
        rng = np.random.default_rng(5)
        batches = [rng.normal(size=(1 + i % 4, dataset.n_dims)) for i in range(8)]
        batches[0] = dataset.data[:2].copy()
        serial = [serial_pipeline.score_samples(b, independent=True) for b in batches]
        builds.clear()
        assert cold.scorer._reference_engine_ is None  # nothing is warm yet
        barrier = threading.Barrier(8)

        def score(index):
            barrier.wait(timeout=30)
            return cold.score_samples(batches[index], independent=True)

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
                threaded = list(pool.map(score, range(8), timeout=120))
        finally:
            sys.setswitchinterval(previous)
        for got, expected in zip(threaded, serial):
            assert np.array_equal(got, expected)
        assert builds == self._once_per_subspace(cold)

    def test_close_drops_the_plan_and_the_next_call_rebuilds_it(self, builds):
        dataset, pipeline, _ = _fitted_pipelines(lambda: LOFScorer(min_pts=8))
        pipeline.fit(dataset)
        queries = _queries(dataset.data)
        first = pipeline.score_samples(queries, independent=True)
        assert builds == self._once_per_subspace(pipeline)
        pipeline.close()
        assert pipeline.scorer._reference_preparation_ is None
        builds.clear()
        assert np.array_equal(pipeline.score_samples(queries, independent=True), first)
        assert builds == self._once_per_subspace(pipeline)

    def test_plan_is_read_only(self):
        data = GOLDEN["random"]
        scorer = LOFScorer(min_pts=7).fit(data)
        scorer.score_samples_independent(data[:2], SUBSPACES, engine="shared")
        plan = scorer._reference_preparation_[2]
        for name in ("indices", "distances", "kth", "mean_reach", "order", "reverse_rows"):
            with pytest.raises(ValueError):
                getattr(plan, name)[0] = 0
