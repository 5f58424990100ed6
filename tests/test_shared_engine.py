"""Golden-equivalence suite: shared engine ≡ per-subspace reference, bit for bit.

The shared-neighborhood engine must reproduce the per-subspace reference
scores exactly — the same guarantee the batch contrast estimator gives
against its per-iteration oracle.  Every test here asserts ``np.array_equal``
(no tolerances) across scorers, joint and independent scoring modes, and the
full pipeline, on golden datasets that include duplicate points and exact
distance ties.
"""

from __future__ import annotations

import numpy as np
import pytest

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
from repro.exceptions import ParameterError
from repro.neighbors import SharedNeighborEngine
from repro.types import Subspace

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

    def test_tiny_memory_budget_bit_for_bit(self, dataset, name, factory):
        # A budget too small to cache a single block forces the chunked
        # assembly path; results must not change by a single bit.
        data = GOLDEN[dataset]
        engine = SharedNeighborEngine(data, memory_budget_mb=0.001)
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

    def test_memory_budget_does_not_change_scores(self):
        dataset, shared, _ = _fitted_pipelines(lambda: LOFScorer(min_pts=8))
        constrained = SubspaceOutlierPipeline(
            HiCS(n_iterations=8, candidate_cutoff=25, max_output_subspaces=8, random_state=0),
            LOFScorer(min_pts=8),
            engine="shared",
            memory_budget_mb=0.001,
        )
        a = shared.fit_rank(dataset).scores
        b = constrained.fit_rank(dataset).scores
        assert np.array_equal(a, b)
        queries = _queries(dataset.data)
        assert np.array_equal(
            shared.score_samples(queries, independent=True),
            constrained.score_samples(queries, independent=True),
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
        with pytest.raises(ParameterError):
            SubspaceOutlierPipeline(memory_budget_mb=0.0)


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
        del payload["memory_budget_mb"]
        assert SubspaceOutlierPipeline.from_dict(payload).engine == "shared"

    def test_spec_grammar_engine_segment(self):
        pipeline = make_pipeline_from_spec("hics+lof+average+shared(memory_budget_mb=32)")
        assert pipeline.engine == "shared"
        assert pipeline.memory_budget_mb == 32
        pipeline = make_pipeline_from_spec("hics+per-subspace")
        assert pipeline.engine == "per-subspace"
        pipeline = make_pipeline_from_spec("hics+lof+per_subspace")
        assert pipeline.engine == "per-subspace"

    def test_spec_engine_round_trips_through_render(self):
        from repro import parse_spec

        spec = parse_spec("hics(alpha=0.2)+knn(k=5)+max+shared(memory_budget_mb=64)")
        assert spec.engine is not None
        assert parse_spec(spec.render()) == spec

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
