"""Tests for the fit/score split and fitted-pipeline persistence."""

from __future__ import annotations

import gc
import warnings

import numpy as np
import pytest

from repro.baselines import FullSpaceSearcher
from repro.cli import build_parser
from repro.dataset import generate_synthetic_dataset
from repro.exceptions import DataError, NotFittedError, ParameterError
from repro.outliers import KNNDistanceScorer, LOFScorer, local_outlier_factor
from repro.pipeline import PipelineConfig, SubspaceOutlierPipeline, make_method_pipeline
from repro.registry import component_from_dict, component_to_dict, make_searcher, parse_spec
from repro.subspaces import HiCS
from repro.types import ScoredSubspace, Subspace


def _fast_hics() -> HiCS:
    return HiCS(n_iterations=10, candidate_cutoff=30, max_output_subspaces=10, random_state=0)


class TestScorerFitScore:
    def test_score_samples_requires_fit(self):
        with pytest.raises(NotFittedError):
            LOFScorer().score_samples(np.zeros((3, 2)))

    def test_score_samples_matches_concatenated_score(self, small_synthetic):
        reference, new = small_synthetic.data[:200], small_synthetic.data[200:]
        scorer = LOFScorer(min_pts=8).fit(reference)
        expected = scorer.score(np.vstack([reference, new]))[200:]
        assert np.array_equal(scorer.score_samples(new), expected)

    def test_dimensionality_mismatch_rejected(self, small_synthetic):
        scorer = LOFScorer().fit(small_synthetic.data)
        with pytest.raises(DataError):
            scorer.score_samples(small_synthetic.data[:, :3])

    def test_score_samples_many_matches_individual_calls(self, small_synthetic):
        scorer = LOFScorer(min_pts=8).fit(small_synthetic.data[:200])
        new = small_synthetic.data[200:]
        subspaces = [None, Subspace((0, 1)), Subspace((2, 3, 4))]
        many = scorer.score_samples_many(new, subspaces)
        for result, subspace in zip(many, subspaces):
            assert np.array_equal(result, scorer.score_samples(new, subspace=subspace))


class TestBatchVsIndependentScoring:
    def test_independent_mode_resists_duplicate_burst_masking(self):
        rng = np.random.default_rng(0)
        reference = rng.normal(0.0, 0.05, size=(150, 4))
        outlier = np.full((1, 4), 3.0)
        burst = np.repeat(outlier, 25, axis=0)  # 25 near-identical anomalies

        pipeline = SubspaceOutlierPipeline(
            searcher=FullSpaceSearcher(), scorer=LOFScorer(min_pts=10)
        ).fit(reference)

        alone = pipeline.score_samples(outlier)[0]
        joint = pipeline.score_samples(burst)
        independent = pipeline.score_samples(burst, independent=True)
        # Jointly scored, the burst forms its own dense cluster and masks
        # itself; independently scored, every copy keeps the standalone score.
        assert joint[0] < alone
        assert np.allclose(independent, alone)

    def test_rank_forwards_independent_flag(self, small_synthetic):
        pipeline = SubspaceOutlierPipeline(
            searcher=FullSpaceSearcher(), scorer=LOFScorer(min_pts=8)
        ).fit(small_synthetic)
        batch = small_synthetic.data[:6]
        via_rank = pipeline.rank(batch, independent=True).scores
        direct = pipeline.score_samples(batch, independent=True)
        assert np.array_equal(via_rank, direct)


class TestSearcherFit:
    def test_fit_records_search_result(self, small_synthetic):
        searcher = _fast_hics()
        assert searcher.fit(small_synthetic.data) is searcher
        assert searcher.scored_subspaces_
        assert searcher.subspaces_ == [s.subspace for s in searcher.scored_subspaces_]

    def test_subspaces_requires_fit(self):
        with pytest.raises(NotFittedError):
            _ = _fast_hics().subspaces_

    def test_pipeline_fit_goes_through_searcher_fit(self, small_synthetic):
        pipeline = SubspaceOutlierPipeline(searcher=_fast_hics(), scorer=LOFScorer(min_pts=8))
        pipeline.fit(small_synthetic)
        assert pipeline.searcher.subspaces_ == pipeline.subspaces_


class TestPipelineFitScore:
    def test_fit_returns_self_and_stores_state(self, small_synthetic):
        pipeline = SubspaceOutlierPipeline(searcher=_fast_hics(), scorer=LOFScorer(min_pts=8))
        assert pipeline.fit(small_synthetic) is pipeline
        assert pipeline.is_fitted
        assert pipeline.scored_subspaces_
        assert pipeline.reference_data_.shape == small_synthetic.data.shape

    def test_score_samples_requires_fit(self, small_synthetic):
        pipeline = SubspaceOutlierPipeline(searcher=_fast_hics())
        with pytest.raises(NotFittedError):
            pipeline.score_samples(small_synthetic.data[:5])
        with pytest.raises(NotFittedError):
            pipeline.rank(small_synthetic.data[:5])

    def test_score_samples_does_not_rerun_search(self, small_synthetic, monkeypatch):
        pipeline = SubspaceOutlierPipeline(searcher=_fast_hics(), scorer=LOFScorer(min_pts=8))
        pipeline.fit(small_synthetic)

        def boom(data):
            raise AssertionError("search must not run during scoring")

        monkeypatch.setattr(pipeline.searcher, "search", boom)
        scores = pipeline.score_samples(small_synthetic.data[:7])
        assert scores.shape == (7,)

    def test_full_space_pipeline_scores_against_reference(self, small_synthetic):
        reference, new = small_synthetic.data[:200], small_synthetic.data[200:]
        pipeline = SubspaceOutlierPipeline(
            searcher=FullSpaceSearcher(), scorer=LOFScorer(min_pts=8)
        )
        pipeline.fit(reference)
        expected = local_outlier_factor(np.vstack([reference, new]), min_pts=8)[200:]
        assert np.allclose(pipeline.score_samples(new), expected)

    def test_rank_new_points_metadata(self, small_synthetic):
        pipeline = SubspaceOutlierPipeline(searcher=_fast_hics(), scorer=LOFScorer(min_pts=8))
        pipeline.fit(small_synthetic)
        result = pipeline.rank(small_synthetic.data[:9])
        assert result.n_objects == 9
        assert result.metadata["n_reference_objects"] == small_synthetic.n_objects
        assert result.metadata["n_subspaces"] == len(result.subspaces)

    def test_dimensionality_mismatch_rejected(self, small_synthetic):
        pipeline = SubspaceOutlierPipeline(searcher=_fast_hics()).fit(small_synthetic)
        with pytest.raises(DataError):
            pipeline.score_samples(small_synthetic.data[:, :4])

    def test_fit_rank_equals_fit_plus_in_sample_ranking(self, small_synthetic):
        one_shot = SubspaceOutlierPipeline(searcher=_fast_hics(), scorer=LOFScorer(min_pts=8))
        result = one_shot.fit_rank(small_synthetic)
        two_step = SubspaceOutlierPipeline(searcher=_fast_hics(), scorer=LOFScorer(min_pts=8))
        two_step.fit(small_synthetic)
        rescored = two_step.ranker.rank(small_synthetic.data, two_step.subspaces_)
        assert np.array_equal(result.scores, rescored.scores)


class TestEmptySubspaceFallback:
    class EmptySearcher(FullSpaceSearcher):
        """A degenerate searcher that never finds a subspace."""

        def search(self, data):
            return []

    def test_fit_rank_falls_back_to_full_space(self, small_synthetic):
        pipeline = SubspaceOutlierPipeline(
            searcher=self.EmptySearcher(), scorer=LOFScorer(min_pts=8)
        )
        result = pipeline.fit_rank(small_synthetic)
        expected = local_outlier_factor(small_synthetic.data, min_pts=8)
        assert np.allclose(result.scores, expected)
        assert result.metadata["fallback_full_space"] is True
        assert result.metadata["n_found_subspaces"] == 0
        # scored_subspaces_ keeps the raw (empty) search result; the fallback
        # only shows up in the subspaces actually used for scoring.
        assert pipeline.scored_subspaces_ == []
        assert pipeline.subspaces_ == [Subspace(range(small_synthetic.n_dims))]

    def test_score_samples_works_after_fallback(self, small_synthetic):
        pipeline = SubspaceOutlierPipeline(
            searcher=self.EmptySearcher(), scorer=LOFScorer(min_pts=8)
        )
        pipeline.fit(small_synthetic)
        assert pipeline.fallback_full_space_
        scores = pipeline.score_samples(small_synthetic.data[:5])
        assert scores.shape == (5,) and np.all(np.isfinite(scores))

    def test_fallback_pipeline_survives_save_load(self, small_synthetic, tmp_path, monkeypatch):
        # A registered searcher type (required for save) whose search finds nothing.
        searcher = FullSpaceSearcher()
        monkeypatch.setattr(searcher, "search", lambda data: [])
        pipeline = SubspaceOutlierPipeline(
            searcher=searcher, scorer=LOFScorer(min_pts=8)
        ).fit(small_synthetic)
        path = tmp_path / "fallback.npz"
        pipeline.save(path)
        restored = SubspaceOutlierPipeline.load(path)
        assert restored.fallback_full_space_
        assert restored.scored_subspaces_ == []
        assert np.array_equal(
            restored.score_samples(small_synthetic.data[:5]),
            pipeline.score_samples(small_synthetic.data[:5]),
        )


class TestConfigRoundTrip:
    def test_pipeline_config_to_from_dict(self):
        config = PipelineConfig(min_pts=7, hics_alpha=0.25, extra={"note": "x"})
        assert PipelineConfig.from_dict(config.to_dict()) == config

    def test_unknown_key_rejected(self):
        with pytest.raises(ParameterError, match="unknown"):
            PipelineConfig.from_dict({"min_pts": 5, "bogus": 1})

    def test_pipeline_to_from_dict(self):
        pipeline = SubspaceOutlierPipeline(
            searcher=HiCS(n_iterations=6, alpha=0.2, random_state=4),
            scorer=KNNDistanceScorer(k=6),
            aggregation="max",
            max_subspaces=12,
        )
        rebuilt = SubspaceOutlierPipeline.from_dict(pipeline.to_dict())
        assert isinstance(rebuilt.searcher, HiCS)
        assert rebuilt.searcher.n_iterations == 6
        assert rebuilt.scorer.k == 6
        assert rebuilt.ranker.aggregation == "max"
        assert rebuilt.ranker.max_subspaces == 12

    def test_callable_aggregation_not_serialisable(self):
        pipeline = SubspaceOutlierPipeline(aggregation=lambda m: m.mean(axis=0))
        with pytest.raises(ParameterError):
            pipeline.to_dict()

    def test_from_dict_rejects_foreign_payload(self):
        with pytest.raises(ParameterError):
            SubspaceOutlierPipeline.from_dict({"format": "something-else"})


class TestSaveLoad:
    def test_save_requires_fit(self, tmp_path):
        with pytest.raises(NotFittedError):
            SubspaceOutlierPipeline(searcher=_fast_hics()).save(tmp_path / "m.npz")

    def test_save_load_reproduces_scores_bit_for_bit(self, small_synthetic, tmp_path):
        reference, new = small_synthetic.data[:220], small_synthetic.data[220:]
        pipeline = SubspaceOutlierPipeline(
            searcher=_fast_hics(), scorer=LOFScorer(min_pts=8), max_subspaces=6
        )
        pipeline.fit(reference)
        before = pipeline.score_samples(new)
        path = tmp_path / "model.npz"
        pipeline.save(path)
        restored = SubspaceOutlierPipeline.load(path)
        assert np.array_equal(restored.score_samples(new), before)
        assert restored.subspaces_ == pipeline.subspaces_
        assert [s.score for s in restored.scored_subspaces_] == [
            s.score for s in pipeline.scored_subspaces_
        ]
        assert restored.ranker.max_subspaces == 6

    def test_load_rejects_non_model_file(self, tmp_path):
        path = tmp_path / "not_a_model.npz"
        np.savez(path, data=np.zeros((3, 2)))
        with pytest.raises(DataError):
            SubspaceOutlierPipeline.load(path)

    def test_load_rejects_truncated_zip(self, tmp_path):
        path = tmp_path / "corrupt.npz"
        path.write_bytes(b"PK\x03\x04" + b"garbage")
        with pytest.raises(DataError):
            SubspaceOutlierPipeline.load(path)

    def test_torn_model_file_raises_without_leaking_its_handle(self, small_synthetic, tmp_path):
        pipeline = SubspaceOutlierPipeline(searcher=_fast_hics(), scorer=LOFScorer(min_pts=8))
        pipeline.fit(small_synthetic)
        path = tmp_path / "torn.npz"
        pipeline.save(path)
        raw = path.read_bytes()
        for cut in (30, len(raw) // 2, len(raw) - 10):
            path.write_bytes(raw[:cut])
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                with pytest.raises(DataError):
                    SubspaceOutlierPipeline.load(path)
                gc.collect()
            leaks = [w for w in caught if issubclass(w.category, ResourceWarning)]
            assert not leaks, f"cut at {cut} of {len(raw)} bytes: {leaks[0].message}"

    def test_load_rejects_non_numeric_header_fields(self, small_synthetic, tmp_path):
        pipeline = SubspaceOutlierPipeline(searcher=_fast_hics(), scorer=LOFScorer(min_pts=8))
        pipeline.fit(small_synthetic)
        good = tmp_path / "good.npz"
        pipeline.save(good)
        for field, value in (
            ("format_version", "two"),
            ("subspace_scores", ["x"] * len(pipeline.scored_subspaces_)),
            ("pipeline", {"format": "repro-pipeline", "max_subspaces": "abc"}),
            ("pipeline", {"format": "repro-pipeline"}),  # missing searcher/scorer
        ):
            bad = tmp_path / f"bad_{field}.npz"
            self._tamper_header(good, bad, lambda h, f=field, v=value: h.__setitem__(f, v))
            with pytest.raises((DataError, ParameterError)):
                SubspaceOutlierPipeline.load(bad)

    def test_load_rejects_missing_file(self, tmp_path):
        with pytest.raises(DataError):
            SubspaceOutlierPipeline.load(tmp_path / "missing.npz")

    @staticmethod
    def _tamper_header(src, dst, mutate):
        """Rewrite a saved model with a mutated JSON header."""
        import json

        with np.load(src, allow_pickle=False) as archive:
            header = json.loads(str(archive["header"][()]))
            reference = np.asarray(archive["reference_data"])
        mutate(header)
        with open(dst, "wb") as handle:
            np.savez(handle, header=np.array(json.dumps(header)), reference_data=reference)

    def test_load_rejects_out_of_range_subspace(self, small_synthetic, tmp_path):
        pipeline = SubspaceOutlierPipeline(searcher=_fast_hics(), scorer=LOFScorer(min_pts=8))
        pipeline.fit(small_synthetic)
        good, bad = tmp_path / "good.npz", tmp_path / "bad.npz"
        pipeline.save(good)
        self._tamper_header(
            good, bad, lambda h: h["subspaces"].__setitem__(0, [0, small_synthetic.n_dims])
        )
        with pytest.raises(DataError, match="corrupt"):
            SubspaceOutlierPipeline.load(bad)

    def test_load_rejects_mismatched_subspace_scores(self, small_synthetic, tmp_path):
        pipeline = SubspaceOutlierPipeline(searcher=_fast_hics(), scorer=LOFScorer(min_pts=8))
        pipeline.fit(small_synthetic)
        good, bad = tmp_path / "good.npz", tmp_path / "bad.npz"
        pipeline.save(good)
        self._tamper_header(good, bad, lambda h: h["subspace_scores"].pop())
        with pytest.raises(DataError, match="corrupt"):
            SubspaceOutlierPipeline.load(bad)

    def test_loaded_pipeline_preserves_subspace_order(self, small_synthetic, tmp_path):
        pipeline = SubspaceOutlierPipeline(searcher=_fast_hics(), scorer=LOFScorer(min_pts=8))
        pipeline.fit(small_synthetic)
        path = tmp_path / "model.npz"
        pipeline.save(path)
        restored = SubspaceOutlierPipeline.load(path)
        assert all(
            isinstance(item, ScoredSubspace) for item in restored.scored_subspaces_
        )
        assert restored.subspaces_ == pipeline.subspaces_


class TestAtomicSave:
    """A crash mid-save must never leave a torn model file behind."""

    def _fitted(self, small_synthetic) -> SubspaceOutlierPipeline:
        pipeline = SubspaceOutlierPipeline(searcher=_fast_hics(), scorer=LOFScorer(min_pts=8))
        return pipeline.fit(small_synthetic)

    def test_interrupted_save_leaves_old_model_loadable(
        self, small_synthetic, tmp_path, monkeypatch
    ):
        import repro.pipeline.pipeline as pipeline_module

        pipeline = self._fitted(small_synthetic)
        path = tmp_path / "model.npz"
        pipeline.save(path)
        expected = SubspaceOutlierPipeline.load(path).score_samples(
            small_synthetic.data[:5]
        )

        def torn_savez(handle, **arrays):
            # Fail *after* a partial write — the half-archive must land in the
            # staging file, never in the published path.
            handle.write(b"PK\x03\x04 torn half-written archive")
            raise OSError("disk full")

        monkeypatch.setattr(pipeline_module.np, "savez", torn_savez)
        with pytest.raises(OSError, match="disk full"):
            pipeline.save(path)
        monkeypatch.undo()

        restored = SubspaceOutlierPipeline.load(path)
        assert np.array_equal(
            restored.score_samples(small_synthetic.data[:5]), expected
        )

    def test_interrupted_save_leaves_no_staging_files(
        self, small_synthetic, tmp_path, monkeypatch
    ):
        import repro.pipeline.pipeline as pipeline_module

        pipeline = self._fitted(small_synthetic)
        path = tmp_path / "model.npz"
        pipeline.save(path)

        def torn_savez(handle, **arrays):
            handle.write(b"partial")
            raise OSError("disk full")

        monkeypatch.setattr(pipeline_module.np, "savez", torn_savez)
        with pytest.raises(OSError):
            pipeline.save(path)
        monkeypatch.undo()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["model.npz"]

    def test_successful_save_leaves_no_staging_files(self, small_synthetic, tmp_path):
        pipeline = self._fitted(small_synthetic)
        path = tmp_path / "model.npz"
        pipeline.save(path)
        pipeline.save(path)  # overwrite goes through the same staging dance
        assert sorted(p.name for p in tmp_path.iterdir()) == ["model.npz"]

    def test_overwrite_publishes_new_model(self, small_synthetic, tmp_path):
        pipeline = self._fitted(small_synthetic)
        path = tmp_path / "model.npz"
        pipeline.save(path)
        shifted = small_synthetic.data + 0.25
        pipeline.fit(shifted)
        pipeline.save(path)
        restored = SubspaceOutlierPipeline.load(path)
        assert np.array_equal(restored.reference_data_, shifted)


class TestPipelineLifecycle:
    def test_close_keeps_pipeline_fitted_and_scores_bit_identical(self, small_synthetic):
        pipeline = SubspaceOutlierPipeline(
            searcher=_fast_hics(), scorer=LOFScorer(min_pts=8)
        ).fit(small_synthetic)
        new = small_synthetic.data[:7]
        before = pipeline.score_samples(new, independent=True)
        assert pipeline.scorer._reference_engine_ is not None
        pipeline.close()
        assert pipeline.scorer._reference_engine_ is None
        assert pipeline.is_fitted
        assert np.array_equal(pipeline.score_samples(new, independent=True), before)

    def test_close_is_idempotent_and_context_manager_closes(self, small_synthetic):
        with SubspaceOutlierPipeline(
            searcher=_fast_hics(), scorer=LOFScorer(min_pts=8)
        ) as pipeline:
            pipeline.fit(small_synthetic)
            pipeline.close()
        assert pipeline.scorer._reference_engine_ is None


class TestRetiredNamesKeepLoading:
    """Names of removed runtime paths map to the path that computes the same bits.

    ``streaming`` was a row-blocked scoring engine identical to ``shared``;
    HiCS's ``engine=scalar`` was a per-iteration contrast engine identical to
    the batch one; ``memory_budget_mb`` sized the shared engine's former
    ``n x n`` buffer.  Model files, payloads, spec strings and configs written
    with them load and reproduce the survivor's scores exactly.
    """

    @pytest.fixture(scope="class")
    def data(self):
        return generate_synthetic_dataset(
            n_objects=150, n_dims=6, n_relevant_subspaces=2, random_state=4
        ).data

    def test_saved_pipeline_with_streaming_engine(self, data, tmp_path):
        import json

        pipeline = SubspaceOutlierPipeline(_fast_hics(), LOFScorer(min_pts=8)).fit(data)
        path = str(tmp_path / "model.npz")
        pipeline.save(path)
        # Rewrite the header the way files were saved before the removals:
        # the scoring engine named, HiCS carrying its engine parameter, the
        # engine's memory budget recorded.
        with np.load(path) as archive:
            header = json.loads(str(archive["header"][()]))
            reference = archive["reference_data"]
        assert "memory_budget_mb" not in header["pipeline"]
        header["pipeline"]["engine"] = "streaming"
        header["pipeline"]["searcher"]["params"]["engine"] = "batch"
        header["pipeline"]["memory_budget_mb"] = 64.0
        np.savez(path, header=np.array(json.dumps(header)), reference_data=reference)

        loaded = SubspaceOutlierPipeline.load(path)
        assert loaded.engine == loaded.ranker.engine == "shared"
        assert "memory_budget_mb" not in loaded.to_dict()
        query = data[:12] + 0.01
        for independent in (False, True):
            assert np.array_equal(
                loaded.score_samples(query, independent=independent),
                pipeline.score_samples(query, independent=independent),
            )

    def test_hics_payload_with_scalar_engine(self, data):
        payload = component_to_dict(_fast_hics(), "searcher")
        payload["params"]["engine"] = "scalar"
        searcher = component_from_dict(payload, "searcher")
        assert searcher.search(data) == _fast_hics().search(data)

    def test_spec_with_scalar_contrast_and_streaming_engine(self, data):
        text = "hics(engine=scalar)+lof+streaming(memory_budget_mb=512)"
        spec = parse_spec(text)
        assert spec.render() == "hics(engine='scalar')+lof+streaming"
        assert parse_spec(spec.render()) == spec
        legacy = make_method_pipeline(text)
        survivor = make_method_pipeline("hics+lof")
        assert legacy.engine == "shared"
        assert legacy.to_dict() == survivor.to_dict()
        assert np.array_equal(legacy.fit_rank(data).scores, survivor.fit_rank(data).scores)

    def test_pipeline_config_streaming_engine(self, data):
        def config(engine):
            return PipelineConfig(hics_iterations=10, hics_cutoff=20, scoring_engine=engine)

        legacy = make_method_pipeline("HiCS", config("streaming"))
        survivor = make_method_pipeline("HiCS", config("shared"))
        assert legacy.engine == "shared"
        assert np.array_equal(legacy.fit_rank(data).scores, survivor.fit_rank(data).scores)

    def test_pipeline_config_dict_with_memory_budget(self, data):
        survivor = PipelineConfig(hics_iterations=10, hics_cutoff=20)
        legacy = PipelineConfig.from_dict({**survivor.to_dict(), "memory_budget_mb": 64.0})
        assert legacy == survivor
        assert np.array_equal(
            make_method_pipeline("HiCS", legacy).fit_rank(data).scores,
            make_method_pipeline("HiCS", survivor).fit_rank(data).scores,
        )


class TestRetiredNJobs:
    """``n_jobs=N`` was sugar for ``backend="process(n_jobs=N)"``.

    The backend is now the one execution knob.  Model files, spec strings and
    config dicts that still carry ``n_jobs`` load with it folded into the
    backend, and reproduce the ``backend=`` spelling exactly.
    """

    BACKEND = "process(n_jobs=2)"

    @pytest.fixture(scope="class")
    def data(self):
        return generate_synthetic_dataset(
            n_objects=150, n_dims=6, n_relevant_subspaces=2, random_state=4
        ).data

    def test_saved_pipeline_with_n_jobs(self, data, tmp_path):
        import json

        searcher = HiCS(
            n_iterations=10,
            candidate_cutoff=30,
            max_output_subspaces=10,
            random_state=0,
            backend=self.BACKEND,
        )
        pipeline = SubspaceOutlierPipeline(searcher, LOFScorer(min_pts=8))
        expected = pipeline.fit_rank(data).scores
        path = str(tmp_path / "model.npz")
        pipeline.save(path)
        # Rewrite the header the way files were saved with the sugar.
        with np.load(path) as archive:
            header = json.loads(str(archive["header"][()]))
            reference = archive["reference_data"]
        params = header["pipeline"]["searcher"]["params"]
        params["backend"] = None
        params["n_jobs"] = 2
        np.savez(path, header=np.array(json.dumps(header)), reference_data=reference)

        with SubspaceOutlierPipeline.load(path) as loaded:
            assert loaded.searcher.backend == self.BACKEND
            assert "n_jobs" not in loaded.to_dict()["searcher"]["params"]
            query = data[:12] + 0.01
            assert np.array_equal(loaded.score_samples(query), pipeline.score_samples(query))
            assert np.array_equal(loaded.fit_rank(data).scores, expected)

    def test_spec_with_n_jobs(self, data):
        legacy = make_method_pipeline("hics(n_jobs=2, random_state=0)+lof")
        survivor = make_method_pipeline(f"hics(backend={self.BACKEND}, random_state=0)+lof")
        assert legacy.searcher.backend == survivor.searcher.backend == self.BACKEND
        with legacy, survivor:
            assert np.array_equal(legacy.fit_rank(data).scores, survivor.fit_rank(data).scores)
            assert legacy.searcher.evaluated_subspaces_ == survivor.searcher.evaluated_subspaces_

    def test_config_dict_with_n_jobs(self, data):
        fields = {"hics_iterations": 10, "hics_cutoff": 20, "min_pts": 8}
        legacy = PipelineConfig.from_dict({**fields, "n_jobs": 2})
        survivor = PipelineConfig(backend=self.BACKEND, **fields)
        assert legacy == survivor
        with make_method_pipeline("HiCS", legacy) as a, make_method_pipeline(
            "HiCS", survivor
        ) as b:
            assert np.array_equal(a.fit_rank(data).scores, b.fit_rank(data).scores)

    def test_n_jobs_one_maps_to_serial(self):
        assert make_searcher("hics", n_jobs=1).backend == "serial"
        assert PipelineConfig.from_dict({"n_jobs": 1}).backend == "serial"
        # A backend that pins its own workers wins over the retired sugar.
        pinned = make_searcher("hics", n_jobs=4, backend="thread(n_jobs=2)")
        assert pinned.backend == "thread(n_jobs=2)"
        with pytest.raises(ParameterError):
            make_searcher("hics", n_jobs=0)
        with pytest.raises(TypeError):
            HiCS(n_jobs=2)

    @pytest.mark.parametrize(
        "argv",
        [
            ["rank", "--dataset", "toy-correlated"],
            ["fit", "--dataset", "toy-correlated", "--out", "model.npz"],
            ["contrast", "--dataset", "toy-correlated"],
            ["compare", "--dataset", "toy-correlated"],
            ["bench"],
        ],
    )
    def test_cli_rejects_n_jobs(self, argv, capsys):
        build_parser().parse_args(argv + ["--backend", self.BACKEND])
        with pytest.raises(SystemExit):
            build_parser().parse_args(argv + ["--n-jobs", "2"])
        assert "unrecognized arguments: --n-jobs" in capsys.readouterr().err


class TestRetiredKNNAlgorithms:
    """``kdtree`` and ``shared`` were exact kNN backends; ``subsample`` was not.

    The exact names resolve to ``auto`` wherever they appear — constructor,
    spec string, saved model — and reproduce its scores bit for bit (a
    KD-tree could order exact distance ties differently; the survivor keeps
    the brute-force order).  No exact path reproduces the approximate
    ``subsample`` scores, so that name is rejected with the same error
    everywhere.
    """

    @pytest.fixture(scope="class")
    def data(self):
        data = generate_synthetic_dataset(
            n_objects=150, n_dims=6, n_relevant_subspaces=2, random_state=4
        ).data
        data[7] = data[8]  # an exact distance tie
        return data

    @staticmethod
    def _save_with_algorithm(pipeline, path, algorithm):
        import json

        pipeline.save(path)
        # Rewrite the header the way files were saved before the removal.
        with np.load(path) as archive:
            header = json.loads(str(archive["header"][()]))
            reference = archive["reference_data"]
        header["pipeline"]["scorer"]["params"]["algorithm"] = algorithm
        np.savez(path, header=np.array(json.dumps(header)), reference_data=reference)

    def test_saved_pipeline_with_kdtree(self, data, tmp_path):
        pipeline = SubspaceOutlierPipeline(_fast_hics(), LOFScorer(min_pts=8)).fit(data)
        path = str(tmp_path / "model.npz")
        self._save_with_algorithm(pipeline, path, "kdtree")

        with SubspaceOutlierPipeline.load(path) as loaded:
            assert loaded.scorer.algorithm == "auto"
            assert loaded.to_dict()["scorer"]["params"]["algorithm"] == "auto"
            query = data[:12] + 0.01
            for independent in (False, True):
                assert np.array_equal(
                    loaded.score_samples(query, independent=independent),
                    pipeline.score_samples(query, independent=independent),
                )

    def test_spec_with_shared(self, data):
        legacy = make_method_pipeline("hics(random_state=0)+lof(algorithm='shared')")
        survivor = make_method_pipeline("hics(random_state=0)+lof")
        assert legacy.scorer.algorithm == "auto"
        with legacy, survivor:
            assert np.array_equal(legacy.fit_rank(data).scores, survivor.fit_rank(data).scores)

    @pytest.mark.parametrize("factory", [LOFScorer, KNNDistanceScorer], ids=["lof", "knn"])
    def test_constructor_with_kdtree(self, data, factory):
        legacy, survivor = factory(algorithm="kdtree"), factory()
        assert legacy.algorithm == "auto"
        for subspace in (None, Subspace((0, 1)), Subspace((2, 3, 4))):
            assert np.array_equal(legacy.score(data, subspace), survivor.score(data, subspace))

    def test_subsample_rejected_everywhere(self, data, tmp_path):
        message = "approximate subsample kNN backend was removed"
        for factory in (LOFScorer, KNNDistanceScorer):
            with pytest.raises(ParameterError, match=message):
                factory(algorithm="subsample")
        with pytest.raises(ParameterError, match=message):
            make_method_pipeline("hics(random_state=0)+lof(algorithm='subsample')")
        pipeline = SubspaceOutlierPipeline(_fast_hics(), LOFScorer(min_pts=8)).fit(data)
        path = str(tmp_path / "model.npz")
        self._save_with_algorithm(pipeline, path, "subsample")
        with pytest.raises(ParameterError, match=message):
            SubspaceOutlierPipeline.load(path)
