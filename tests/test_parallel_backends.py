"""Golden tests for the unified execution-backend subsystem (:mod:`repro.parallel`).

The subsystem's contract is absolute: serial, thread and process execution —
under *any* start method — produce bit-for-bit identical results everywhere a
backend can be selected.  These tests pin that contract end-to-end (contrast
search, HiCS fits, experiment artifacts, cached cell payloads) along with the
plumbing: spec parsing, the retired ``n_jobs`` sugar, the chunk heuristic,
the shared-memory plane, persistence defaults and recovery from a killed
worker.
"""

from __future__ import annotations

import json
import os
import signal
import threading
from concurrent.futures.process import BrokenProcessPool
from itertools import combinations

import numpy as np
import pytest

from repro.exceptions import ParameterError
from repro.experiments import (
    ArtifactCache,
    DatasetSpec,
    ExperimentSpec,
    MethodSpec,
    run_experiment,
    strip_volatile,
)
from repro.parallel import (
    ExecutionBackend,
    ProcessBackend,
    SerialBackend,
    SharedArrayPlane,
    ThreadBackend,
    WorkerContext,
    attach_arrays,
    available_backends,
    check_backend_spec,
    default_chunksize,
    fold_n_jobs,
    make_backend,
    parse_backend_spec,
    register_backend,
    resolve_backend,
    resolve_n_jobs,
)
from repro.pipeline import PipelineConfig, SubspaceOutlierPipeline, make_method_pipeline
from repro.registry import make_searcher, parse_spec
from repro.subspaces import ContrastEstimator, HiCS
from repro.subspaces.hics import HiCS as HiCSClass
from repro.types import Subspace

#: Every backend the golden equivalence suite exercises.  ``fork`` is skipped
#: automatically where the platform does not provide it.
GOLDEN_BACKENDS = [
    "serial",
    "thread(n_jobs=2)",
    "process(n_jobs=2, start_method=spawn)",
    "process(n_jobs=2, start_method=fork)",
]


def _supported(spec: str) -> bool:
    import multiprocessing

    if "fork" not in spec:
        return True
    return "fork" in multiprocessing.get_all_start_methods()


@pytest.fixture(scope="module")
def mixed_data() -> np.ndarray:
    rng = np.random.default_rng(7)
    x = rng.uniform(size=(150, 1))
    return np.hstack(
        [
            x,
            x + rng.normal(0.0, 0.01, size=(150, 1)),
            rng.uniform(size=(150, 3)),
        ]
    )


# ------------------------------------------------------------ golden suite


class TestBackendEquivalence:
    def test_contrast_many_identical_across_backends(self, mixed_data):
        subspaces = [Subspace(p) for p in combinations(range(5), 2)]
        reference = ContrastEstimator(
            mixed_data, n_iterations=12, random_state=3, cache=False
        ).contrast_many(subspaces)
        for spec in GOLDEN_BACKENDS:
            if not _supported(spec):
                continue
            with ContrastEstimator(
                mixed_data, n_iterations=12, random_state=3, cache=False, backend=spec
            ) as estimator:
                assert estimator.contrast_many(subspaces) == reference, spec

    def test_hics_fit_scores_identical_across_backends(self, mixed_data):
        """A small end-to-end fit: search + LOF ranking, np.array_equal scores."""
        scores = {}
        for spec in GOLDEN_BACKENDS:
            if not _supported(spec):
                continue
            pipeline = SubspaceOutlierPipeline(
                searcher=HiCS(n_iterations=10, random_state=0, backend=spec),
            )
            scores[spec] = pipeline.fit_rank(mixed_data).scores
        reference = scores["serial"]
        for spec, values in scores.items():
            assert np.array_equal(values, reference), spec

    def test_n_jobs_sugar_equals_process_backend(self, mixed_data):
        """The retired sugar folds into the backend it always meant."""
        params = dict(n_iterations=10, random_state=1, cache=False)
        sugar = make_searcher("hics", n_jobs=2, **params)
        explicit = HiCS(backend="process(n_jobs=2)", **params)
        assert sugar.backend == explicit.backend
        sugar.search(mixed_data)
        explicit.search(mixed_data)
        assert sugar.evaluated_subspaces_ == explicit.evaluated_subspaces_

    def test_backend_instance_pool_is_reused_and_kept_open(self, mixed_data):
        """A caller-owned backend survives searches; the searcher only borrows it."""
        subspaces = [Subspace(p) for p in combinations(range(5), 2)]
        backend = ProcessBackend(n_jobs=2)
        try:
            first = HiCS(n_iterations=8, random_state=0, backend=backend).search(
                mixed_data
            )
            assert backend._executor is not None  # pool survived estimator.close()
            second = HiCS(n_iterations=8, random_state=0, backend=backend).search(
                mixed_data
            )
            assert [(s.subspace, s.score) for s in first] == [
                (s.subspace, s.score) for s in second
            ]
        finally:
            backend.close()


class TestExperimentBackendEquivalence:
    @staticmethod
    def _spec() -> ExperimentSpec:
        return ExperimentSpec(
            name="tiny-backend",
            figure="test",
            title="backend equivalence",
            datasets=(
                DatasetSpec(
                    label="d5",
                    kind="synthetic",
                    params={
                        "n_objects": 60,
                        "n_dims": 5,
                        "n_relevant_subspaces": 1,
                        "subspace_dims": [2],
                        "outliers_per_subspace": 3,
                        "random_state": 0,
                    },
                ),
            ),
            methods=(
                MethodSpec(label="LOF", method="LOF"),
                MethodSpec(label="HiCS", method="HiCS"),
            ),
            config={
                "min_pts": 5,
                "max_subspaces": 5,
                "hics_iterations": 5,
                "hics_cutoff": 5,
            },
        )

    #: Measured wall clocks are never byte-stable between two runs — not even
    #: serial vs serial — so the byte-identity contract excludes exactly these
    #: fields (the same projection benchmarks/check_figure_suite.py applies).
    ROW_TIMING_FIELDS = ("runtime_sec",)

    @classmethod
    def _stable_rows(cls, rows) -> list:
        return [
            {k: v for k, v in row.items() if k not in cls.ROW_TIMING_FIELDS}
            for row in rows
        ]

    @staticmethod
    def _cache_files(root: str) -> dict:
        files = {}
        for directory, _, names in os.walk(root):
            for name in names:
                path = os.path.join(directory, name)
                with open(path, "rb") as handle:
                    files[os.path.relpath(path, root)] = handle.read()
        return files

    def test_artifacts_and_cache_bytes_identical_across_backends(self, tmp_path):
        """One spec under serial / thread / process(spawn): byte-identical
        stripped artifacts AND byte-identical cached cell payloads."""
        artifacts, caches = {}, {}
        for label, backend in [
            ("serial", None),
            ("thread", "thread(n_jobs=2)"),
            ("spawn", "process(n_jobs=2, start_method=spawn)"),
        ]:
            cache = ArtifactCache(str(tmp_path / label))
            artifacts[label] = run_experiment(
                self._spec(), cache=cache, backend=backend
            )
            caches[label] = self._cache_files(str(tmp_path / label))
        reference = strip_volatile(artifacts["serial"])
        reference_rows = self._stable_rows(reference["rows"])
        reference_bytes = json.dumps(
            {**reference, "rows": reference_rows}, sort_keys=True
        )
        for label, artifact in artifacts.items():
            stripped = strip_volatile(artifact)
            rows = self._stable_rows(stripped["rows"])
            assert rows == reference_rows, label
            assert (
                json.dumps({**stripped, "rows": rows}, sort_keys=True)
                == reference_bytes
            ), label
        # Cached cell payloads: same content-addressed filenames under every
        # backend, and byte-identical result rows inside each file.
        names = sorted(caches["serial"])
        assert names, "serial run produced no cache entries"
        for label in ("thread", "spawn"):
            assert sorted(caches[label]) == names, label
            for name in names:
                serial_rows = self._stable_rows(json.loads(caches["serial"][name])["rows"])
                other_rows = self._stable_rows(json.loads(caches[label][name])["rows"])
                assert json.dumps(serial_rows, sort_keys=True) == json.dumps(
                    other_rows, sort_keys=True
                ), (label, name)

    def test_runner_backend_string_and_manifest(self):
        artifact = run_experiment(self._spec(), backend="process(n_jobs=2)")
        assert artifact["manifest"]["backend"] == "process(n_jobs=2)"
        serial = run_experiment(self._spec())
        assert serial["manifest"]["backend"] == "serial"
        assert self._stable_rows(strip_volatile(artifact)["rows"]) == self._stable_rows(
            strip_volatile(serial)["rows"]
        )


# ------------------------------------------------------------- ranker path


class TestPipelineBackendScope:
    def test_backend_configures_only_the_searcher(self, mixed_data):
        from repro.outliers import LOFScorer

        def fit_rank(backend):
            pipeline = SubspaceOutlierPipeline(
                searcher=HiCS(n_iterations=6, candidate_cutoff=6, random_state=0),
                scorer=LOFScorer(min_pts=5),
                engine="per-subspace",
                backend=backend,
            )
            with pipeline:
                return pipeline, pipeline.fit_rank(mixed_data)

        pipeline, parallel = fit_rank("process(n_jobs=2)")
        assert pipeline.searcher.backend == "process(n_jobs=2)"
        assert not hasattr(pipeline.ranker, "backend")
        assert np.array_equal(parallel.scores, fit_rank(None)[1].scores)


# ------------------------------------------------------------ spec surface


class TestBackendSpecs:
    def test_parse_backend_spec(self):
        assert parse_backend_spec("serial") == ("serial", {})
        assert parse_backend_spec("process(n_jobs=4)") == ("process", {"n_jobs": 4})
        name, params = parse_backend_spec(
            "process(n_jobs=2, start_method=spawn, chunksize=8)"
        )
        assert name == "process"
        assert params == {"n_jobs": 2, "start_method": "spawn", "chunksize": 8}

    @pytest.mark.parametrize(
        "bad",
        ["", "process(4)", "process(n_jobs=4", "nosuch", "process(**k)"],
    )
    def test_invalid_specs_rejected(self, bad):
        with pytest.raises(ParameterError):
            make_backend(bad)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ParameterError):
            make_backend("process(start_method=nosuch)")
        with pytest.raises(ParameterError):
            make_backend("process(chunksize=0)")
        with pytest.raises(ParameterError):
            make_backend("process(bogus=1)")

    def test_spec_rendering_round_trips(self):
        for spec in [
            "serial",
            "thread(n_jobs=3)",
            "process(n_jobs=2, start_method='spawn', chunksize=8)",
        ]:
            backend = make_backend(spec)
            rebuilt = make_backend(backend.spec())
            assert type(rebuilt) is type(backend)
            assert rebuilt.spec() == backend.spec()

    def test_make_backend_n_jobs_sugar(self):
        # n_jobs lives in the spec; a retired top-level n_jobs is folded
        # into the spec (fold_n_jobs) before make_backend sees it.
        assert make_backend(None).kind == "serial"
        with pytest.raises(TypeError):
            make_backend(None, n_jobs=3)
        assert fold_n_jobs({"alpha": 0.1}) == {"alpha": 0.1}
        assert fold_n_jobs({"n_jobs": 1}) == {"backend": "serial"}
        sugar = make_backend(fold_n_jobs({"n_jobs": 3, "backend": None})["backend"])
        assert sugar.kind == "process" and sugar.n_jobs == 3
        all_cores = make_backend(fold_n_jobs({"n_jobs": -1})["backend"])
        assert all_cores.n_jobs == resolve_n_jobs(-1)
        # A spec that pins n_jobs wins over the sugar value; one that does
        # not inherits it; serial and a live instance never change.
        pinned = fold_n_jobs({"n_jobs": 5, "backend": "process(n_jobs=2)"})
        assert make_backend(pinned["backend"]).n_jobs == 2
        assert fold_n_jobs({"n_jobs": 2, "backend": "thread"}) == {
            "backend": "thread(n_jobs=2)"
        }
        spawn = fold_n_jobs({"n_jobs": 2, "backend": "process(start_method=spawn)"})
        spawn = make_backend(spawn["backend"])
        assert (spawn.n_jobs, spawn.start_method) == (2, "spawn")
        assert fold_n_jobs({"n_jobs": 4, "backend": "serial"}) == {"backend": "serial"}
        assert fold_n_jobs({"n_jobs": 1, "backend": "thread"}) == {"backend": "thread"}
        instance = SerialBackend()
        assert fold_n_jobs({"n_jobs": 4, "backend": instance})["backend"] is instance
        for bad in (0, -2, 1.5):
            with pytest.raises(ParameterError):
                fold_n_jobs({"n_jobs": bad})

    def test_resolve_backend_ownership(self):
        constructed, owned = resolve_backend("serial")
        assert owned and constructed.kind == "serial"
        instance = SerialBackend()
        passed, owned = resolve_backend(instance)
        assert passed is instance and not owned

    def test_check_backend_spec(self):
        assert check_backend_spec(None) is None
        assert check_backend_spec("thread") == "thread"
        backend = ThreadBackend(n_jobs=1)
        assert check_backend_spec(backend) is backend
        with pytest.raises(ParameterError):
            check_backend_spec(42)
        with pytest.raises(ParameterError):
            check_backend_spec("process(nope=1)")

    def test_registry_lists_builtins_and_rejects_duplicates(self):
        assert set(available_backends()) >= {"serial", "thread", "process"}
        with pytest.raises(ParameterError):
            register_backend("serial", SerialBackend)

    def test_pipeline_spec_grammar_accepts_backend_calls(self):
        spec = parse_spec("hics(alpha=0.1, backend=process(n_jobs=4))+lof(min_pts=10)")
        assert spec.searcher.params["backend"] == "process(n_jobs=4)"
        pipeline = make_method_pipeline(
            "hics(n_iterations=5, backend=process(n_jobs=2))+lof(min_pts=5)"
        )
        assert pipeline.searcher.backend == "process(n_jobs=2)"

    def test_pipeline_config_injects_backend(self):
        config = PipelineConfig(backend="thread(n_jobs=2)")
        pipeline = make_method_pipeline("HiCS", config)
        assert pipeline.searcher.backend == "thread(n_jobs=2)"
        assert pipeline.backend == "thread(n_jobs=2)"

    def test_hics_rejects_bad_backend_early(self):
        with pytest.raises(ParameterError):
            HiCSClass(backend="bogus()")


# ------------------------------------------------------------- persistence


class TestBackendPersistence:
    def test_pipeline_to_dict_round_trips_backend(self):
        pipeline = SubspaceOutlierPipeline(
            searcher=HiCS(n_iterations=5, random_state=0, backend="thread(n_jobs=2)"),
            backend="process(n_jobs=2)",
        )
        payload = pipeline.to_dict()
        assert payload["backend"] == "process(n_jobs=2)"
        assert payload["searcher"]["params"]["backend"] == "thread(n_jobs=2)"
        rebuilt = SubspaceOutlierPipeline.from_dict(payload)
        assert rebuilt.backend == "process(n_jobs=2)"
        assert rebuilt.searcher.backend == "thread(n_jobs=2)"

    def test_old_payloads_default_to_serial(self):
        pipeline = SubspaceOutlierPipeline(searcher=HiCS(n_iterations=5))
        payload = pipeline.to_dict()
        del payload["backend"]  # a pre-backend payload
        payload["searcher"]["params"].pop("backend", None)
        rebuilt = SubspaceOutlierPipeline.from_dict(payload)
        assert rebuilt.backend is None

    def test_backend_instance_persisted_as_spec_string(self):
        backend = ProcessBackend(n_jobs=2, start_method="spawn")
        try:
            pipeline = SubspaceOutlierPipeline(
                searcher=HiCS(n_iterations=5), backend=backend
            )
            assert pipeline.to_dict()["backend"] == "process(n_jobs=2, start_method='spawn')"
        finally:
            backend.close()

    def test_fitted_pipeline_with_instance_backend_still_saves(self, mixed_data, tmp_path):
        """fit() must not copy a live pool object into the searcher's params:
        the fitted pipeline has to stay to_dict()/save()-able."""
        backend = ProcessBackend(n_jobs=2)
        try:
            pipeline = SubspaceOutlierPipeline(
                searcher=HiCS(n_iterations=5, random_state=0), backend=backend
            )
            pipeline.fit(mixed_data)
            assert pipeline.searcher.backend == "process(n_jobs=2)"
            payload = pipeline.to_dict()  # raised ParameterError before the fix
            assert payload["searcher"]["params"]["backend"] == "process(n_jobs=2)"
            path = str(tmp_path / "instance-backend.npz")
            pipeline.save(path)
            loaded = SubspaceOutlierPipeline.load(path)
            assert np.array_equal(
                loaded.score_samples(mixed_data[:5]),
                pipeline.score_samples(mixed_data[:5]),
            )
        finally:
            backend.close()

    def test_saved_fitted_pipeline_scores_identically(self, mixed_data, tmp_path):
        pipeline = SubspaceOutlierPipeline(
            searcher=HiCS(n_iterations=8, random_state=0),
            backend="process(n_jobs=2)",
        )
        pipeline.fit(mixed_data)
        path = str(tmp_path / "model.npz")
        pipeline.save(path)
        loaded = SubspaceOutlierPipeline.load(path)
        assert loaded.backend == "process(n_jobs=2)"
        query = mixed_data[:7]
        assert np.array_equal(
            loaded.score_samples(query), pipeline.score_samples(query)
        )


# ------------------------------------------------------------------ pieces


class TestContrastCacheThreadSafety:
    def test_concurrent_eviction_never_raises(self):
        """The thread backend shares one cache; eviction must tolerate races."""
        import threading

        from repro.subspaces import ContrastCache

        cache = ContrastCache(max_entries=8)
        errors = []

        def hammer(thread_id):
            try:
                for i in range(2000):
                    cache.put((thread_id, i), None)
                    cache.get((thread_id, i))
            except Exception as exc:  # pragma: no cover - the failure mode
                errors.append(exc)

        threads = [threading.Thread(target=hammer, args=(t,)) for t in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        assert len(cache) <= 8


class TestResolveNJobs:
    def test_all_cores(self):
        assert resolve_n_jobs(-1) >= 1

    def test_rejects_invalid(self):
        for bad in (0, -2, 1.5, True):
            with pytest.raises(ParameterError):
                resolve_n_jobs(bad)


class TestChunkHeuristic:
    def test_matches_legacy_constant_for_baseline_cost(self):
        # cost_hint=1 reproduces the historical max(1, n // (4 * n_jobs)).
        assert default_chunksize(400, 4) == 400 // 16
        assert default_chunksize(3, 4) == 1

    def test_expensive_items_get_smaller_chunks(self):
        cheap = default_chunksize(400, 4, cost_hint=1.0)
        expensive = default_chunksize(400, 4, cost_hint=4.0)
        assert expensive < cheap
        assert expensive >= 1

    def test_chunksize_knob_overrides_heuristic(self):
        backend = ProcessBackend(n_jobs=2, chunksize=5)
        assert backend.chunksize == 5
        assert "chunksize=5" in backend.spec()


class TestSharedArrayPlane:
    def test_publish_attach_roundtrip(self):
        data = np.arange(12, dtype=np.float64).reshape(3, 4)
        ranks = np.arange(12, dtype=np.intp).reshape(3, 4)
        plane = SharedArrayPlane({"data": data, "ranks": ranks})
        try:
            attachment = attach_arrays(plane.handles)
            try:
                assert np.array_equal(attachment.arrays["data"], data)
                assert np.array_equal(attachment.arrays["ranks"], ranks)
                assert not attachment.arrays["data"].flags.writeable
            finally:
                attachment.close()
        finally:
            plane.unlink()
        assert plane.closed

    def test_unlink_is_idempotent(self):
        plane = SharedArrayPlane({"x": np.zeros(3)})
        plane.unlink()
        plane.unlink()


class TestBackendMap:
    def test_map_preserves_order_and_flattens_chunks(self):
        backend = ProcessBackend(n_jobs=2, chunksize=3)
        try:
            result = backend.map(_square_worker, list(range(17)))
        finally:
            backend.close()
        assert result == [i * i for i in range(17)]

    def test_empty_map(self):
        for backend in (SerialBackend(), ThreadBackend(n_jobs=2), ProcessBackend(n_jobs=2)):
            try:
                assert backend.map(_square_worker, []) == []
            finally:
                backend.close()

    def test_worker_context_local_state_preferred_in_process(self):
        sentinel = object()
        context = WorkerContext(local_state=sentinel)
        backend = SerialBackend()
        assert backend.map(_identity_state_worker, [0], context=context) == [
            id(sentinel)
        ]

    def test_custom_backend_registration(self):
        class DoublingBackend(SerialBackend):
            kind = "doubling-test"

        register_backend("doubling-test", DoublingBackend)
        try:
            backend = make_backend("doubling-test")
            assert isinstance(backend, DoublingBackend)
            assert isinstance(backend, ExecutionBackend)
        finally:
            # keep the registry clean for other tests
            from repro.parallel.registry import _BACKENDS

            _BACKENDS.pop("doubling-test", None)


def _square_worker(state, item):
    return item * item


def _kill_worker(state, item):
    os.kill(os.getpid(), signal.SIGKILL)


#: The test process; a deviation that finds itself anywhere else is running
#: in a forked pool worker and kills it.
_TEST_PID = os.getpid()


def _deviation_killing_its_worker(conditional, marginal):
    if os.getpid() != _TEST_PID:
        os.kill(os.getpid(), signal.SIGKILL)
    raise AssertionError("the deviation must run in a pool worker")


def _shm_entries() -> set:
    return set(os.listdir("/dev/shm")) if os.path.isdir("/dev/shm") else set()


@pytest.mark.skipif(
    not _supported("process(start_method=fork)"), reason="needs the fork start method"
)
class TestKilledWorker:
    """A SIGKILLed worker breaks one map call, not the backend."""

    def test_map_after_a_killed_worker_starts_a_new_pool(self):
        with ProcessBackend(n_jobs=2, start_method="fork") as backend:
            with pytest.raises(BrokenProcessPool):
                backend.map(_kill_worker, [1, 2, 3])
            assert backend._executor is None
            assert backend.map(_square_worker, list(range(6))) == [
                i * i for i in range(6)
            ]

    def test_shared_backend_serves_the_next_estimator(self, mixed_data):
        subspaces = [Subspace(p) for p in combinations(range(5), 2)]
        serial = ContrastEstimator(
            mixed_data, n_iterations=10, random_state=2, cache=False
        ).contrast_many(subspaces)
        before = _shm_entries()
        with ProcessBackend(n_jobs=2, start_method="fork") as backend:
            params = dict(n_iterations=10, random_state=2, cache=False, backend=backend)
            with ContrastEstimator(
                mixed_data, deviation=_deviation_killing_its_worker, **params
            ) as doomed:
                with pytest.raises(BrokenProcessPool):
                    doomed.contrast_many(subspaces)
            with ContrastEstimator(mixed_data, **params) as survivor:
                assert survivor.contrast_many(subspaces) == serial
        assert _shm_entries() - before == set()


def _identity_state_worker(state, item):
    return id(state)


class TestSingleWriterExecutor:
    def test_preserves_submission_order_on_one_thread(self):
        from repro.parallel import SingleWriterExecutor

        observed = []

        def record(value):
            observed.append((value, threading.current_thread().name))
            return value * 2

        with SingleWriterExecutor(name="writer-test") as writer:
            futures = [writer.submit(record, i) for i in range(20)]
            assert [f.result() for f in futures] == [i * 2 for i in range(20)]
        assert [value for value, _ in observed] == list(range(20))
        assert len({name for _, name in observed}) == 1  # single worker thread

    def test_exceptions_propagate_through_future(self):
        from repro.parallel import SingleWriterExecutor

        def boom():
            raise ValueError("scoring failed")

        with SingleWriterExecutor() as writer:
            future = writer.submit(boom)
            with pytest.raises(ValueError, match="scoring failed"):
                future.result()
            # The worker survives a failed task.
            assert writer.submit(lambda: 7).result() == 7

    def test_submit_after_close_raises(self):
        from repro.parallel import SingleWriterExecutor

        writer = SingleWriterExecutor()
        writer.close()
        writer.close()  # idempotent
        with pytest.raises(RuntimeError):
            writer.submit(lambda: 1)
