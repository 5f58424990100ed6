"""Tests for the online scoring service (``repro-hics serve``).

Integration tests run a real :class:`ScoringServer` on an ephemeral loopback
port via :func:`serve_in_thread` and speak plain ``http.client`` to it, so
the entire stack — request parsing, micro-batching, the single-writer
scoring executor, the model registry and hot reload — is exercised exactly
as a production client would.
"""

from __future__ import annotations

import concurrent.futures
import http.client
import json
import threading
import time

import numpy as np
import pytest

from repro.dataset import generate_synthetic_dataset
from repro.exceptions import DataError
from repro.neighbors import SharedNeighborEngine
from repro.outliers import LOFScorer
from repro.pipeline import SubspaceOutlierPipeline
from repro.serving import ModelRegistry, serve_in_thread
from repro.serving.metrics import Histogram
from repro.subspaces import HiCS


def _fast_pipeline() -> SubspaceOutlierPipeline:
    return SubspaceOutlierPipeline(
        searcher=HiCS(
            n_iterations=10, candidate_cutoff=30, max_output_subspaces=10, random_state=0
        ),
        scorer=LOFScorer(min_pts=8),
    )


@pytest.fixture(scope="module")
def reference_dataset():
    return generate_synthetic_dataset(
        n_objects=220,
        n_dims=8,
        n_relevant_subspaces=2,
        subspace_dims=(2, 3),
        outliers_per_subspace=4,
        random_state=3,
    )


@pytest.fixture(scope="module")
def model_file(reference_dataset, tmp_path_factory):
    path = tmp_path_factory.mktemp("models") / "model.npz"
    with _fast_pipeline() as pipeline:
        pipeline.fit(reference_dataset)
        pipeline.save(path)
    return str(path)


@pytest.fixture(scope="module")
def offline_scores(reference_dataset, model_file):
    """What the serving path must reproduce bit for bit."""
    with SubspaceOutlierPipeline.load(model_file) as pipeline:
        return pipeline.score_samples(reference_dataset.data[:40], independent=True)


def _request(port, method, path, payload=None):
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        body = None if payload is None else json.dumps(payload).encode()
        connection.request(method, path, body=body)
        response = connection.getresponse()
        return response.status, json.loads(response.read().decode())
    finally:
        connection.close()


class TestEndpoints:
    def test_healthz_metrics_models_and_scoring(self, reference_dataset, model_file, offline_scores):
        registry = ModelRegistry(model_file)
        with serve_in_thread(registry) as server:
            port = server.port
            status, health = _request(port, "GET", "/healthz")
            assert status == 200
            assert health["status"] == "ok"
            assert health["model_version"] == "model"
            assert health["n_dims"] == reference_dataset.n_dims

            status, out = _request(
                port, "POST", "/score", {"point": list(reference_dataset.data[0])}
            )
            assert status == 200
            assert out["score"] == offline_scores[0]  # bit-identical via JSON repr
            assert out["model_version"] == "model"

            rows = [list(row) for row in reference_dataset.data[:10]]
            status, out = _request(port, "POST", "/score/batch", {"points": rows})
            assert status == 200
            assert np.array_equal(np.asarray(out["scores"]), offline_scores[:10])

            status, metrics = _request(port, "GET", "/metrics")
            assert status == 200
            assert metrics["points_scored_total"] == 11
            assert "POST /score" in metrics["latency_ms_by_route"]
            assert metrics["latency_ms_by_route"]["POST /score"]["p99"] is not None
            assert metrics["queue_depth"] == 0

            status, models = _request(port, "GET", "/models")
            assert status == 200
            assert models["current"]["version"] == "model"
            assert models["current"]["n_dims"] == reference_dataset.n_dims

    def test_malformed_requests_get_4xx_not_tracebacks(self, model_file, reference_dataset):
        registry = ModelRegistry(model_file)
        n_dims = reference_dataset.n_dims
        with serve_in_thread(registry) as server:
            port = server.port
            for method, path, payload, expected in [
                ("POST", "/score", None, 400),  # empty body
                ("POST", "/score", {"point": "nope"}, 400),  # not an array
                ("POST", "/score", {"point": [0.1] * (n_dims + 1)}, 400),  # wrong dims
                ("POST", "/score", {"point": [0.1] * (n_dims - 1) + ["x"]}, 400),
                ("POST", "/score", {"point": [0.1] * (n_dims - 1) + [True]}, 400),
                ("POST", "/score", {"wrong_key": [0.1] * n_dims}, 400),
                ("POST", "/score/batch", {"points": [[0.1]]}, 400),  # wrong dims
                ("POST", "/score/batch", {"points": "nope"}, 400),
                ("GET", "/nope", None, 404),
                ("GET", "/score", None, 405),  # wrong method
                ("POST", "/healthz", {}, 405),
            ]:
                status, body = _request(port, method, path, payload)
                assert status == expected, (method, path, payload)
                assert "error" in body

            # Raw garbage instead of JSON.
            connection = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
            try:
                connection.request("POST", "/score", body=b"{not json")
                response = connection.getresponse()
                assert response.status == 400
                assert "malformed JSON" in json.loads(response.read().decode())["error"]
            finally:
                connection.close()

            # NaN/Infinity are valid to Python's json loader but not scorable.
            connection = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
            try:
                row = [0.1] * (n_dims - 1) + ["NaN"]
                body = json.dumps({"point": row}).replace('"NaN"', "NaN").encode()
                connection.request("POST", "/score", body=body)
                response = connection.getresponse()
                assert response.status == 400
                json.loads(response.read().decode())
            finally:
                connection.close()

    def test_oversized_body_rejected_with_413(self, model_file):
        registry = ModelRegistry(model_file)
        with serve_in_thread(registry, max_body_bytes=1024) as server:
            connection = http.client.HTTPConnection("127.0.0.1", server.port, timeout=30)
            try:
                connection.request("POST", "/score", body=b"x" * 2048)
                response = connection.getresponse()
                assert response.status == 413
            finally:
                connection.close()

    def test_empty_batch_is_a_valid_noop(self, model_file):
        registry = ModelRegistry(model_file)
        with serve_in_thread(registry) as server:
            status, out = _request(server.port, "POST", "/score/batch", {"points": []})
            assert status == 200
            assert out == {"scores": [], "model_version": "model", "count": 0}


class TestConcurrentScoring:
    def test_hammering_threads_match_offline_scores_bit_for_bit(
        self, reference_dataset, model_file, offline_scores
    ):
        """N threads × single-point requests == serial offline scoring."""
        registry = ModelRegistry(model_file)
        rows = reference_dataset.data[:40]
        with serve_in_thread(registry, max_batch_size=16) as server:
            port = server.port

            def score_one(index):
                status, out = _request(
                    port, "POST", "/score", {"point": list(rows[index])}
                )
                assert status == 200
                return index, out["score"], out["batch_size"]

            with concurrent.futures.ThreadPoolExecutor(max_workers=12) as pool:
                results = list(pool.map(score_one, list(range(len(rows))) * 2))

        served = np.empty(len(rows))
        for index, score, _batch_size in results:
            served[index] = score
        assert np.array_equal(served, offline_scores)

    def test_concurrent_requests_actually_micro_batch(
        self, reference_dataset, model_file, offline_scores
    ):
        """Under concurrency some requests must share one scoring pass, and
        the batched scores still match the serial references exactly."""
        registry = ModelRegistry(model_file)
        rows = reference_dataset.data[:40]
        with serve_in_thread(registry, max_batch_size=64) as server:
            port = server.port
            barrier = threading.Barrier(16)

            def score_one(index):
                barrier.wait(timeout=30)
                status, out = _request(
                    port, "POST", "/score", {"point": list(rows[index])}
                )
                assert status == 200
                return index, out["score"], out["batch_size"]

            batch_sizes = []
            with concurrent.futures.ThreadPoolExecutor(max_workers=16) as pool:
                for round_start in range(0, 32, 16):
                    for index, score, batch_size in pool.map(
                        score_one, range(round_start, round_start + 16)
                    ):
                        assert score == offline_scores[index]
                        batch_sizes.append(batch_size)
            # 32 simultaneous-burst requests cannot all have been singletons.
            assert max(batch_sizes) > 1

            _status, metrics = _request(port, "GET", "/metrics")
            assert metrics["points_scored_total"] == 32
            assert metrics["batches_total"] < 32


class TestHotReload:
    def _save_model(self, dataset, path, *, shift=0.0):
        with _fast_pipeline() as pipeline:
            data = dataset.data + shift if shift else dataset
            pipeline.fit(data)
            pipeline.save(path)

    def test_explicit_reload_swaps_version_without_dropping_requests(
        self, reference_dataset, tmp_path
    ):
        registry_dir = tmp_path / "registry"
        registry_dir.mkdir()
        self._save_model(reference_dataset, registry_dir / "v0001.npz")
        registry = ModelRegistry(str(registry_dir))
        rows = reference_dataset.data[:8]

        stop = threading.Event()
        failures = []
        versions_seen = set()

        with serve_in_thread(registry, max_batch_size=8) as server:
            port = server.port

            def hammer():
                i = 0
                while not stop.is_set():
                    status, out = _request(
                        port, "POST", "/score", {"point": list(rows[i % len(rows)])}
                    )
                    if status != 200:
                        failures.append((status, out))
                        return
                    versions_seen.add(out["model_version"])
                    i += 1

            threads = [threading.Thread(target=hammer) for _ in range(6)]
            for thread in threads:
                thread.start()
            try:
                time.sleep(0.3)
                # Publish v0002 and hot-swap while the load is running.
                self._save_model(reference_dataset, registry_dir / "v0002.npz", shift=0.25)
                status, out = _request(port, "POST", "/admin/reload")
                assert status == 200
                assert out["reloaded"] is True
                assert out["model_version"] == "v0002"
                time.sleep(0.3)
            finally:
                stop.set()
                for thread in threads:
                    thread.join(timeout=30)

            assert failures == []  # no request dropped across the swap
            assert versions_seen == {"v0001", "v0002"}

            _status, models = _request(port, "GET", "/models")
            assert models["current"]["version"] == "v0002"
            assert [m["version"] for m in models["retired"]] == ["v0001"]

            _status, metrics = _request(port, "GET", "/metrics")
            assert metrics["reloads_total"] == 1

    def test_reload_is_noop_when_file_unchanged(self, model_file):
        registry = ModelRegistry(model_file)
        with serve_in_thread(registry) as server:
            status, out = _request(server.port, "POST", "/admin/reload")
            assert status == 200
            assert out["reloaded"] is False
            status, out = _request(server.port, "POST", "/admin/reload", {"force": True})
            assert status == 200
            assert out["reloaded"] is True

    def test_watcher_picks_up_atomically_replaced_file(
        self, reference_dataset, tmp_path
    ):
        path = tmp_path / "watched.npz"
        self._save_model(reference_dataset, path)
        registry = ModelRegistry(str(path))
        with serve_in_thread(registry, watch_interval=0.05) as server:
            port = server.port
            _status, health = _request(port, "GET", "/healthz")
            assert health["model_version"] == "watched"
            # Overwrite through the atomic save path; the watcher must see
            # the stat change without an explicit /admin/reload.
            self._save_model(reference_dataset, path, shift=0.25)
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                _status, metrics = _request(port, "GET", "/metrics")
                if metrics["reloads_total"] >= 1:
                    break
                time.sleep(0.05)
            assert metrics["reloads_total"] >= 1

    def test_failed_reload_keeps_serving_old_model(self, reference_dataset, tmp_path):
        path = tmp_path / "fragile.npz"
        self._save_model(reference_dataset, path)
        registry = ModelRegistry(str(path))
        with serve_in_thread(registry) as server:
            port = server.port
            path.write_bytes(b"this is not an npz archive")
            status, out = _request(port, "POST", "/admin/reload")
            assert status == 400
            assert out["reloaded"] is False
            # The old model is still live and scoring.
            status, out = _request(
                port, "POST", "/score", {"point": list(reference_dataset.data[0])}
            )
            assert status == 200
            _status, metrics = _request(port, "GET", "/metrics")
            assert metrics["reload_failures_total"] == 1


class TestModelRegistry:
    def test_directory_layout_serves_lexicographically_last(
        self, reference_dataset, tmp_path
    ):
        registry_dir = tmp_path / "registry"
        registry_dir.mkdir()
        with _fast_pipeline() as pipeline:
            pipeline.fit(reference_dataset)
            pipeline.save(registry_dir / "v0001.npz")
            pipeline.save(registry_dir / "v0010.npz")
            pipeline.save(registry_dir / "v0002.npz")
        with ModelRegistry(str(registry_dir)) as registry:
            assert registry.current.version == "v0010"

    def test_empty_directory_rejected(self, tmp_path):
        with pytest.raises(DataError, match="no .*models"):
            ModelRegistry(str(tmp_path))

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(DataError):
            ModelRegistry(str(tmp_path / "missing.npz"))

    def test_engine_override_applied_to_loaded_pipeline(self, model_file):
        with ModelRegistry(model_file, scoring_engine="per-subspace") as registry:
            pipeline = registry.current.pipeline
            assert pipeline.engine == pipeline.ranker.engine == "per-subspace"

    def test_load_without_warm_defers_engine_build(self, model_file):
        with ModelRegistry(model_file) as registry:
            registry.load(force=True, warm=False)
            assert registry.current.pipeline.scorer._reference_engine_ is None

    def test_warm_leaves_no_reference_knn_to_a_request(
        self, model_file, reference_dataset, offline_scores, monkeypatch
    ):
        # warm() builds the engine and the LOF local-update plan, so the
        # first request after a (hot) load computes no reference kNN.
        calls = []
        kneighbors = SharedNeighborEngine.kneighbors

        def counted(self, *args, **kwargs):
            calls.append(args)
            return kneighbors(self, *args, **kwargs)

        with ModelRegistry(model_file) as registry:
            monkeypatch.setattr(SharedNeighborEngine, "kneighbors", counted)
            scores = registry.current.score(reference_dataset.data[:40])
        assert calls == []
        assert np.array_equal(scores, offline_scores)

    def test_close_releases_pipeline(self, model_file):
        registry = ModelRegistry(model_file)
        registry.close()
        registry.close()  # idempotent
        with pytest.raises(DataError):
            registry.current

    def test_stale_staging_files_ignored_in_directory(self, reference_dataset, tmp_path):
        registry_dir = tmp_path / "registry"
        registry_dir.mkdir()
        with _fast_pipeline() as pipeline:
            pipeline.fit(reference_dataset)
            pipeline.save(registry_dir / "v0001.npz")
        # A crashed save could leave a staging file behind; it must never be
        # picked up as a model version.
        (registry_dir / "v9999.npz.abc123.tmp").write_bytes(b"torn")
        with ModelRegistry(str(registry_dir)) as registry:
            assert registry.current.version == "v0001"


class TestHistogram:
    def test_percentiles_bracket_observations(self):
        histogram = Histogram((1.0, 2.0, 4.0, 8.0))
        for value in (0.5, 1.5, 1.5, 3.0, 7.0, 20.0):
            histogram.observe(value)
        snapshot = histogram.snapshot()
        assert snapshot["count"] == 6
        assert snapshot["min"] == 0.5
        assert snapshot["max"] == 20.0
        assert 0.5 <= snapshot["p50"] <= 4.0
        assert snapshot["p99"] <= 20.0
        assert snapshot["buckets"]["overflow"] == 1

    def test_empty_histogram_snapshot(self):
        snapshot = Histogram((1.0,)).snapshot()
        assert snapshot["count"] == 0
        assert snapshot["p50"] is None

    def test_unsorted_bounds_rejected(self):
        with pytest.raises(ValueError):
            Histogram((2.0, 1.0))


class TestServeCLI:
    def test_serve_registered_with_flags(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["serve", "--model", "m.npz", "--port", "0", "--max-batch-size", "8"]
        )
        assert args.command == "serve"
        assert args.max_batch_size == 8
        assert args.watch_interval == 0.0

    def test_serve_missing_model_exits_2(self, tmp_path, capsys):
        from repro.cli import main

        code = main(["serve", "--model", str(tmp_path / "missing.npz"), "--port", "0"])
        assert code == 2
        assert "error:" in capsys.readouterr().err
