"""Golden tests for the out-of-core dataset plane.

The plane's contract is absolute: a memmap-backed dataset, an out-of-core
index build and a contrast search whose subspace groups fan out over a worker
pool are *storage and throughput* choices — every score, fingerprint and
cache key is bit-for-bit identical to the in-memory path, across
serial/thread/process backends and any chunk size.  These tests pin that
contract end to end, together with the failure modes (torn files, missing
scratch directories) that must raise instead of serving wrong bytes.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.cli import build_parser
from repro.dataset import (
    Dataset,
    array_fingerprint,
    generate_synthetic_dataset,
)
from repro.dataset.memmap import (
    DEFAULT_CHUNK_ROWS,
    ScratchDirectory,
    StorageSpec,
    check_storage_spec,
    memmap_layout_fingerprint,
    open_memmap_readonly,
    parse_storage_spec,
)
from repro.exceptions import DataError, ParameterError
from repro.index import SortedDatabaseIndex
from repro.index.sorted_index import chunked_argsort
from repro.outliers import LOFScorer
from repro.parallel import SharedArrayPlane, attach_arrays
from repro.parallel.shared import MemmapHandle
from repro.pipeline import PipelineConfig, SubspaceOutlierPipeline, make_method_pipeline
from repro.subspaces import ContrastEstimator, HiCS
from repro.types import Subspace

#: Every backend the golden equivalence sweep exercises (fork is skipped
#: automatically where the platform does not provide it).
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
def small_dataset() -> Dataset:
    return generate_synthetic_dataset(
        n_objects=300,
        n_dims=6,
        n_relevant_subspaces=2,
        subspace_dims=(2, 3),
        outliers_per_subspace=5,
        random_state=42,
    )


@pytest.fixture(scope="module")
def stored(tmp_path_factory, small_dataset) -> Dataset:
    """The same dataset reopened as a read-only memmap view."""
    path = str(tmp_path_factory.mktemp("plane") / "ds")
    small_dataset.to_npy(path)
    return Dataset.from_npy(path, mmap=True)


# --------------------------------------------------------- fingerprint pins


class TestChunkedFingerprint:
    #: Pinned digests: these are the exact values the pre-chunking
    #: implementation produced.  If any of them moves, every artifact cache
    #: and contrast cache key in existence silently invalidates — treat a
    #: failure here as a release blocker, not a test to update.
    PINNED = {
        "data": "285790a0d2a2f4f0b3397303bf787f40b9dc5ab0",
        "data+labels": "c108e89c82643e47e58726ac6526f0dc758f5d8e",
        "data+none": "a8231ff8d7f51d88f9752d62636b277831bff5c9",
        "scalar": "f469dc613168d83b8a032ff86ecc86d23513c231",
        "empty": "61a5bb677d62f48f36aa28c9663ec03b582976d4",
    }

    @staticmethod
    def _data():
        return np.arange(60, dtype=np.float64).reshape(12, 5) / 8.0

    def test_pinned_digests(self):
        data = self._data()
        labels = (np.arange(12) % 3).astype(np.int64)
        assert array_fingerprint(data) == self.PINNED["data"]
        assert array_fingerprint(data, labels) == self.PINNED["data+labels"]
        assert array_fingerprint(data, None) == self.PINNED["data+none"]
        assert array_fingerprint(np.float64(0.5)) == self.PINNED["scalar"]
        assert array_fingerprint(np.empty((0, 3))) == self.PINNED["empty"]

    @pytest.mark.parametrize("chunk_bytes", [1, 7, 40, 8 * 5, 480, 481, 10**9])
    def test_chunking_is_invisible_in_the_digest(self, chunk_bytes):
        data = self._data()
        assert array_fingerprint(data, chunk_bytes=chunk_bytes) == self.PINNED["data"]

    def test_non_contiguous_input_matches_contiguous(self):
        data = self._data()
        transposed = np.asarray(data.T, order="C").T  # F-contiguous copy
        assert not transposed.flags.c_contiguous
        assert array_fingerprint(transposed, chunk_bytes=16) == self.PINNED["data"]

    def test_memmap_input_matches_in_memory(self, small_dataset, stored):
        assert isinstance(stored.data, np.memmap)
        assert array_fingerprint(stored.data) == array_fingerprint(small_dataset.data)
        assert stored.fingerprint() == small_dataset.fingerprint()

    def test_chunk_bytes_must_be_positive(self):
        with pytest.raises(ValueError):
            array_fingerprint(self._data(), chunk_bytes=0)


# ------------------------------------------------------- dataset round trip


class TestDatasetRoundTrip:
    def test_memmap_view_is_read_only(self, stored):
        assert stored.is_memmap
        assert not stored.data.flags.writeable

    def test_round_trip_preserves_content_and_metadata(
        self, tmp_path, small_dataset
    ):
        path = str(tmp_path / "ds")
        small_dataset.to_npy(path)
        for mmap in (True, False):
            loaded = Dataset.from_npy(path, mmap=mmap)
            assert loaded.fingerprint() == small_dataset.fingerprint()
            assert np.array_equal(loaded.data, small_dataset.data)
            assert np.array_equal(loaded.labels, small_dataset.labels)
            assert loaded.name == small_dataset.name
            assert loaded.relevant_subspaces == small_dataset.relevant_subspaces

    def test_missing_directory(self, tmp_path):
        with pytest.raises(DataError, match="does not exist"):
            Dataset.from_npy(str(tmp_path / "nowhere"))

    def test_missing_manifest_is_a_torn_write(self, tmp_path, small_dataset):
        path = str(tmp_path / "ds")
        small_dataset.to_npy(path)
        os.unlink(os.path.join(path, "meta.json"))
        with pytest.raises(DataError, match="torn|meta.json"):
            Dataset.from_npy(path)

    def test_truncated_data_file_is_detected(self, tmp_path, small_dataset):
        path = str(tmp_path / "ds")
        small_dataset.to_npy(path)
        data_path = os.path.join(path, "data.npy")
        with open(data_path, "r+b") as handle:
            handle.truncate(os.path.getsize(data_path) // 2)
        with pytest.raises(DataError):
            Dataset.from_npy(path)

    def test_missing_labels_file_is_detected(self, tmp_path, small_dataset):
        path = str(tmp_path / "ds")
        small_dataset.to_npy(path)
        os.unlink(os.path.join(path, "labels.npy"))
        with pytest.raises(DataError, match="labels"):
            Dataset.from_npy(path)


# -------------------------------------------------------- storage spec grammar


class TestStorageSpec:
    def test_parse_and_canonical_form(self):
        spec = parse_storage_spec("memmap(chunk_rows=4096)")
        assert spec == StorageSpec(kind="memmap", chunk_rows=4096)
        assert spec.to_spec() == "memmap(chunk_rows=4096)"
        assert parse_storage_spec(spec.to_spec()) == spec

    def test_defaults_and_scratch_dir(self, tmp_path):
        assert parse_storage_spec("memmap").chunk_rows == DEFAULT_CHUNK_ROWS
        spec = parse_storage_spec(f"memmap(scratch_dir='{tmp_path}')")
        assert spec.scratch_dir == str(tmp_path)

    def test_check_normalises_memory_to_none(self):
        assert check_storage_spec(None) is None
        assert check_storage_spec("memory") is None
        assert check_storage_spec("memmap").kind == "memmap"
        spec = StorageSpec(kind="memmap", chunk_rows=128)
        assert check_storage_spec(spec) is spec

    @pytest.mark.parametrize(
        "bad",
        ["", "mmap", "memmap(chunk_rows=1)", "memmap(nope=2)", "memory(x=1)"],
    )
    def test_malformed_specs_are_rejected(self, bad):
        with pytest.raises(ParameterError):
            check_storage_spec(bad)


# ------------------------------------------------------------ scratch lifetime


class TestScratchDirectory:
    def test_missing_base_directory_raises(self, tmp_path):
        with pytest.raises(DataError, match="does not exist"):
            ScratchDirectory(str(tmp_path / "missing"))

    def test_close_removes_tree_and_blocks_file(self, tmp_path):
        scratch = ScratchDirectory(str(tmp_path))
        member = scratch.file("column.npy")
        with open(member, "wb") as handle:
            handle.write(b"x")
        scratch.close()
        assert scratch.closed
        assert not os.path.exists(scratch.path)
        with pytest.raises(DataError, match="closed"):
            scratch.file("other.npy")
        scratch.close()  # idempotent

    def test_estimator_close_removes_owned_scratch(self, small_dataset, tmp_path):
        estimator = ContrastEstimator(
            small_dataset.data,
            n_iterations=5,
            random_state=0,
            storage=f"memmap(chunk_rows=128, scratch_dir='{tmp_path}')",
        )
        estimator.contrast(Subspace((0, 1)))
        spilled = [p for p in os.listdir(str(tmp_path))]
        assert spilled, "out-of-core fit should have spilled under scratch_dir"
        estimator.close()
        assert os.listdir(str(tmp_path)) == []


# ------------------------------------------------------------ out-of-core index


class TestOutOfCoreIndex:
    @pytest.mark.parametrize("chunk_rows", [2, 63, 64, 65, 100, 997, 10**6])
    def test_chunked_argsort_equals_stable_argsort(self, chunk_rows):
        rng = np.random.default_rng(3)
        values = rng.integers(0, 40, size=301).astype(np.float64)  # heavy ties
        expected = np.argsort(values, kind="mergesort")
        assert np.array_equal(chunked_argsort(values, chunk_rows), expected)

    @pytest.mark.parametrize("chunk_rows", [64, 100, 299, 300, 301])
    def test_rank_columns_match_in_memory(self, small_dataset, chunk_rows):
        data = small_dataset.data
        dense = SortedDatabaseIndex(data).build_all()
        ooc = SortedDatabaseIndex(
            data, storage=StorageSpec(kind="memmap", chunk_rows=chunk_rows)
        ).build_all()
        try:
            assert ooc.out_of_core
            for attribute in range(data.shape[1]):
                column = ooc.rank_column(attribute)
                assert isinstance(column, np.memmap)
                assert np.array_equal(column, dense.rank_column(attribute))
        finally:
            ooc.close()

    def test_rank_matrix_refuses_dense_assembly(self, small_dataset):
        """Workers get the spilled columns by path; no (n, d) block is built."""
        data = small_dataset.data
        with ContrastEstimator(
            data, storage="memmap(chunk_rows=128)", backend="process(n_jobs=2)"
        ) as estimator:
            assert not hasattr(estimator.index, "rank_matrix")
            handles = estimator._ensure_worker_context().remote().handles
            for attribute in range(data.shape[1]):
                handle = handles[f"rank_col_{attribute}"]
                assert isinstance(handle, MemmapHandle)
                assert handle.shape == (data.shape[0],)


# --------------------------------------------------- shared plane publication


class TestMemmapPublication:
    def test_full_memmap_views_publish_by_path(self, stored):
        plane = SharedArrayPlane({"data": stored.data})
        try:
            handle = plane.handles["data"]
            assert isinstance(handle, MemmapHandle)
            attachment = attach_arrays(plane.handles)
            try:
                view = attachment.arrays["data"]
                assert isinstance(view, np.memmap)
                assert np.array_equal(view, stored.data)
            finally:
                attachment.close()
        finally:
            plane.unlink()

    def test_torn_file_is_detected_on_attach(self, tmp_path, small_dataset):
        path = str(tmp_path / "ds")
        small_dataset.to_npy(path)
        mapped = Dataset.from_npy(path, mmap=True)
        plane = SharedArrayPlane({"data": mapped.data})
        try:
            data_path = os.path.join(path, "data.npy")
            with open(data_path, "r+b") as handle:
                handle.truncate(os.path.getsize(data_path) - 8)
            with pytest.raises(DataError, match="torn|changed on disk"):
                attach_arrays(plane.handles)
        finally:
            plane.unlink()

    def test_gone_file_is_detected_on_attach(self, tmp_path, small_dataset):
        path = str(tmp_path / "ds")
        small_dataset.to_npy(path)
        mapped = Dataset.from_npy(path, mmap=True)
        plane = SharedArrayPlane({"data": mapped.data})
        try:
            handle = plane.handles["data"]
            os.unlink(handle.path)
            with pytest.raises(DataError, match="gone"):
                attach_arrays(plane.handles)
        finally:
            plane.unlink()

    def test_layout_fingerprint_tracks_size(self, tmp_path):
        path = str(tmp_path / "a.npy")
        np.save(path, np.arange(10, dtype=np.float64))
        before = memmap_layout_fingerprint(path, np.float64, (10,))
        with open(path, "ab") as handle:
            handle.write(b"\0" * 8)
        assert memmap_layout_fingerprint(path, np.float64, (10,)) != before


# ------------------------------------------------------ golden bit-equality


def _search_result(scored):
    return [(s.subspace, s.score) for s in scored]


class TestGoldenEquivalence:
    """Memmap storage and the subspace-group fan-out never change a single bit."""

    @pytest.fixture(scope="class")
    def baseline(self, small_dataset):
        searcher = HiCS(
            n_iterations=10,
            candidate_cutoff=15,
            max_output_subspaces=5,
            random_state=0,
        )
        return _search_result(searcher.search(small_dataset.data))

    @pytest.mark.parametrize("chunk_rows", [64, 100, 299, 300, 997])
    def test_chunk_sizes_reproduce_the_search(
        self, stored, baseline, chunk_rows
    ):
        searcher = HiCS(
            n_iterations=10,
            candidate_cutoff=15,
            max_output_subspaces=5,
            random_state=0,
            storage=f"memmap(chunk_rows={chunk_rows})",
        )
        assert _search_result(searcher.search(stored.data)) == baseline

    @pytest.mark.parametrize("backend", GOLDEN_BACKENDS)
    def test_backends_reproduce_the_search(self, stored, baseline, backend):
        if not _supported(backend):
            pytest.skip(f"start method not available for {backend!r}")
        searcher = HiCS(
            n_iterations=10,
            candidate_cutoff=15,
            max_output_subspaces=5,
            random_state=0,
            backend=backend,
            storage="memmap(chunk_rows=128)",
        )
        assert _search_result(searcher.search(stored.data)) == baseline

    def test_pipeline_scores_identical_across_storage(
        self, small_dataset, stored
    ):
        def scores(storage, data):
            config = PipelineConfig(
                max_subspaces=3,
                hics_iterations=10,
                hics_cutoff=15,
                random_state=0,
                storage=storage,
            )
            pipeline = make_method_pipeline("HiCS", config)
            try:
                return pipeline.fit_rank(data).scores
            finally:
                pipeline.close()

        reference = scores(None, small_dataset.data)
        mapped = scores("memmap(chunk_rows=100)", stored.data)
        assert np.array_equal(reference, mapped)

    def test_cache_keys_identical_across_modes(self, small_dataset, stored):
        subspace = Subspace((0, 1, 2))
        reference = ContrastEstimator(
            small_dataset.data, n_iterations=5, random_state=0
        )
        mapped = ContrastEstimator(
            stored.data,
            n_iterations=5,
            random_state=0,
            storage="memmap(chunk_rows=128)",
        )
        try:
            assert reference._cache_key(subspace) == mapped._cache_key(subspace)
            assert reference.contrast(subspace) == mapped.contrast(subspace)
        finally:
            reference.close()
            mapped.close()


# ----------------------------------------------------------- parameter errors


class TestParameterErrors:
    def test_storage_rejected_for_prebuilt_index(self, small_dataset):
        index = SortedDatabaseIndex(small_dataset.data).build_all()
        with pytest.raises(ParameterError, match="prebuilt index"):
            ContrastEstimator(index, storage="memmap")

    def test_scratch_dir_requires_memmap_storage(self, tmp_path):
        with pytest.raises(ParameterError, match="scratch_dir requires"):
            HiCS(scratch_dir=str(tmp_path))

    def test_missing_scratch_dir_fails_the_fit(self, small_dataset, tmp_path):
        searcher = HiCS(
            n_iterations=5,
            candidate_cutoff=10,
            max_output_subspaces=2,
            random_state=0,
            storage="memmap(chunk_rows=128)",
            scratch_dir=str(tmp_path / "missing"),
        )
        with pytest.raises(DataError, match="does not exist"):
            searcher.search(small_dataset.data)


# ------------------------------------------------------- retired row shards


class TestRetiredNShards:
    """``n_shards`` split each slice-mask evaluation into row shards.

    Sharding never touched the random draw, so it never changed a bit; a
    parallel backend now always spreads subspace groups instead.  ``HiCS``
    still validates and stores the keyword so model files and spec strings
    that name it load and reproduce the unsharded search, and a config dict
    that still carries it drops it.
    """

    SEARCH = dict(n_iterations=10, candidate_cutoff=15, max_output_subspaces=5, random_state=0)

    @pytest.fixture(scope="class")
    def baseline(self, small_dataset):
        return _search_result(HiCS(**self.SEARCH).search(small_dataset.data))

    @pytest.mark.parametrize("n_shards", [1, 2, 3, 4, 5, 6, 7, 8])
    def test_shard_counts_reproduce_the_search(self, small_dataset, baseline, n_shards):
        searcher = HiCS(**self.SEARCH, n_shards=n_shards)
        assert searcher.n_shards == n_shards
        assert _search_result(searcher.search(small_dataset.data)) == baseline

    def test_n_shards_must_be_positive(self, small_dataset):
        with pytest.raises(ParameterError):
            HiCS(n_shards=0)
        with pytest.raises(TypeError):
            ContrastEstimator(small_dataset.data, n_shards=2)

    def test_spec_with_n_shards(self, small_dataset):
        spec = "hics(n_iterations=10, candidate_cutoff=15, random_state=0{})+lof(min_pts=8)"
        with make_method_pipeline(spec.format(", n_shards=4")) as legacy, make_method_pipeline(
            spec.format("")
        ) as survivor:
            assert legacy.searcher.n_shards == 4
            assert np.array_equal(
                legacy.fit_rank(small_dataset.data).scores,
                survivor.fit_rank(small_dataset.data).scores,
            )

    def test_saved_pipeline_with_n_shards(self, small_dataset, tmp_path):
        pipeline = SubspaceOutlierPipeline(HiCS(**self.SEARCH, n_shards=4), LOFScorer(min_pts=8))
        expected = pipeline.fit_rank(small_dataset.data).scores
        path = str(tmp_path / "model.npz")
        pipeline.save(path)
        with SubspaceOutlierPipeline.load(path) as loaded:
            assert loaded.to_dict()["searcher"]["params"]["n_shards"] == 4
            query = small_dataset.data[:12] + 0.01
            assert np.array_equal(loaded.score_samples(query), pipeline.score_samples(query))
            assert np.array_equal(loaded.fit_rank(small_dataset.data).scores, expected)

    def test_config_dict_drops_n_shards(self):
        assert PipelineConfig.from_dict({"min_pts": 8, "n_shards": 4}) == PipelineConfig(
            min_pts=8
        )
        with pytest.raises(TypeError):
            PipelineConfig(n_shards=4)

    @pytest.mark.parametrize(
        "argv",
        [
            ["rank", "--dataset", "toy-correlated"],
            ["fit", "--dataset", "toy-correlated", "--out", "model.npz"],
            ["contrast", "--dataset", "toy-correlated"],
            ["compare", "--dataset", "toy-correlated"],
        ],
    )
    def test_cli_rejects_n_shards(self, argv, capsys):
        build_parser().parse_args(argv)
        with pytest.raises(SystemExit):
            build_parser().parse_args(argv + ["--n-shards", "2"])
        assert "unrecognized arguments: --n-shards" in capsys.readouterr().err
