"""Unit and property tests for distances and the kNN searchers."""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.exceptions import DataError, ParameterError
from repro.neighbors import (
    BruteForceKNN,
    SharedEngineKNN,
    SharedNeighborEngine,
    create_knn_searcher,
    euclidean_distance,
    manhattan_distance,
    minkowski_distance,
    pairwise_distances,
    subspace_pairwise_distances,
    top_k_smallest,
)
from repro.neighbors import engine as engine_module
from repro.neighbors import topk as topk_module
from repro.neighbors.base import check_knn_algorithm
from repro.types import Subspace
from repro.utils import chunks as chunks_module


def _tie_heavy_data(seed: int = 0) -> np.ndarray:
    """Random data mixed with duplicate rows and exact coordinate ties."""
    rng = np.random.default_rng(seed)
    data = np.vstack(
        [
            rng.normal(size=(30, 5)),
            np.ones((8, 5)),  # one duplicate cluster ...
            np.ones((4, 5)) * 2.0,  # ... and another
            rng.integers(0, 3, size=(20, 5)).astype(float),  # lattice: exact ties
        ]
    )
    data[50] = data[3]  # a duplicate pair far apart in index space
    return data


class TestDistances:
    def test_euclidean(self):
        assert euclidean_distance([0.0, 0.0], [3.0, 4.0]) == pytest.approx(5.0)

    def test_manhattan(self):
        assert manhattan_distance([0.0, 0.0], [3.0, 4.0]) == pytest.approx(7.0)

    def test_chebyshev_via_inf(self):
        assert minkowski_distance([0.0, 0.0], [3.0, 4.0], p=np.inf) == pytest.approx(4.0)

    def test_subspace_restriction(self):
        x, y = [1.0, 100.0, 2.0], [1.0, -100.0, 2.0]
        assert euclidean_distance(x, y, attributes=[0, 2]) == 0.0

    def test_invalid_order(self):
        with pytest.raises(ParameterError):
            minkowski_distance([1.0], [2.0], p=0.0)

    def test_shape_mismatch(self):
        with pytest.raises(DataError):
            euclidean_distance([1.0, 2.0], [1.0])

    def test_empty_attribute_selection(self):
        with pytest.raises(ParameterError):
            euclidean_distance([1.0], [2.0], attributes=[])

    def test_pairwise_matches_pointwise(self):
        rng = np.random.default_rng(0)
        data = rng.normal(size=(20, 4))
        matrix = pairwise_distances(data)
        for i in range(20):
            for j in range(20):
                assert matrix[i, j] == pytest.approx(
                    euclidean_distance(data[i], data[j]), abs=1e-9
                )

    def test_pairwise_manhattan(self):
        data = np.array([[0.0, 0.0], [1.0, 2.0]])
        matrix = pairwise_distances(data, p=1.0)
        assert matrix[0, 1] == pytest.approx(3.0)

    def test_pairwise_chebyshev(self):
        data = np.array([[0.0, 0.0], [1.0, 2.0]])
        matrix = pairwise_distances(data, p=np.inf)
        assert matrix[0, 1] == pytest.approx(2.0)

    def test_subspace_pairwise(self):
        data = np.array([[0.0, 100.0], [3.0, -100.0]])
        matrix = subspace_pairwise_distances(data, Subspace((0,)))
        assert matrix[0, 1] == pytest.approx(3.0)

    def test_pairwise_rejects_1d_only_after_reshape(self):
        with pytest.raises(DataError):
            pairwise_distances(np.zeros((2, 2, 2)))

    @given(
        st.lists(
            st.lists(st.floats(min_value=-100, max_value=100), min_size=3, max_size=3),
            min_size=2,
            max_size=15,
        )
    )
    @settings(max_examples=40)
    def test_property_metric_axioms(self, points):
        data = np.asarray(points)
        matrix = pairwise_distances(data)
        # Symmetry, non-negativity, zero diagonal.
        assert np.allclose(matrix, matrix.T, atol=1e-9)
        assert np.all(matrix >= 0.0)
        assert np.allclose(np.diag(matrix), 0.0)
        # Triangle inequality on a few triples.
        n = data.shape[0]
        for i in range(min(n, 5)):
            for j in range(min(n, 5)):
                for k in range(min(n, 5)):
                    assert matrix[i, j] <= matrix[i, k] + matrix[k, j] + 1e-6


class TestTopKSmallest:
    """top_k_smallest must match a stable full-row argsort bit for bit."""

    @staticmethod
    def _reference(matrix: np.ndarray, k: int):
        order = np.argsort(matrix, axis=1, kind="stable")[:, :k]
        return order, np.take_along_axis(matrix, order, axis=1)

    @given(st.integers(min_value=0, max_value=50), st.integers(min_value=1, max_value=12))
    @settings(max_examples=40, deadline=None)
    def test_property_matches_stable_argsort_with_ties(self, seed, k):
        rng = np.random.default_rng(seed)
        # Few distinct values -> plenty of ties, including across the k-th.
        matrix = rng.integers(0, 4, size=(11, 12)).astype(float)
        ref_idx, ref_val = self._reference(matrix, k)
        idx, val = top_k_smallest(matrix, k)
        assert np.array_equal(idx, ref_idx)
        assert np.array_equal(val, ref_val)

    @given(
        st.integers(min_value=0, max_value=2**16),
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=0, max_value=40),
        st.booleans(),
        st.booleans(),
        st.booleans(),
    )
    @settings(max_examples=80, deadline=None)
    def test_property_bound_route_matches_stable_argsort(
        self, seed, k, n_rows, extra, wide, inf_row, whole_row
    ):
        """Blocks at least four groups of ``4k`` columns wide take the bound
        route: lattice rows put ties on the bound and on the k-th value,
        rows of distinct values leave few entries at or below it, an
        all-``inf`` row takes the partition route beside finite rows, a few
        ``inf`` columns fall inside groups and the uncovered tail, and a
        2000-column block is a served point's shape.  ``k = n_cols`` returns
        whole rows in order."""
        rng = np.random.default_rng(seed)
        n_cols = 2000 if wide else 16 * k + extra
        levels = rng.integers(2, 7)
        matrix = rng.integers(0, levels, size=(n_rows, n_cols)) * 0.1
        distinct = rng.random(n_rows) < 0.5
        matrix[distinct] = rng.random((int(distinct.sum()), n_cols))
        matrix[:, rng.choice(n_cols, size=rng.integers(0, 4), replace=False)] = np.inf
        if inf_row:
            matrix[rng.integers(0, n_rows)] = np.inf
        k = n_cols if whole_row else k
        ref_idx, ref_val = self._reference(matrix, k)
        with mock.patch.object(topk_module, "_bounded_top_k", wraps=topk_module._bounded_top_k) as bounded:
            idx, val = top_k_smallest(matrix, k)
        assert np.array_equal(idx, ref_idx)
        assert np.array_equal(val, ref_val)
        finite_rows = not inf_row or n_rows > 1
        assert bounded.called == (finite_rows and not whole_row)

    def test_all_equal_rows_pick_lowest_indices(self):
        matrix = np.zeros((3, 7))
        idx, val = top_k_smallest(matrix, 4)
        assert idx.tolist() == [[0, 1, 2, 3]] * 3
        assert np.all(val == 0.0)

    def test_k_equals_row_length(self):
        matrix = np.array([[3.0, 1.0, 1.0, 2.0]])
        idx, _ = top_k_smallest(matrix, 4)
        assert idx.tolist() == [[1, 2, 3, 0]]

    def test_input_not_modified(self):
        matrix = np.random.default_rng(0).normal(size=(5, 9))
        backup = matrix.copy()
        top_k_smallest(matrix, 3)
        assert np.array_equal(matrix, backup)

    def test_invalid_inputs(self):
        with pytest.raises(ParameterError):
            top_k_smallest(np.zeros(3), 1)
        with pytest.raises(ParameterError):
            top_k_smallest(np.zeros((2, 3)), 4)
        with pytest.raises(ParameterError):
            top_k_smallest(np.zeros((2, 3)), 0)


class TestBruteForceKNN:
    def test_neighbors_exclude_self(self):
        data = np.array([[0.0], [1.0], [2.0], [10.0]])
        knn = BruteForceKNN(data).kneighbors(2)
        assert 0 not in knn.indices[0][:1] or knn.indices[0][0] != 0
        assert knn.indices[0].tolist() == [1, 2]
        assert knn.distances[0].tolist() == [1.0, 2.0]

    def test_include_self(self):
        data = np.array([[0.0], [1.0], [2.0]])
        knn = BruteForceKNN(data).kneighbors(1, exclude_self=False)
        assert knn.indices[:, 0].tolist() == [0, 1, 2]
        assert np.allclose(knn.distances, 0.0)

    def test_k_too_large(self):
        with pytest.raises(ParameterError):
            BruteForceKNN(np.zeros((3, 2))).kneighbors(3)

    def test_subspace_restriction_changes_neighbors(self):
        data = np.array([[0.0, 0.0], [0.1, 100.0], [5.0, 0.1]])
        full = BruteForceKNN(data).kneighbors(1)
        restricted = BruteForceKNN(data, attributes=[0]).kneighbors(1)
        assert full.indices[0, 0] == 2
        assert restricted.indices[0, 0] == 1

    def test_kth_distance(self):
        data = np.array([[0.0], [1.0], [3.0]])
        knn = BruteForceKNN(data).kneighbors(2)
        assert knn.kth_distance().tolist() == [3.0, 2.0, 3.0]

    def test_invalid_attributes(self):
        with pytest.raises(DataError):
            BruteForceKNN(np.zeros((5, 2)), attributes=[3])
        with pytest.raises(ParameterError):
            BruteForceKNN(np.zeros((5, 2)), attributes=[])

    def test_distance_matrix_cached(self):
        searcher = BruteForceKNN(np.random.default_rng(0).normal(size=(10, 2)))
        assert searcher.distance_matrix is searcher.distance_matrix

    def test_kneighbors_does_not_copy_or_corrupt_cached_matrix(self):
        searcher = BruteForceKNN(_tie_heavy_data())
        matrix = searcher.distance_matrix
        searcher.kneighbors(5)
        searcher.kneighbors(3, exclude_self=False)
        assert searcher.distance_matrix is matrix
        assert np.all(np.diag(matrix) == 0.0)

    def test_tie_break_on_index_with_duplicates(self):
        # Three identical points: neighbours of each are the *other* two,
        # ordered by ascending index.
        data = np.vstack([np.ones((3, 2)), [[5.0, 5.0]]])
        knn = BruteForceKNN(data).kneighbors(2)
        assert knn.indices[0].tolist() == [1, 2]
        assert knn.indices[1].tolist() == [0, 2]
        assert knn.indices[2].tolist() == [0, 1]

    def test_matches_stable_argsort_reference_on_ties(self):
        data = _tie_heavy_data()
        matrix = pairwise_distances(data)
        for k in (1, 4, 9):
            reference = matrix.copy()
            np.fill_diagonal(reference, np.inf)
            order = np.argsort(reference, axis=1, kind="stable")[:, :k]
            knn = BruteForceKNN(data).kneighbors(k)
            assert np.array_equal(knn.indices, order)
            assert np.array_equal(
                knn.distances, np.take_along_axis(reference, order, axis=1)
            )


class TestSharedNeighborEngine:
    def test_kneighbors_identical_to_brute_on_duplicates_and_ties(self):
        data = _tie_heavy_data()
        engine = SharedNeighborEngine(data)
        for attrs in (None, (0, 2), (1, 3, 4)):
            for k in (1, 5, 10):
                for exclude in (True, False):
                    brute = BruteForceKNN(data, attrs).kneighbors(k, exclude_self=exclude)
                    shared = engine.kneighbors(k, attrs, exclude_self=exclude)
                    assert np.array_equal(shared.indices, brute.indices)
                    assert np.array_equal(shared.distances, brute.distances)

    def test_distance_matrix_matches_pairwise_distances(self):
        data = _tie_heavy_data(seed=2)
        engine = SharedNeighborEngine(data)
        # Overlapping subspaces exercise block reuse in the cache.
        for attrs in ((0,), (0, 1), (0, 1, 2), (0, 1, 3), (2, 4), None):
            expected = pairwise_distances(data, attributes=attrs)
            assert np.array_equal(engine.distance_matrix(attrs), expected)

    def test_distance_matrix_returns_fresh_array(self):
        engine = SharedNeighborEngine(np.random.default_rng(0).normal(size=(12, 3)))
        first = engine.distance_matrix((0, 1))
        first[0, 1] = -1.0
        assert engine.distance_matrix((0, 1))[0, 1] != -1.0

    def test_pruned_route_stays_exact(self, monkeypatch):
        # With the dense route's height limit below n the engine answers with
        # the pruned search; it must produce identical neighbours anyway.
        data = _tie_heavy_data(seed=3)
        dense = {attrs: SharedNeighborEngine(data).kneighbors(6, attrs)
                 for attrs in (None, (0, 2, 3))}
        monkeypatch.setattr(engine_module, "_DENSE_MAX_ROWS", data.shape[0] - 1)
        pruned = SharedNeighborEngine(data)
        for attrs, a in dense.items():
            b = pruned.kneighbors(6, attrs)
            assert np.array_equal(a.indices, b.indices)
            assert np.array_equal(a.distances, b.distances)

    def test_asymmetric_query_mode_matches_combined_matrix(self):
        data = _tie_heavy_data(seed=4)
        rng = np.random.default_rng(9)
        queries = np.vstack([rng.normal(size=(6, 5)), data[7:8]])  # incl. a duplicate
        combined = np.vstack([data, queries])
        engine = SharedNeighborEngine(data)
        for attrs in (None, (0, 1, 3)):
            full = pairwise_distances(combined, attributes=attrs)
            expected_rows = full[len(data) :, : len(data)]
            assert np.array_equal(engine.query_distances(queries, attrs), expected_rows)
            order = np.argsort(expected_rows, axis=1, kind="stable")[:, :5]
            knn = engine.query_kneighbors(queries, 5, attrs)
            assert np.array_equal(knn.indices, order)
            assert np.array_equal(
                knn.distances, np.take_along_axis(expected_rows, order, axis=1)
            )

    @pytest.mark.parametrize("band_rows", [1, 7, None], ids=["1-row", "7-rows", "default"])
    @pytest.mark.parametrize("route", ["dense", "pruned"])
    def test_holds_nothing_between_calls(self, route, band_rows, monkeypatch):
        # Bands of one row, of seven and the default (all 62 rows in one),
        # under the dense kNN route and the pruned search.  Across calls the
        # engine holds its data and nothing else: no buffer, no
        # per-attribute state, whatever the call mix.
        data = _tie_heavy_data(seed=5)[:, [0, 1, 2, 3, 4, 0, 2, 4]]
        data[:, 5:] += np.arange(3)
        n = data.shape[0]
        if band_rows is not None:
            monkeypatch.setattr(chunks_module, "_CHUNK_CELLS", band_rows * 8 * n)
        if route == "pruned":
            monkeypatch.setattr(engine_module, "_DENSE_MAX_ROWS", n - 1)
        engine = SharedNeighborEngine(data)
        calls = [
            ("kneighbors", (0, 1)), ("distance_matrix", (1, 2, 3)),
            ("rows", (3, 4, 5, 6)), ("kneighbors", (0, 1)), ("kneighbors", (6, 0)),
            ("rows", (7,)), ("distance_matrix", (2, 5, 7)), ("kneighbors", None),
            ("rows", (1, 0)), ("kneighbors", (2, 5, 7)), ("distance_matrix", None),
        ]
        for query, attrs in calls:
            if query == "kneighbors":
                got = engine.kneighbors(4, attrs)
                want = BruteForceKNN(data, attrs).kneighbors(4)
                assert np.array_equal(got.indices, want.indices), (query, attrs)
                assert np.array_equal(got.distances, want.distances), (query, attrs)
            else:
                if query == "rows":
                    got = np.vstack([band.copy() for *_, band in engine.iter_distance_rows(attrs)])
                else:
                    got = engine.distance_matrix(attrs)
                want = pairwise_distances(data, attributes=attrs)
                assert np.array_equal(got, want), (query, attrs)
            assert engine.cache_bytes == 0
            assert vars(engine) == {"_data": engine.data}

    def test_validation(self):
        data = np.random.default_rng(0).normal(size=(10, 3))
        engine = SharedNeighborEngine(data)
        with pytest.raises(ParameterError):
            engine.kneighbors(10)  # k > n - 1 with exclude_self
        with pytest.raises(DataError):
            engine.kneighbors(2, (0, 7))
        with pytest.raises(ParameterError):
            engine.kneighbors(2, ())
        with pytest.raises(DataError):
            engine.query_distances(np.zeros((2, 5)))  # dimension mismatch

    def test_shared_engine_knn_adapter(self):
        data = _tie_heavy_data(seed=6)
        adapter = SharedEngineKNN(data, (0, 2))
        brute = BruteForceKNN(data, (0, 2)).kneighbors(4)
        result = adapter.kneighbors(4)
        assert adapter.n_objects == data.shape[0]
        assert np.array_equal(adapter.engine.data, data)
        assert np.array_equal(result.indices, brute.indices)
        assert np.array_equal(result.distances, brute.distances)
        # The adapter builds its own engine: no engine over other data of
        # the same shape can be handed in.
        other = SharedNeighborEngine(data[::-1].copy())
        with pytest.raises(TypeError):
            SharedEngineKNN(data, (0, 2), engine=other)
        with pytest.raises(DataError):
            SharedEngineKNN(data, (0, 9))


class TestSharedEngineKNN:
    """The searcher ``create_knn_searcher("auto")`` returns on tall data."""

    @pytest.fixture(autouse=True)
    def pruned(self, monkeypatch):
        # Every height counts as tall: the engine answers with the pruned search.
        monkeypatch.setattr(engine_module, "_DENSE_MAX_ROWS", 0)

    def test_pruned_search_matches_brute_force(self):
        data = _tie_heavy_data(seed=5)
        searcher = SharedEngineKNN(data)
        spy = mock.patch.object(
            engine_module, "_pruned_kneighbors", wraps=engine_module._pruned_kneighbors
        )
        with spy as pruned:
            for k in (1, 4, 9):
                result = searcher.kneighbors(k)
                brute = BruteForceKNN(data).kneighbors(k)
                assert np.array_equal(result.indices, brute.indices)
                assert np.array_equal(result.distances, brute.distances)
        assert pruned.call_count == 3

    def test_subspace_projection(self):
        data = np.random.default_rng(3).uniform(size=(100, 5))
        projected = SharedEngineKNN(data, [1, 3])
        result = projected.kneighbors(3)
        brute = BruteForceKNN(data, [1, 3]).kneighbors(3)
        assert np.array_equal(result.indices, brute.indices)
        assert np.array_equal(result.kth_distance(), brute.kth_distance())
        assert not np.array_equal(result.indices, BruteForceKNN(data).kneighbors(3).indices)

    def test_duplicate_points_handled(self):
        # 200 copies of one point: several leaves, every bound is zero.
        data = np.ones((200, 2))
        result = SharedEngineKNN(data).kneighbors(3)
        assert np.array_equal(result.distances, np.zeros((200, 3)))
        assert not np.any(result.indices == np.arange(200)[:, None])
        # Brute-force order on ties: the lowest other indices.
        assert np.array_equal(result.indices[0], [1, 2, 3])
        assert np.array_equal(result.indices[150], [0, 1, 2])

    def test_include_self(self):
        data = _tie_heavy_data(seed=8)
        searcher = SharedEngineKNN(data, (0, 4))
        result = searcher.kneighbors(5, exclude_self=False)
        brute = BruteForceKNN(data, (0, 4)).kneighbors(5, exclude_self=False)
        assert np.array_equal(result.indices, brute.indices)
        assert np.array_equal(result.distances, brute.distances)
        assert np.all(result.distances[:, 0] == 0.0)

    def test_invalid_attributes(self):
        with pytest.raises(DataError):
            SharedEngineKNN(np.zeros((5, 2)), attributes=[9])
        with pytest.raises(ParameterError):
            SharedEngineKNN(np.zeros((5, 2)), attributes=[])

    def test_k_too_large(self):
        with pytest.raises(ParameterError):
            SharedEngineKNN(np.zeros((4, 2))).kneighbors(4)


class TestFactory:
    # The engine's dense kNN pass covers up to n = 3344 rows, the height at
    # which it stopped fitting the engine's former 256 MiB budget.
    LAST_DENSE = 3344

    def test_auto_prefers_brute_for_small_data(self):
        searcher = create_knn_searcher(np.zeros((100, 3)))
        assert isinstance(searcher, BruteForceKNN)

    def test_auto_follows_the_engine_route(self):
        rng = np.random.default_rng(0)
        below = rng.normal(size=(self.LAST_DENSE, 2))
        past = rng.normal(size=(self.LAST_DENSE + 1, 2))
        spy = mock.patch.object(
            engine_module, "_pruned_kneighbors", wraps=engine_module._pruned_kneighbors
        )
        with spy as pruned:
            SharedNeighborEngine(below).kneighbors(3, (0,))
            assert not pruned.called
            SharedNeighborEngine(past).kneighbors(3, (0,))
            assert pruned.call_count == 1
        assert isinstance(create_knn_searcher(below), BruteForceKNN)
        assert isinstance(create_knn_searcher(past, (1,)), SharedEngineKNN)
        assert isinstance(create_knn_searcher(past, algorithm="brute"), BruteForceKNN)

    def test_auto_on_tall_data_matches_brute(self):
        rows = self.LAST_DENSE + 1
        data = np.resize(_tie_heavy_data(seed=7), (rows, 5))  # repeats: ties
        data[::7] += np.random.default_rng(7).normal(size=data[::7].shape)
        auto = create_knn_searcher(data, (1, 3)).kneighbors(5)
        brute = create_knn_searcher(data, (1, 3), algorithm="brute").kneighbors(5)
        assert np.array_equal(brute.indices, auto.indices)
        assert np.array_equal(brute.distances, auto.distances)

    def test_unknown_backend(self):
        with pytest.raises(ParameterError):
            create_knn_searcher(np.zeros((10, 2)), algorithm="balltree")

    def test_retired_names_resolve_through_the_legacy_map(self):
        data = np.random.default_rng(0).normal(size=(50, 2))
        for name in ("kdtree", "shared", " KDTree"):
            assert check_knn_algorithm(name) == "auto"
            assert isinstance(create_knn_searcher(data, algorithm=name), BruteForceKNN)
        assert check_knn_algorithm("BRUTE") == "brute"
        with pytest.raises(ParameterError, match="approximate.*'auto' is exact"):
            create_knn_searcher(data, algorithm="subsample")
        with pytest.raises(ParameterError, match="string"):
            check_knn_algorithm(None)
