"""Sub-quadratic scale suite: row-band assembly, pruned kNN, subsampled contrast.

Two families of guarantees:

* **Chunked exactness** — the paths of the shared engine (row bands for
  distance rows and the dense kNN pass, the pruned leaf search for
  ``kneighbors`` on tall data) reproduce the dense computation: every
  test asserts ``np.array_equal`` (no tolerances) against the dense
  reference, for *every* band height and leaf size from 1 to ``n``, on data
  with duplicate rows and exact distance ties straddling band and leaf
  edges, plus a golden suite of inputs built to break a pruning bound.
* **Replayable subsampling** — the seeded-subsample Monte Carlo contrast is a
  pure function of (data bytes, entropy, subspace): identical across re-runs
  and across the serial/thread/process backends, with the replay pair
  recorded on the result.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import (
    AdaptiveDensityScorer,
    HiCS,
    make_pipeline_from_spec,
    parse_spec,
)
from repro.exceptions import ParameterError
from repro.index.slicing import SliceSampler
from repro.index.sorted_index import SortedDatabaseIndex
from repro.lint import lint_source
from repro.neighbors import BruteForceKNN, SharedNeighborEngine, pairwise_distances
from repro.neighbors import engine as engine_module
from repro.pipeline import PipelineConfig
from repro.subspaces.contrast import ContrastEstimator
from repro.types import Subspace
from repro.utils import chunks as chunks_module
from repro.utils.random_state import subsample_rng

# --------------------------------------------------------------------- data


def _edge_case_data():
    """Small matrix with duplicate rows and exact ties straddling chunk edges.

    Rows 10/11 and 15/16 are exact duplicates (distance 0.0, and every other
    object is equidistant to both), and the lattice values produce many exact
    distance ties — the worst case for chunked top-k merging, because the
    deterministic index tie-break must survive any chunk grouping.
    """
    rng = np.random.default_rng(77)
    data = rng.integers(0, 3, size=(23, 5)).astype(float)
    data[11] = data[10]
    data[16] = data[15]
    return data


EDGE = _edge_case_data()
#: EDGE's lattice levels 0, 1, 2 mapped to inexact floats, duplicates and
#: lattice ties kept.  EDGE's squared differences are small integers, whose
#: sums are exact in any order; these are not, so the sweeps on this copy
#: also pin the order in which the per-dimension terms are added.
EDGE_FLOAT = np.array([0.1, 0.7, 1.9])[EDGE.astype(int)] + np.linspace(0.0, 0.3, 5)
SUBSPACES = [None, (0, 2), (3, 1, 4)]


# ----------------------------------------------------- chunked exactness


def _force_pruned(monkeypatch):
    """Make ``kneighbors`` answer every input with the pruned leaf search."""
    monkeypatch.setattr(engine_module, "_DENSE_MAX_ROWS", 0)


def _force_band_rows(monkeypatch, rows, n):
    """Make the engine assemble distances in bands of ``rows`` rows of ``n`` cells."""
    monkeypatch.setattr(chunks_module, "_CHUNK_CELLS", rows * 8 * n)


class TestStreamingChunkBoundaries:
    data = EDGE

    @pytest.mark.parametrize("attributes", SUBSPACES)
    def test_kneighbors_every_leaf_size(self, attributes, monkeypatch):
        data = self.data
        n = data.shape[0]
        dense = BruteForceKNN(data, attributes).kneighbors(5)
        _force_pruned(monkeypatch)
        for leaf in range(1, n + 1):
            monkeypatch.setattr(engine_module, "_LEAF_SIZE", leaf)
            result = SharedNeighborEngine(data).kneighbors(5, attributes)
            assert np.array_equal(result.indices, dense.indices), leaf
            assert np.array_equal(result.distances, dense.distances), leaf

    @pytest.mark.parametrize("attributes", SUBSPACES)
    def test_iter_distance_rows_every_chunk_size(self, attributes, monkeypatch):
        data = self.data
        n = data.shape[0]
        dense = pairwise_distances(data, attributes=attributes)
        for chunk in range(1, n + 1):
            # Bands of `chunk` rows, assembled from the data columns; the
            # engine holds nothing afterwards.
            _force_band_rows(monkeypatch, chunk, n)
            engine = SharedNeighborEngine(data)
            assembled = np.empty((n, n))
            heights = []
            for start, stop, rows in engine.iter_distance_rows(attributes):
                assembled[start:stop] = rows
                heights.append(stop - start)
            assert heights[:-1] == [chunk] * (len(heights) - 1) and heights[-1] <= chunk, chunk
            assert np.array_equal(assembled, dense), chunk
            assert engine.cache_bytes == 0, chunk

    def test_duplicates_and_ties_straddle_a_leaf_edge(self, monkeypatch):
        # One-point leaves put the duplicate pair (10, 11) in different
        # leaves; the tie at 0.0 and the lattice ties still break by
        # ascending index exactly like the dense argsort.
        data = self.data
        monkeypatch.setattr(engine_module, "_LEAF_SIZE", 1)
        leaves = engine_module._leaf_partition(data)
        assert not any({10, 11} <= set(leaf.tolist()) for leaf in leaves)
        dense = SharedNeighborEngine(data).kneighbors(8)
        _force_pruned(monkeypatch)
        result = SharedNeighborEngine(data).kneighbors(8)
        assert np.array_equal(result.indices, dense.indices)
        assert np.array_equal(result.distances, dense.distances)
        # the duplicate partner is the nearest neighbour, at exactly 0.0
        assert result.indices[10, 0] == 11
        assert result.indices[11, 0] == 10
        assert result.distances[10, 0] == 0.0

    def test_adaptive_density_every_chunk_size(self, monkeypatch):
        data = self.data
        subspaces = [None if a is None else Subspace(a) for a in SUBSPACES]
        scorer = AdaptiveDensityScorer(n_neighbors=5)
        reference = scorer.score_batch(data, subspaces, engine=None)
        n = data.shape[0]
        for chunk in range(1, n + 1):
            _force_band_rows(monkeypatch, chunk, n)
            banded = scorer.score_batch(data, subspaces, engine=SharedNeighborEngine(data))
            for got, expected in zip(banded, reference):
                assert np.array_equal(got, expected), chunk

    def test_pruned_search_holds_nothing(self, monkeypatch):
        data = self.data
        monkeypatch.setattr(engine_module, "_LEAF_SIZE", 3)
        dense = SharedNeighborEngine(data).kneighbors(4)
        _force_pruned(monkeypatch)
        engine = SharedNeighborEngine(data)
        result = engine.kneighbors(4)
        assert np.array_equal(result.indices, dense.indices)
        assert engine.cache_bytes == 0


class TestStreamingChunkBoundariesFloat(TestStreamingChunkBoundaries):
    """The same sweeps on inexact floats, where the summation order shows."""

    data = EDGE_FLOAT


@pytest.mark.parametrize("chunk", ["one row", "three rows", "default"])
def test_assembly_bands_change_no_bit(chunk, monkeypatch):
    """The engine assembles squared distances in row bands under the shared
    chunk budget (:mod:`repro.utils.chunks`), adding each attribute's term
    left to right.  One-row bands, three-row bands that split duplicates and
    the default (one band for all of EDGE) give the bits of the
    ``pairwise_distances`` reference and its stable argsort, on inexact
    floats where the summation order shows, whether the bands fill a whole
    matrix, are yielded one at a time or are reduced to each row's top-k."""
    data = EDGE_FLOAT
    n = data.shape[0]
    rows = {"one row": 1, "three rows": 3}.get(chunk)
    if rows is not None:
        _force_band_rows(monkeypatch, rows, n)
    for attributes in SUBSPACES + [(4, 0, 2, 1)]:
        dense = pairwise_distances(data, attributes=attributes)
        engine = SharedNeighborEngine(data)
        assert np.array_equal(engine.distance_matrix(attributes), dense)
        assembled = np.vstack([band.copy() for *_, band in engine.iter_distance_rows(attributes)])
        assert np.array_equal(assembled, dense)
        for exclude_self in (True, False):
            reference = dense.copy()
            if exclude_self:
                np.fill_diagonal(reference, np.inf)
            order = np.argsort(reference, axis=1, kind="stable")[:, :6]
            got = engine.kneighbors(6, attributes, exclude_self=exclude_self)
            assert np.array_equal(got.indices, order)
            assert np.array_equal(got.distances, np.take_along_axis(reference, order, axis=1))


def _assert_pruned_is_brute(data, k, attributes=None, exclude_self=True):
    # A dense route for no height: kneighbors runs the pruned leaf search.
    spy = mock.patch.object(
        engine_module, "_pruned_kneighbors", wraps=engine_module._pruned_kneighbors
    )
    with mock.patch.object(engine_module, "_DENSE_MAX_ROWS", 0), spy as pruned:
        with np.errstate(over="ignore"):  # squares of the 1e160 rows overflow
            got = SharedNeighborEngine(data).kneighbors(k, attributes, exclude_self=exclude_self)
            want = BruteForceKNN(data, attributes).kneighbors(k, exclude_self=exclude_self)
    assert pruned.call_count == 1
    assert np.array_equal(got.indices, want.indices)
    assert np.array_equal(got.distances, want.distances)


def _lattice(*sides):
    """Every integer point of a grid: many points lie on leaf-box faces."""
    axes = np.meshgrid(*(np.arange(side, dtype=float) for side in sides), indexing="ij")
    return np.stack([axis.ravel() for axis in axes], axis=1)


def _overflowing():
    """Rows near 1e160, whose squared distances overflow to inf, plus a
    small finite cluster and duplicates of both."""
    rng = np.random.default_rng(160)
    data = rng.choice([-1.0, 1.0], size=(60, 3)) * rng.uniform(1.0, 2.0, size=(60, 3)) * 1e160
    data[40:] = rng.normal(size=(20, 3))
    data[5] = data[3]
    data[45] = data[44]
    return data


GOLDEN = {
    "edge": EDGE,
    "identical": np.full((50, 3), 2.5),
    "lattice": _lattice(7, 7, 3),
    "scaled": np.random.default_rng(3).normal(size=(200, 5)) * [1e-3, 1.0, 1e3, 7.0, 0.1],
    "overflow": _overflowing(),
}


class TestPrunedSearchGolden:
    """The pruned leaf search equals ``BruteForceKNN`` bit for bit on inputs
    built to break a pruning bound: ties on leaf-box faces, duplicates,
    overflow to ``inf``, every ``k`` and caller-ordered attributes."""

    @pytest.fixture(params=[1, 3, 8, None], ids=lambda leaf: f"leaf{leaf or 'default'}")
    def leaf_size(self, request, monkeypatch):
        if request.param is not None:
            monkeypatch.setattr(engine_module, "_LEAF_SIZE", request.param)

    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_every_k(self, name, leaf_size):
        data = GOLDEN[name]
        n = data.shape[0]
        for k in sorted({1, 2, 5, n // 2, n - 1}):
            _assert_pruned_is_brute(data, k)
        _assert_pruned_is_brute(data, n, exclude_self=False)
        _assert_pruned_is_brute(data, 3, exclude_self=False)

    @pytest.mark.parametrize(
        "name, attributes",
        [("edge", (3, 1, 4)), ("scaled", (3, 1, 4)), ("scaled", (4, 2, 0, 1)),
         ("lattice", (2,)), ("lattice", (1, 0)), ("scaled", (2,))],
    )
    def test_caller_ordered_attributes(self, name, attributes, leaf_size):
        data = GOLDEN[name]
        for k in (1, 6, data.shape[0] - 1):
            _assert_pruned_is_brute(data, k, attributes)

    def test_overflow_rows_see_their_own_inf(self, leaf_size):
        # Row 0's distances to all other big rows are inf, so with k above
        # its finite neighbours the dense tie-break picks row 0 itself (its
        # own distance is inf too); the pruned search must visit it.
        data = GOLDEN["overflow"]
        with np.errstate(over="ignore"):
            want = BruteForceKNN(data).kneighbors(8)
        assert np.isinf(want.distances[0]).all()
        assert 0 in want.indices[0]
        _assert_pruned_is_brute(data, 8)

    @pytest.mark.parametrize("offset", [-1, 0, 1])
    @pytest.mark.parametrize("kind", ["continuous", "lattice"])
    def test_one_leaf_boundary(self, offset, kind):
        n = engine_module._LEAF_SIZE + offset
        rng = np.random.default_rng(n)
        if kind == "lattice":
            data = rng.integers(0, 3, size=(n, 3)).astype(float)
        else:
            data = rng.normal(size=(n, 3))
        assert len(engine_module._leaf_partition(data)) == (2 if offset > 0 else 1)
        for k in (1, 10, n - 1):
            _assert_pruned_is_brute(data, k)
        _assert_pruned_is_brute(data, n, exclude_self=False)

    @given(
        n=st.integers(min_value=2, max_value=400),
        d=st.integers(min_value=1, max_value=6),
        lattice=st.booleans(),
        leaf=st.integers(min_value=1, max_value=64),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        draw=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_property_equals_brute_force(self, n, d, lattice, leaf, seed, draw):
        rng = np.random.default_rng(seed)
        if lattice:
            data = rng.integers(0, 4, size=(n, d)).astype(float)
        else:
            data = rng.normal(size=(n, d)) * rng.uniform(0.1, 10.0, size=d)
        exclude_self = draw.draw(st.booleans(), label="exclude_self")
        k = draw.draw(st.integers(1, n - 1 if exclude_self else n), label="k")
        attributes = draw.draw(st.permutations(range(d)), label="attributes")
        with mock.patch.object(engine_module, "_LEAF_SIZE", leaf):
            _assert_pruned_is_brute(data, k, attributes, exclude_self)


class TestRowBandScorerEquivalence:
    @pytest.mark.parametrize(
        "scorer", ["lof(min_pts=7)", "knn(k=5)", "adaptive_density(n_neighbors=5)"]
    )
    def test_row_bands_match_per_subspace(self, scorer):
        rng = np.random.default_rng(11)
        data = rng.normal(size=(90, 6))
        data[20] = data[21]
        spec = f"hics(n_iterations=10, random_state=0, n_jobs=1)+{scorer}"
        reference = make_pipeline_from_spec(parse_spec(spec + "+per-subspace")).fit_rank(data)
        # 0.01 MiB holds no 90 x 90 block: every subspace is scored in bands.
        banded = make_pipeline_from_spec(
            parse_spec(spec + "+shared(memory_budget_mb=0.01)")
        ).fit_rank(data)
        assert np.array_equal(reference.scores, banded.scores)


# ------------------------------------------------ subsampled contrast


class TestSubsampledContrast:
    def _data(self, n=160, d=5):
        rng = np.random.default_rng(21)
        data = rng.normal(size=(n, d))
        data[:, 1] = data[:, 0] + 0.05 * rng.normal(size=n)
        return data

    def test_replay_is_identical_and_recorded(self):
        data = self._data()
        subspace = Subspace((0, 1))
        results = []
        for _ in range(2):
            with ContrastEstimator(
                data, n_iterations=12, random_state=9, subsample_size=64
            ) as estimator:
                results.append(estimator.contrast_detailed(subspace))
        first, second = results
        assert first.subsample is not None
        assert first.subsample[0] == 64
        assert first.subsample == second.subsample
        assert first.contrast == second.contrast
        assert np.array_equal(first.deviations, second.deviations)

    @pytest.mark.parametrize("backend", ["serial", "thread(n_jobs=2)", "process(n_jobs=2)"])
    def test_backend_invariance(self, backend):
        data = self._data(n=120)
        subspaces = [Subspace((0, 1)), Subspace((2, 3)), Subspace((0, 1, 4))]
        with ContrastEstimator(
            data, n_iterations=8, random_state=9, subsample_size=48
        ) as reference:
            expected = [reference.contrast_detailed(s) for s in subspaces]
        with ContrastEstimator(
            data,
            n_iterations=8,
            random_state=9,
            subsample_size=48,
            backend=backend,
        ) as estimator:
            actual = estimator.contrast_many_detailed(subspaces)
        for want in expected:
            got = actual[want.subspace]
            assert got.subsample == want.subsample
            assert got.contrast == want.contrast
            assert np.array_equal(got.deviations, want.deviations)

    def test_exact_fallback_when_subsample_covers_database(self):
        data = self._data(n=90)
        subspace = Subspace((0, 1))
        with ContrastEstimator(data, n_iterations=10, random_state=3) as exact:
            want = exact.contrast_detailed(subspace)
        with ContrastEstimator(
            data, n_iterations=10, random_state=3, subsample_size=90
        ) as covered:
            got = covered.contrast_detailed(subspace)
        assert got.subsample is None
        assert got.contrast == want.contrast

    def test_subsample_size_changes_the_estimate(self):
        data = self._data()
        subspace = Subspace((0, 1))
        with ContrastEstimator(
            data, n_iterations=12, random_state=9, subsample_size=64
        ) as small:
            a = small.contrast_detailed(subspace)
        with ContrastEstimator(
            data, n_iterations=12, random_state=9, subsample_size=96
        ) as large:
            b = large.contrast_detailed(subspace)
        assert a.contrast != b.contrast
        assert a.subsample[0] == 64 and b.subsample[0] == 96

    def test_subsample_rng_domain_separated_from_iteration_stream(self):
        one = subsample_rng(123, (0, 1)).integers(0, 2**32, size=4)
        two = subsample_rng(123, (0, 1)).integers(0, 2**32, size=4)
        other = subsample_rng(123, (0, 2)).integers(0, 2**32, size=4)
        assert np.array_equal(one, two)
        assert not np.array_equal(one, other)
        with pytest.raises(ParameterError):
            subsample_rng(-1, (0, 1))

    def test_hics_end_to_end_with_subsample(self):
        data = self._data(n=140)
        searcher = HiCS(
            n_iterations=10, random_state=0, subsample_size=64, candidate_cutoff=40
        )
        scored = searcher.search(data)
        assert scored
        assert (0, 1) in [s.subspace.attributes for s in scored[:5]]

    def test_pipeline_config_field_feeds_fingerprint(self):
        base = PipelineConfig()
        sub = PipelineConfig(hics_subsample=500)
        assert base.fingerprint() != sub.fingerprint()
        assert PipelineConfig.from_dict(sub.to_dict()) == sub


# ------------------------------------------------- chunked rank columns


class TestRankColumns:
    def test_column_equals_stable_argsort_ranks_with_ties(self):
        rng = np.random.default_rng(13)
        data = rng.normal(size=(120, 6))
        data[:, 3] = np.round(data[:, 3], 1)  # heavy ties
        index = SortedDatabaseIndex(data)
        for attribute in range(6):
            expected = np.empty(120, dtype=np.intp)
            expected[np.argsort(data[:, attribute], kind="mergesort")] = np.arange(120)
            assert np.array_equal(index.rank_column(attribute), expected)

    def test_rank_column_is_lazy(self):
        index = SortedDatabaseIndex(EDGE)
        index.rank_column(1)
        assert set(index._rank_columns) == {1}
        assert not index.rank_column(1).flags.writeable

    def test_slice_sampler_does_not_force_full_matrix(self):
        index = SortedDatabaseIndex(np.random.default_rng(0).normal(size=(100, 20)))
        sampler = SliceSampler(index)
        batch = sampler.sample_slice_batch(
            Subspace((2, 7, 11)), 16, rng=np.random.default_rng(4)
        )
        assert batch.selected.shape == (16, 100)
        assert set(index._rank_columns) == {2, 7, 11}

    def test_from_rank_columns_serves_columns(self):
        index = SortedDatabaseIndex(EDGE)
        columns = {a: index.rank_column(a) for a in range(EDGE.shape[1])}
        rebuilt = SortedDatabaseIndex.from_rank_columns(EDGE, columns)
        for attribute in range(EDGE.shape[1]):
            assert np.array_equal(rebuilt.rank_column(attribute), columns[attribute])


# ----------------------------------------------------------- lint rule


class TestLintRecognisesSubsampleRng:
    def test_subsample_rng_counts_as_seed_source(self):
        source = (
            "from repro.utils.random_state import subsample_rng\n"
            "def draw(self):\n"
            "    return subsample_rng(self._entropy, (0, 1))\n"
        )
        assert [f.code for f in lint_source(source).active] == []

    def test_unseeded_helper_argument_still_flagged(self):
        source = (
            "from repro.utils.random_state import subsample_rng\n"
            "def draw(n):\n"
            "    return subsample_rng(n, (0, 1))\n"
        )
        assert [f.code for f in lint_source(source).active] == ["RPR201"]
