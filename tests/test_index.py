"""Unit and property tests for the sorted index and the subspace-slice sampler."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.exceptions import DataError, ParameterError, SubspaceError
from repro.index import AttributeIndex, SliceSampler, SortedDatabaseIndex
from repro.index import sorted_index as sorted_index_module
from repro.types import Subspace


class TestAttributeIndex:
    def test_order_sorts_values(self):
        index = AttributeIndex(np.array([3.0, 1.0, 2.0]))
        assert index.order.tolist() == [1, 2, 0]
        assert index.sorted_values.tolist() == [1.0, 2.0, 3.0]

    def test_block_returns_object_indices(self):
        index = AttributeIndex(np.array([5.0, 1.0, 4.0, 2.0, 3.0]))
        # An index block is a slice of the sorting permutation: ranks 1 and 2
        # hold values 2.0 and 3.0, which live at rows 3 and 4.
        assert sorted(index.order[1:3].tolist()) == [3, 4]

    def test_block_mask(self):
        values = np.array([5.0, 1.0, 4.0])
        index = AttributeIndex(values)
        mask = np.zeros(3, dtype=bool)
        mask[index.order[0:2]] = True
        assert mask.tolist() == [False, True, True]
        # The same block as a rank interval on the rank column.
        ranks = SortedDatabaseIndex(values[:, None]).rank_column(0)
        assert np.array_equal(mask, (ranks >= 0) & (ranks < 2))

    def test_value_bounds(self):
        index = AttributeIndex(np.array([10.0, 30.0, 20.0]))
        # A block covers the value interval [sorted[start], sorted[stop - 1]].
        block_values = index.values[index.order[0:2]]
        assert (block_values.min(), block_values.max()) == (10.0, 20.0)
        assert index.sorted_values[[0, 1]].tolist() == [10.0, 20.0]

    def test_ties_are_stable(self):
        index = AttributeIndex(np.array([1.0, 1.0, 1.0]))
        assert index.order.tolist() == [0, 1, 2]

    def test_empty_rejected(self):
        with pytest.raises(ParameterError):
            AttributeIndex(np.array([]))

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=60))
    @settings(max_examples=50)
    def test_property_block_sizes(self, values):
        ranks = SortedDatabaseIndex(np.asarray(values)[:, None]).rank_column(0)
        block_size = max(1, len(values) // 3)
        start = len(values) - block_size
        mask = (ranks >= start) & (ranks < start + block_size)
        assert mask.sum() == block_size


class TestSortedDatabaseIndex:
    def test_shapes(self, correlated_2d):
        index = SortedDatabaseIndex(correlated_2d)
        assert index.n_objects == 500
        assert index.n_dims == 3

    def test_lazy_build_and_cache(self, correlated_2d):
        index = SortedDatabaseIndex(correlated_2d)
        first = index.attribute_index(0)
        assert index.attribute_index(0) is first

    def test_build_all(self, correlated_2d):
        index = SortedDatabaseIndex(correlated_2d).build_all()
        assert all(a in index for a in range(3))

    def test_out_of_range_attribute(self, correlated_2d):
        index = SortedDatabaseIndex(correlated_2d)
        with pytest.raises(SubspaceError):
            index.attribute_index(3)
        with pytest.raises(SubspaceError):
            index.values(-1)

    def test_values_returns_column(self, correlated_2d):
        index = SortedDatabaseIndex(correlated_2d)
        assert np.array_equal(index.values(1), correlated_2d[:, 1])

    def test_from_rank_columns_rebuilds_identically(self, correlated_2d):
        built = SortedDatabaseIndex(correlated_2d).build_all()
        columns = {a: built.rank_column(a) for a in range(built.n_dims)}
        rebuilt = SortedDatabaseIndex.from_rank_columns(correlated_2d, columns)
        for attribute in range(built.n_dims):
            assert np.array_equal(
                rebuilt.rank_column(attribute), built.rank_column(attribute)
            )
            assert np.array_equal(
                rebuilt.attribute_index(attribute).order,
                built.attribute_index(attribute).order,
            )
            assert np.array_equal(
                rebuilt.attribute_index(attribute).sorted_values,
                built.attribute_index(attribute).sorted_values,
            )

    def test_rank_columns_are_int32_and_kept_without_copies(self, correlated_2d):
        built = SortedDatabaseIndex(correlated_2d).build_all()
        columns = {a: built.rank_column(a) for a in range(built.n_dims)}
        writable = {a: column.copy() for a, column in columns.items()}
        for published in (columns, writable):
            rebuilt = SortedDatabaseIndex.from_rank_columns(correlated_2d, published)
            for attribute, column in published.items():
                served = rebuilt.rank_column(attribute)
                assert served.dtype == np.int32
                assert np.shares_memory(served, column)
                assert not served.flags.writeable
        # Other integer columns are converted.
        wide = {a: column.astype(np.int64) for a, column in columns.items()}
        rebuilt = SortedDatabaseIndex.from_rank_columns(correlated_2d, wide)
        assert rebuilt.rank_column(0).dtype == np.int32
        assert np.array_equal(rebuilt.rank_column(0), columns[0])

    def test_attribute_values_are_rows_of_one_column_matrix(self, correlated_2d, tmp_path):
        """In memory, out of core over a memmapped matrix, and rebuilt from
        rank columns as a worker does, every attribute's values are a row
        view of one read-only, C-contiguous ``(d, n)`` matrix: the index
        holds the data once, as the gather's source, beside its sorted
        values."""
        np.save(tmp_path / "data.npy", correlated_2d)
        mapped = np.load(tmp_path / "data.npy", mmap_mode="r")
        built = SortedDatabaseIndex(correlated_2d).build_all()
        out_of_core = SortedDatabaseIndex(mapped, storage="memmap(chunk_rows=64)").build_all()
        rebuilt = SortedDatabaseIndex.from_rank_columns(
            correlated_2d, {a: built.rank_column(a) for a in range(built.n_dims)}
        )
        try:
            for index in (built, out_of_core, rebuilt):
                columns = index.columns
                assert columns.shape == (3, 500) and columns.dtype == np.float64
                assert columns.flags.c_contiguous and not columns.flags.writeable
                assert np.array_equal(columns, correlated_2d.T)
                for attribute in range(index.n_dims):
                    values = index.attribute_index(attribute).values
                    assert np.shares_memory(values, columns)
                    assert not values.flags.owndata
                    assert np.shares_memory(index.values(attribute), columns)
        finally:
            out_of_core.close()

    def test_more_rows_than_int32_ranks_rejected(self, monkeypatch):
        monkeypatch.setattr(sorted_index_module, "_MAX_ROWS", 10)
        SortedDatabaseIndex(np.zeros((10, 2)))
        with pytest.raises(DataError, match="int32"):
            SortedDatabaseIndex(np.zeros((11, 2)))

    def test_from_rank_columns_rejects_invalid(self, correlated_2d):
        built = SortedDatabaseIndex(correlated_2d).build_all()
        columns = {a: built.rank_column(a).copy() for a in range(built.n_dims)}
        missing = {a: columns[a] for a in range(2)}
        with pytest.raises(ParameterError):
            SortedDatabaseIndex.from_rank_columns(correlated_2d, missing)
        with pytest.raises(ParameterError):
            SortedDatabaseIndex.from_rank_columns(
                correlated_2d, {**columns, 0: columns[0][:-1]}
            )
        out_of_range = columns[0].copy()
        out_of_range[0] = -1
        with pytest.raises(ParameterError):
            SortedDatabaseIndex.from_rank_columns(
                correlated_2d, {**columns, 0: out_of_range}
            )
        duplicated = columns[0].copy()
        duplicated[0] = duplicated[1]  # column no longer a permutation
        with pytest.raises(ParameterError):
            SortedDatabaseIndex.from_rank_columns(correlated_2d, {**columns, 0: duplicated})
        with pytest.raises(ParameterError, match="integers"):
            SortedDatabaseIndex.from_rank_columns(
                correlated_2d, {**columns, 0: columns[0].astype(float)}
            )


def _batch(sampler, subspace, n_slices=20, seed=0):
    return sampler.sample_slice_batch(
        subspace, n_slices, rng=np.random.default_rng(seed)
    )


class TestSliceSampler:
    @pytest.fixture
    def sampler(self, correlated_2d) -> SliceSampler:
        return SliceSampler(SortedDatabaseIndex(correlated_2d), alpha=0.2)

    def test_per_condition_fraction(self, sampler):
        assert sampler.per_condition_fraction(2) == pytest.approx(np.sqrt(0.2))
        assert sampler.per_condition_fraction(4) == pytest.approx(0.2 ** 0.25)

    def test_per_condition_fraction_requires_2d(self, sampler):
        with pytest.raises(SubspaceError):
            sampler.per_condition_fraction(1)

    def test_block_size_scales_with_dimensionality(self, sampler):
        assert sampler.block_size(2) == round(500 * np.sqrt(0.2))
        assert sampler.block_size(5) > sampler.block_size(2)

    def test_expected_conditional_size_2d(self, sampler):
        # For |S| = 2 there is a single condition of selectivity sqrt(alpha).
        assert sampler.expected_conditional_size(2) == pytest.approx(500 * np.sqrt(0.2))

    def test_batch_masks_and_conditions(self, sampler):
        batch = _batch(sampler, Subspace((0, 1)))
        assert set(batch.test_attributes.tolist()) <= {0, 1}
        # The test attribute of each iteration carries no condition (-1);
        # the other attribute carries one block.
        is_test = np.array([0, 1])[None, :] == batch.test_attributes[:, None]
        assert np.all((batch.start_ranks == -1) == is_test)
        assert np.all(batch.counts == sampler.block_size(2))
        assert np.array_equal(batch.counts, batch.selected.sum(axis=1))

    def test_batch_draws_every_test_attribute(self, sampler):
        batch = _batch(sampler, Subspace((0, 1, 2)), n_slices=30)
        assert set(batch.test_attributes.tolist()) == {0, 1, 2}

    def test_one_dimensional_subspace_rejected(self, sampler):
        with pytest.raises(SubspaceError):
            _batch(sampler, Subspace((0,)))

    def test_subspace_out_of_range(self, sampler):
        with pytest.raises(SubspaceError):
            _batch(sampler, Subspace((0, 9)))

    def test_batch_masks_match_index_blocks(self, sampler):
        """Each mask is the conjunction of the index blocks of its conditions."""
        subspace = Subspace((0, 1, 2))
        batch = _batch(sampler, subspace)
        for m in range(batch.n_slices):
            expected = np.ones(sampler.index.n_objects, dtype=bool)
            for j, attribute in enumerate(subspace.attributes):
                start = int(batch.start_ranks[m, j])
                if start >= 0:
                    block = np.zeros_like(expected)
                    order = sampler.index.attribute_index(attribute).order
                    block[order[start : start + batch.block_size]] = True
                    expected &= block
            assert np.array_equal(batch.selected[m], expected)

    def test_batch_slice_count(self, sampler):
        assert _batch(sampler, Subspace((0, 1)), n_slices=5).n_slices == 5

    def test_batch_invalid_count(self, sampler):
        with pytest.raises(ParameterError):
            _batch(sampler, Subspace((0, 1)), n_slices=0)

    def test_invalid_constructor_arguments(self, correlated_2d):
        index = SortedDatabaseIndex(correlated_2d)
        with pytest.raises(ParameterError):
            SliceSampler(index, alpha=0.0)
        with pytest.raises(ParameterError):
            SliceSampler(index, alpha=1.0)
        with pytest.raises(ParameterError):
            SliceSampler(index, alpha=0.5, min_block_size=0)
        with pytest.raises(ParameterError):
            SliceSampler("not an index", alpha=0.5)

    def test_reproducible_with_seed(self, correlated_2d):
        index = SortedDatabaseIndex(correlated_2d)
        a = _batch(SliceSampler(index, alpha=0.3), Subspace((0, 1)), seed=42)
        b = _batch(SliceSampler(index, alpha=0.3), Subspace((0, 1)), seed=42)
        assert np.array_equal(a.test_attributes, b.test_attributes)
        assert np.array_equal(a.start_ranks, b.start_ranks)
        assert np.array_equal(a.selected, b.selected)

    @given(
        alpha=st.floats(min_value=0.05, max_value=0.9),
        dims=st.integers(min_value=2, max_value=5),
    )
    @settings(max_examples=30, deadline=None)
    def test_property_conditional_size_independent_of_dimensionality(self, alpha, dims):
        """The expected conditional sample size stays near N * alpha^((d-1)/d).

        This is the paper's central argument for why the slices avoid the curse
        of dimensionality: every condition selects an exact index block, so the
        selected fraction per condition is deterministic; only the overlap of
        conditions is random.
        """
        rng = np.random.default_rng(0)
        data = rng.uniform(size=(400, dims))
        sampler = SliceSampler(SortedDatabaseIndex(data), alpha=alpha)
        sizes = _batch(sampler, Subspace(range(dims)), n_slices=15, seed=1).counts
        expected = sampler.expected_conditional_size(dims)
        # Generous tolerance: overlaps fluctuate, but the mean must track the
        # analytic expectation within a factor of ~2 in both directions.
        assert expected / 2.5 <= np.mean(sizes) <= expected * 2.5 + 5
