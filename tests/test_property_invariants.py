"""Property-based tests (hypothesis) for the batched statistics and the index.

Seven families of invariants:

* the array-level Welch-t / KS implementations are bit-for-bit equal to their
  scalar counterparts on arbitrary sample pairs, and the moments of samples
  stored back to back equal those of each sample alone,
* :class:`SortedDatabaseIndex` structural invariants — each rank column is a
  permutation consistent with the sorted order, also under heavy ties,
* batched subspace slices always hit the target selectivity bounds: every
  condition selects exactly ``block_size`` objects and the conjunction can
  only shrink that set,
* contrasts do not depend on the order of the rows: slicing is rank-based,
  and permuting the rows permutes the LOF scores,
* a common power-of-two scale of the data leaves every LOF score
  bit-identical, on the dense, fused and pruned kNN paths,
* a power-of-two scale per column leaves the Welch search bit-identical,
* a strictly increasing map per column leaves the KS search bit-identical.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from repro.exceptions import DataError
from repro.index import SliceSampler, SortedDatabaseIndex
from repro.neighbors import SharedNeighborEngine
from repro.neighbors import engine as engine_module
from repro.neighbors.distance import pairwise_distances
from repro.outliers import LOFScorer, SubspaceOutlierRanker
from repro.stats.descriptive import sample_moments, sample_moments_batch
from repro.stats.ks import (
    ks_statistic_against_superset_batch,
    ks_two_sample_statistic,
    ks_two_sample_statistic_batch,
)
from repro.stats.tdist import (
    regularized_incomplete_beta,
    regularized_incomplete_beta_batch,
    student_t_two_tailed_pvalue,
    student_t_two_tailed_pvalue_batch,
)
from repro.stats.welch import (
    welch_satterthwaite_df,
    welch_satterthwaite_df_batch,
    welch_t_statistic,
    welch_t_statistic_batch,
    welch_t_test,
    welch_t_test_batch,
)
from repro.subspaces import ContrastEstimator, HiCS
from repro.types import Subspace
from repro.utils import chunks as chunks_module

finite_floats = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)

samples_strategy = st.lists(finite_floats, min_size=1, max_size=60).map(
    lambda values: np.asarray(values, dtype=float)
)


class TestWelchBatchProperties:
    @given(sample_a=samples_strategy, sample_b=samples_strategy)
    @settings(max_examples=60, deadline=None)
    def test_welch_t_test_batch_bit_equal(self, sample_a, sample_b):
        scalar = welch_t_test(sample_a, sample_b)
        t, df, p = welch_t_test_batch([sample_a], sample_b)
        assert t[0] == scalar.statistic
        assert df[0] == scalar.df
        assert p[0] == scalar.pvalue

    @given(
        moments=st.lists(
            st.tuples(
                finite_floats,
                st.floats(min_value=0.0, max_value=1e6),
                st.integers(min_value=1, max_value=500),
            ),
            min_size=1,
            max_size=20,
        ),
        mean_b=finite_floats,
        var_b=st.floats(min_value=0.0, max_value=1e6),
        n_b=st.integers(min_value=1, max_value=500),
    )
    @settings(max_examples=60, deadline=None)
    def test_statistic_and_df_batch_bit_equal(self, moments, mean_b, var_b, n_b):
        means = np.array([m for m, _, _ in moments])
        variances = np.array([v for _, v, _ in moments])
        sizes = np.array([n for _, _, n in moments])
        t_batch = welch_t_statistic_batch(means, variances, sizes, mean_b, var_b, n_b)
        df_batch = welch_satterthwaite_df_batch(variances, sizes, var_b, n_b)
        for i in range(len(moments)):
            assert t_batch[i] == welch_t_statistic(
                means[i], variances[i], int(sizes[i]), mean_b, var_b, n_b
            )
            assert df_batch[i] == welch_satterthwaite_df(
                variances[i], int(sizes[i]), var_b, n_b
            )

    @given(
        ts=st.lists(
            st.floats(min_value=-50, max_value=50, allow_nan=False), min_size=1, max_size=30
        ),
        df=st.floats(min_value=1.0, max_value=500.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_pvalue_batch_bit_equal(self, ts, df):
        t = np.asarray(ts, dtype=float)
        p = student_t_two_tailed_pvalue_batch(t, np.full(t.shape, df))
        for i, value in enumerate(ts):
            assert p[i] == student_t_two_tailed_pvalue(value, df)

    @given(
        a=st.floats(min_value=0.5, max_value=300.0),
        x=st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_incomplete_beta_batch_bit_equal(self, a, x):
        batch = regularized_incomplete_beta_batch(
            np.array([a]), np.array([0.5]), np.array([x])
        )
        assert batch[0] == regularized_incomplete_beta(a, 0.5, x)

    @given(
        lengths=st.lists(
            st.one_of(
                st.integers(min_value=1, max_value=40),
                st.integers(min_value=1, max_value=50_000),
                st.sampled_from([8191, 8192, 8193, 50_000]),
            ),
            min_size=1,
            max_size=6,
        ).flatmap(lambda drawn: st.permutations(drawn + drawn[:2])),
        exponent=st.integers(min_value=-8, max_value=8),
        zeros=st.sampled_from(["none", "negative", "positive", "signed"]),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        chunk_cells=st.sampled_from([1, 56, 20_000, 1 << 18]),
    )
    @example(lengths=[3, 5, 3, 3, 5, 8192, 8192, 1], exponent=0, zeros="negative", seed=0,
             chunk_cells=1 << 18)
    @example(lengths=[3, 3, 3, 3, 3, 5, 5], exponent=0, zeros="none", seed=1, chunk_cells=56)
    @example(lengths=[3, 5, 3, 3, 5, 3, 3], exponent=0, zeros="none", seed=2, chunk_cells=56)
    @settings(max_examples=40, deadline=None)
    def test_sample_moments_batch_bit_equal(self, lengths, exponent, zeros, seed, chunk_cells):
        """Samples stored back to back and reduced by length keep the bits of
        ``sample_moments`` on each sample alone: equal lengths next to each
        other (a reshaped view) or apart (a gathered matrix), lengths across
        numpy's 8192-element buffer, magnitudes 1e-8 to 1e8 and signed zeros,
        and an equal-length block reduced whole or split across row chunks
        (``chunk_cells`` 56 puts two rows of length 3, 48 bytes, in a chunk, 1
        one row).
        """
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(chunks_module, "_CHUNK_CELLS", chunk_cells)
            self._check_moments_batch(lengths, exponent, zeros, seed)

    @staticmethod
    def _check_moments_batch(lengths, exponent, zeros, seed):
        rng = np.random.default_rng(seed)
        samples = [rng.normal(size=n) * 10.0 ** (exponent + rng.uniform(-0.5, 0.5))
                   for n in lengths]
        if zeros == "negative":
            samples[0][:] = -0.0
        elif zeros == "positive":
            samples[0][:] = 0.0
        elif zeros == "signed":
            samples[0][:] = rng.choice([-0.0, 0.0], size=samples[0].size)
        means, variances, sizes = sample_moments_batch(np.concatenate(samples), lengths)
        for i, sample in enumerate(samples):
            expected = np.array(sample_moments(sample)[:2])
            got = np.array([means[i], variances[i]])
            assert np.array_equal(got.view(np.int64), expected.view(np.int64)), i
            assert sizes[i] == sample.size

    def test_sample_moments_batch_rejects_bad_lengths(self):
        with pytest.raises(DataError):
            sample_moments_batch(np.ones(4), [2, 0, 2])
        with pytest.raises(DataError):
            sample_moments_batch(np.ones(4), [2, 3])


class TestKSBatchProperties:
    @given(sample_a=samples_strategy, sample_b=samples_strategy)
    @settings(max_examples=60, deadline=None)
    def test_ks_batch_bit_equal(self, sample_a, sample_b):
        scalar = ks_two_sample_statistic(sample_a, sample_b)
        batch = ks_two_sample_statistic_batch([sample_a], sample_b)
        assert batch[0] == scalar
        presorted = ks_two_sample_statistic_batch(
            [sample_a], sample_b, reference_sorted=np.sort(sample_b)
        )
        assert presorted[0] == scalar

    @given(
        reference=st.lists(finite_floats, min_size=2, max_size=60),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_superset_ks_bit_equal(self, reference, data):
        """On sub-multisets, the reference-support evaluation is exact."""
        ref = np.asarray(reference, dtype=float)
        subset_size = data.draw(st.integers(min_value=1, max_value=len(reference)))
        picks = data.draw(
            st.lists(
                st.integers(min_value=0, max_value=len(reference) - 1),
                min_size=subset_size,
                max_size=subset_size,
            )
        )
        sample = ref[picks]
        scalar = ks_two_sample_statistic(sample, ref)
        batch = ks_statistic_against_superset_batch([sample], np.sort(ref))
        assert batch[0] == scalar


class TestSortedIndexInvariants:
    @given(
        n_objects=st.integers(min_value=1, max_value=80),
        n_dims=st.integers(min_value=1, max_value=6),
        tie_levels=st.integers(min_value=1, max_value=5),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_rank_matrix_columns_are_permutations(
        self, n_objects, n_dims, tie_levels, seed
    ):
        rng = np.random.default_rng(seed)
        # tie_levels == 1 yields a constant column; small levels force ties.
        data = rng.integers(0, tie_levels, size=(n_objects, n_dims)).astype(float)
        index = SortedDatabaseIndex(data)
        ranks = np.column_stack([index.rank_column(a) for a in range(n_dims)])
        assert ranks.shape == (n_objects, n_dims)
        for attribute in range(n_dims):
            column = ranks[:, attribute]
            assert np.array_equal(np.sort(column), np.arange(n_objects))
            order = index.attribute_index(attribute).order
            # order and rank column are inverse permutations of each other.
            assert np.array_equal(order[column], np.arange(n_objects))
            # ranks respect the attribute ordering (stable under ties).
            sorted_by_rank = data[np.argsort(column), attribute]
            assert np.all(np.diff(sorted_by_rank) >= 0)

    @given(
        n_objects=st.integers(min_value=20, max_value=120),
        subspace_size=st.integers(min_value=2, max_value=4),
        alpha=st.floats(min_value=0.05, max_value=0.6),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=30, deadline=None)
    def test_slice_batch_hits_selectivity_bounds(
        self, n_objects, subspace_size, alpha, seed
    ):
        rng = np.random.default_rng(seed)
        data = rng.uniform(size=(n_objects, subspace_size + 1))
        index = SortedDatabaseIndex(data)
        sampler = SliceSampler(index, alpha=alpha)
        subspace = Subspace(range(subspace_size))
        batch = sampler.sample_slice_batch(
            subspace, 8, rng=np.random.default_rng(seed + 1)
        )
        block = sampler.block_size(subspace_size)
        assert sampler.min_block_size <= block <= n_objects
        ranks = np.column_stack([index.rank_column(a) for a in range(index.n_dims)])
        for m in range(batch.n_slices):
            conjunction = np.ones(n_objects, dtype=bool)
            for j, attribute in enumerate(subspace.attributes):
                start = batch.start_ranks[m, j]
                if attribute == batch.test_attributes[m]:
                    assert start == -1  # the test attribute is unconditioned
                    continue
                assert 0 <= start <= n_objects - block
                condition = (ranks[:, attribute] >= start) & (
                    ranks[:, attribute] < start + block
                )
                # Every single condition selects exactly block_size objects.
                assert int(condition.sum()) == block
                conjunction &= condition
            # The conjunction is what the batch reports, and it can only
            # shrink the single-condition selection.
            assert np.array_equal(conjunction, batch.selected[m])
            assert batch.counts[m] == int(conjunction.sum()) <= block

    def test_rank_matrix_is_read_only(self):
        index = SortedDatabaseIndex(np.random.default_rng(0).uniform(size=(30, 3)))
        for attribute in range(3):
            with pytest.raises(ValueError):
                index.rank_column(attribute)[0] = 5
        assert index.ranks(1) is index.rank_column(1)


class TestRowPermutationInvariance:
    """Permuting the rows of tie-free data changes no slice and no contrast,
    and permutes the LOF scores.

    Slices are rank intervals and each subspace's draws derive from the seed
    and its attributes, so the permuted data gets the same draws and the
    same selected objects.  Only the summation order of the Welch moments
    follows the rows (a few ulps); the KS statistic counts ranks and stays
    bit-identical.
    """

    @pytest.mark.parametrize("deviation, tolerance", [("welch", 1e-12), ("ks", 0.0)])
    @given(
        n_objects=st.integers(min_value=60, max_value=600),
        n_dims=st.integers(min_value=2, max_value=5),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=15, deadline=None)
    def test_contrasts_do_not_depend_on_row_order(
        self, deviation, tolerance, n_objects, n_dims, seed
    ):
        rng = np.random.default_rng(seed)
        data = rng.normal(size=(n_objects, n_dims))
        for column in data.T:
            assert np.unique(column).size == n_objects  # no ties
        permuted = data[rng.permutation(n_objects)]
        subspaces = [
            Subspace((a, b)) for a in range(n_dims) for b in range(a + 1, n_dims)
        ] + [Subspace(range(n_dims))]

        def contrasts(matrix):
            return ContrastEstimator(
                matrix, n_iterations=20, deviation=deviation, random_state=seed, cache=False
            ).contrast_many_detailed(subspaces)

        original, shuffled = contrasts(data), contrasts(permuted)
        for subspace in subspaces:
            a, b = original[subspace], shuffled[subspace]
            assert a.n_degenerate == b.n_degenerate
            assert len(a.deviations) == len(b.deviations)
            if tolerance == 0.0:
                assert a.contrast == b.contrast
                assert a.deviations == b.deviations
            else:
                assert abs(a.contrast - b.contrast) <= tolerance
                assert np.allclose(a.deviations, b.deviations, rtol=0.0, atol=tolerance)

    @pytest.mark.parametrize("route", ["fused", "pruned-search"])
    @given(
        n_objects=st.integers(min_value=12, max_value=300),
        n_dims=st.integers(min_value=2, max_value=5),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=15, deadline=None)
    def test_lof_scores_follow_the_rows(self, route, n_objects, n_dims, seed):
        # Without distance ties a neighbour list is ordered by distance alone,
        # so it and every sum over it are the same under any row order.  A
        # dense route for no height makes the engine answer with the pruned
        # search.
        rng = np.random.default_rng(seed)
        data = rng.normal(size=(n_objects, n_dims))
        subspaces = [Subspace((a, b)) for a in range(n_dims) for b in range(a + 1, n_dims)]
        subspaces.append(Subspace(range(n_dims)))
        for subspace in subspaces:
            distances = pairwise_distances(data, subspace.attributes)
            upper = distances[np.triu_indices(n_objects, 1)]
            assume(np.unique(upper).size == upper.size)  # tie-free
        permutation = rng.permutation(n_objects)

        def scores(matrix):
            ranker = SubspaceOutlierRanker(LOFScorer(min_pts=10), max_subspaces=len(subspaces))
            return ranker.rank(matrix, subspaces).scores

        with pytest.MonkeyPatch.context() as patch:
            if route == "pruned-search":
                patch.setattr(engine_module, "_DENSE_MAX_ROWS", 0)
            assert np.array_equal(scores(data[permutation]), scores(data)[permutation])


class TestPowerOfTwoScaleInvariance:
    """Multiplying every coordinate by ``2**e`` is exact, and so is every step
    of LOF after it: squared differences scale by ``4**e``, ``sqrt`` and the
    reach-distances by ``2**e``, the relative floor ``1e-12 * max`` of the
    mean reach-distance by ``2**e`` too, and the lrd ratios cancel the scale.
    The leaf partition and the bounds of the pruned search only order and
    compare such values, so every path returns the unscaled scores bit for
    bit — including a block of duplicates whose mean reach-distance is 0 and
    takes the floor.
    """

    @pytest.mark.parametrize("path", ["brute", "fused", "pruned-search"])
    @given(
        exponent=st.integers(min_value=-400, max_value=400),
        n_objects=st.integers(min_value=12, max_value=200),
        n_dims=st.integers(min_value=1, max_value=4),
        duplicates=st.booleans(),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=20, deadline=None)
    def test_lof_scores_keep_their_bits(
        self, path, exponent, n_objects, n_dims, duplicates, seed
    ):
        rng = np.random.default_rng(seed)
        data = rng.normal(size=(n_objects, n_dims))
        if duplicates:
            data[:11] = data[0]  # each has its 10 neighbours at distance 0
        subspaces = [Subspace((a, b)) for a in range(n_dims) for b in range(a + 1, n_dims)]
        subspaces.append(Subspace(range(n_dims)))

        def scores(matrix):
            if path == "brute":
                return LOFScorer(min_pts=10, algorithm="brute").score_batch(matrix, subspaces)
            # A dense route for no height makes the engine answer with the
            # pruned search.
            with pytest.MonkeyPatch.context() as patch:
                if path == "pruned-search":
                    patch.setattr(engine_module, "_DENSE_MAX_ROWS", 0)
                engine = SharedNeighborEngine(matrix)
                return LOFScorer(min_pts=10).score_batch(matrix, subspaces, engine=engine)

        for scaled, unscaled in zip(scores(data * 2.0**exponent), scores(data)):
            assert np.array_equal(scaled, unscaled)


class TestWelchPowerOfTwoScaleInvariance:
    """Welch moments are taken on each attribute's values times ``2**-e``,
    ``e`` the exponent of the attribute's largest magnitude.  ``ldexp`` by
    ``k`` moves that exponent by exactly ``k``, so the scaled values, and with
    them every ``t``, degree of freedom and contrast, keep their bits — for a
    common ``k`` and for one ``k`` per column, far past the magnitudes where
    unscaled squares over- or underflow (about 1e±154).  Slices are rank
    intervals, which no positive scale moves.
    """

    @staticmethod
    def search(data):
        searcher = HiCS(n_iterations=20, random_state=0)
        found = searcher.search(data)
        return (
            [(s.subspace.attributes, s.score) for s in found],
            sorted((s.attributes, c) for s, c in searcher.evaluated_subspaces_.items()),
        )

    @given(
        exponent=st.integers(min_value=-900, max_value=900),
        per_column=st.lists(
            st.integers(min_value=-900, max_value=900), min_size=4, max_size=4
        ),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    @example(exponent=-300, per_column=[531, -900, 900, 0], seed=0)
    @settings(max_examples=15, deadline=None)
    def test_welch_search_keeps_its_bits(self, exponent, per_column, seed):
        data = np.random.default_rng(seed).normal(size=(300, 4))
        reference = self.search(data)
        assert self.search(np.ldexp(data, exponent)) == reference
        assert self.search(np.ldexp(data, np.array(per_column))) == reference


#: Strictly increasing maps of the real line, applied per column.
MONOTONE_TRANSFORMS = {
    "exp": np.exp,
    "cubic": lambda x: x**3 + x,
    "arctan": np.arctan,
    "affine": lambda x: 2.5 * x + 7.0,
}


class TestKSMonotoneTransformInvariance:
    """A strictly increasing map of a column keeps its order and its ties,
    and slices and the KS statistic read nothing else: slices are rank
    intervals, and KS counts selected objects along each attribute's sorted
    order, with ties collapsed to their group's last index.  So a KS search
    and every deviation of its contrasts keep their bits.  In floats such a
    map can merge or reorder nearby values (``arctan`` saturates at large
    magnitudes, rounding merges close neighbours); the test ``assume``s the
    drawn floats kept each column's order and ties.
    """

    SUBSPACES = [Subspace((0, 1)), Subspace((2, 3)), Subspace((0, 2, 3)), Subspace(range(4))]

    @classmethod
    def search(cls, data):
        searcher = HiCS(n_iterations=20, deviation="ks", random_state=0)
        found = searcher.search(data)
        level = ContrastEstimator(
            data, n_iterations=20, deviation="ks", random_state=0, cache=False
        ).contrast_many_detailed(cls.SUBSPACES)
        return (
            [(s.subspace.attributes, s.score) for s in found],
            sorted((s.attributes, c) for s, c in searcher.evaluated_subspaces_.items()),
            [(level[s].contrast, list(level[s].deviations)) for s in cls.SUBSPACES],
        )

    @given(
        transforms=st.lists(
            st.sampled_from(sorted(MONOTONE_TRANSFORMS)), min_size=4, max_size=4
        ),
        ties=st.booleans(),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=15, deadline=None)
    def test_ks_search_keeps_its_bits(self, transforms, ties, seed):
        data = np.random.default_rng(seed).normal(size=(300, 4))
        if ties:
            data = np.round(data, 1)
        transformed = np.column_stack(
            [MONOTONE_TRANSFORMS[name](column) for name, column in zip(transforms, data.T)]
        )
        for before, after in zip(data.T, transformed.T):
            order = np.argsort(before, kind="stable")
            assume(np.array_equal(order, np.argsort(after, kind="stable")))
            assume(np.array_equal(np.diff(before[order]) == 0, np.diff(after[order]) == 0))
        assert self.search(transformed) == self.search(data)
