"""Golden-equivalence suite: the batch contrast estimator against an oracle.

The contract under test is the strongest one the library makes: the
vectorised contrast estimator must reproduce the paper's per-iteration recipe
**bit for bit** under a shared seed — across deviation functions, alphas,
subspace sizes, degenerate data (ties, constant columns) and the
retry/degradation edge cases.  The recipe lives here as a test oracle
(:func:`oracle_contrast`): one boolean selection mask per iteration, built
condition by condition, and one scalar two-sample test on the masked sample.
A single ulp of drift anywhere in the slicing, moment extraction or p-value
pipeline fails these tests.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np
import pytest

from repro.exceptions import ParameterError
from repro.registry import make_searcher
from repro.subspaces import HiCS
from repro.subspaces import contrast as contrast_module
from repro.subspaces.contrast import ContrastCache, ContrastEstimator
from repro.types import ContrastResult, Subspace
from repro.utils import chunks as chunks_module


def _shadowing_welch(conditional, marginal):
    """Module-level (picklable) custom deviation named like the built-in."""
    return 0.25


_shadowing_welch.__name__ = "welch"


def make_estimator(data, **overrides):
    params = dict(n_iterations=20, random_state=5, cache=False)
    params.update(overrides)
    return ContrastEstimator(data, **params)


def oracle_slices(estimator, subspace):
    """The seeded draw recipe of a subspace's slices, one step at a time.

    A test-side copy of the protocol every contrast rests on, so that a
    change in the draw order fails the golden suite: the subspace's own
    generator (root entropy, spawn key = its attributes), then one test
    position per iteration, then the start ranks of the conditioned
    attributes row by row, then redraw rounds for the rows whose selection is
    too small (new start ranks, same test attribute).  Each iteration's mask
    is built condition by condition from the index blocks
    ``order[start:start + block]`` — not from the rank columns.

    Returns ``(test_attributes, masks, degenerate)``.
    """
    rng = np.random.default_rng(
        np.random.SeedSequence(estimator.root_entropy, spawn_key=subspace.attributes)
    )
    index = estimator.index
    n, d, m_total = index.n_objects, subspace.dimensionality, estimator.n_iterations
    block = int(min(n, max(2, int(round(n * float(estimator.alpha ** (1.0 / d)))))))
    max_start = n - block

    def draw_starts(rows):
        if max_start > 0:
            return rng.integers(0, max_start + 1, size=(rows, d - 1))
        return np.zeros((rows, d - 1), dtype=np.intp)

    def mask(test_position, starts):
        selected = np.ones(n, dtype=bool)
        conditioned = [a for j, a in enumerate(subspace.attributes) if j != test_position]
        for attribute, start in zip(conditioned, starts):
            order = index.attribute_index(attribute).order
            condition = np.zeros(n, dtype=bool)
            condition[order[start : start + block]] = True
            selected &= condition
        return selected

    test_positions = rng.integers(0, d, size=m_total)
    starts = draw_starts(m_total)
    masks = [mask(test_positions[m], starts[m]) for m in range(m_total)]
    for _ in range(estimator.max_retries):
        failing = [m for m in range(m_total) if masks[m].sum() < estimator.min_conditional_size]
        if not failing:
            break
        for m, redrawn in zip(failing, draw_starts(len(failing))):
            masks[m] = mask(test_positions[m], redrawn)
    degenerate = [
        masks[m].sum() < max(2, estimator.min_conditional_size) for m in range(m_total)
    ]
    test_attributes = [subspace.attributes[p] for p in test_positions]
    return test_attributes, masks, degenerate


def oracle_contrast(estimator, subspace):
    """Algorithm 1 one iteration at a time: the reference for the estimator.

    Draws its own slices (:func:`oracle_slices`) and runs one scalar
    two-sample test per valid iteration on the masked conditional sample,
    taken from the data matrix itself rather than from the index's column
    matrix that the estimator gathers from.
    """
    test_attributes, masks, degenerate = oracle_slices(estimator, subspace)
    deviations = []
    for attribute, selected, skip in zip(test_attributes, masks, degenerate):
        if not skip:
            values = np.ascontiguousarray(estimator.index.data[:, attribute])
            deviations.append(float(estimator.deviation(values[selected], values)))
    return ContrastResult(
        subspace=subspace,
        contrast=float(np.mean(deviations)) if deviations else 0.0,
        deviations=tuple(deviations),
        n_iterations=estimator.n_iterations,
        n_degenerate=int(sum(degenerate)),
    )


def assert_identical(result_a, result_b):
    assert result_a.contrast == result_b.contrast
    assert result_a.deviations == result_b.deviations
    assert result_a.n_degenerate == result_b.n_degenerate
    assert result_a.n_iterations == result_b.n_iterations


@pytest.fixture(scope="module")
def mixed_data():
    """Six columns: a correlated pair, uniforms, heavy ties, a constant."""
    rng = np.random.default_rng(17)
    x = rng.uniform(size=300)
    return np.column_stack(
        [
            x,
            x + rng.normal(0.0, 0.02, size=300),
            rng.uniform(size=300),
            rng.integers(0, 4, size=300).astype(float),  # heavy ties
            np.full(300, 1.25),  # constant column
            rng.normal(size=300),
        ]
    )


@pytest.fixture()
def tiny_data():
    """Twelve rows: small enough that slices get redrawn and stay degenerate."""
    rng = np.random.default_rng(3)
    return rng.uniform(size=(12, 4))


class TestGoldenEquivalence:
    @pytest.mark.parametrize("deviation", ["welch", "ks", "cvm", "mean-shift"])
    @pytest.mark.parametrize("alpha", [0.05, 0.1, 0.35])
    def test_batch_matches_oracle_across_deviations_and_alphas(
        self, mixed_data, deviation, alpha
    ):
        subspaces = [Subspace(p) for p in combinations(range(6), 2)]
        subspaces += [Subspace((0, 1, 2)), Subspace((1, 3, 5)), Subspace((0, 1, 2, 3))]
        batch = make_estimator(mixed_data, deviation=deviation, alpha=alpha)
        reference = make_estimator(mixed_data, deviation=deviation, alpha=alpha)
        for subspace in subspaces:
            assert_identical(
                batch.contrast_detailed(subspace), oracle_contrast(reference, subspace)
            )

    @pytest.mark.parametrize("seed", [0, 1, 99, 2**40])
    def test_batch_matches_oracle_across_seeds(self, mixed_data, seed):
        subspace = Subspace((0, 1, 5))
        estimator = make_estimator(mixed_data, random_state=seed)
        assert_identical(
            estimator.contrast_detailed(subspace), oracle_contrast(estimator, subspace)
        )

    def test_contrast_many_matches_individual_calls(self, mixed_data):
        subspaces = [Subspace(p) for p in combinations(range(6), 2)]
        estimator = make_estimator(mixed_data)
        level = estimator.contrast_many(subspaces)
        for subspace in subspaces:
            single = make_estimator(mixed_data).contrast(subspace)
            assert level[subspace] == single

    @pytest.mark.parametrize("deviation", ["welch", "ks", "mean-shift"])
    def test_subspace_alone_matches_subspace_in_level(self, mixed_data, deviation):
        """A level shares one p-value pass; every result keeps its own bits."""
        subspaces = [Subspace(p) for p in combinations(range(6), 2)]
        subspaces += [Subspace((0, 1, 2)), Subspace((1, 3, 5))]
        level = make_estimator(mixed_data, deviation=deviation).contrast_many_detailed(
            subspaces
        )
        assert list(level) == subspaces
        for subspace in subspaces:
            alone = make_estimator(mixed_data, deviation=deviation).contrast_detailed(
                subspace
            )
            assert_identical(level[subspace], alone)

    @pytest.mark.parametrize("deviation", ["welch", "ks", "mean-shift"])
    @pytest.mark.parametrize("group_cells", [1, 3 * 20 * 300, 1 << 30])
    def test_group_budget_changes_no_bit(
        self, mixed_data, deviation, group_cells, monkeypatch
    ):
        """One subspace per group, groups of three, or one group: a level
        reduced together keeps every subspace's oracle bits."""
        monkeypatch.setattr(contrast_module, "_GROUP_CELLS", group_cells)
        subspaces = [Subspace(p) for p in combinations(range(6), 2)]
        subspaces += [Subspace((0, 1, 2)), Subspace((1, 3, 5)), Subspace((0, 1, 2, 3))]
        level = make_estimator(mixed_data, deviation=deviation).contrast_many_detailed(
            subspaces
        )
        reference = make_estimator(mixed_data, deviation=deviation)
        for subspace in subspaces:
            assert_identical(level[subspace], oracle_contrast(reference, subspace))

    @pytest.mark.parametrize("deviation", ["welch", "ks", "mean-shift"])
    @pytest.mark.parametrize("chunk", ["one row", "three rows", "default"])
    def test_row_chunks_change_no_bit(
        self, mixed_data, tiny_data, deviation, chunk, monkeypatch
    ):
        """The masks, the gather, the moments and KS walk their rows in
        chunks under one cell budget.  One row per chunk is the tall case:
        the test attribute's compare is skipped and every stage goes row by
        row.  Three mask rows per chunk mix rows that do and do not condition
        on an attribute, gather several test attributes at once and split
        equal-length moment blocks across chunks.  The default holds a whole
        subspace.  Every level keeps its oracle bits, redrawn and degenerate
        rows included."""
        cases = [
            (make_estimator(mixed_data, deviation=deviation), [
                *(Subspace(p) for p in combinations(range(6), 2)),
                Subspace((0, 1, 2)), Subspace((1, 3, 5)), Subspace((0, 1, 2, 3)),
            ]),
            (ContrastEstimator(
                tiny_data, n_iterations=30, alpha=0.05, min_conditional_size=9,
                max_retries=1, random_state=4, cache=False, deviation=deviation,
            ), [Subspace((0, 1)), Subspace((0, 1, 2, 3)), Subspace((1, 2))]),
        ]
        for estimator, subspaces in cases:
            cells = {"one row": 1, "three rows": 3 * estimator.n_objects}.get(chunk)
            if cells is not None:
                monkeypatch.setattr(chunks_module, "_CHUNK_CELLS", cells)
            level = estimator.contrast_many_detailed(subspaces)
            monkeypatch.undo()
            for subspace in subspaces:
                assert_identical(level[subspace], oracle_contrast(estimator, subspace))
        assert level[Subspace((0, 1, 2, 3))].n_degenerate > 0

    def test_all_degenerate_subspace_inside_a_level(self):
        """A subspace with no valid iteration scores 0.0 inside a level too
        (the level once fed its empty sample to the moment statistics)."""
        data = np.random.default_rng(3).uniform(size=(12, 4))
        estimator = ContrastEstimator(
            data,
            n_iterations=10,
            alpha=0.05,
            min_conditional_size=50,
            max_retries=2,
            random_state=0,
            cache=False,
        )
        level = estimator.contrast_many_detailed(
            [Subspace((0, 1, 2)), Subspace((1, 2, 3))]
        )
        for result in level.values():
            assert result.contrast == 0.0
            assert result.deviations == ()
            assert result.n_degenerate == 10

    def test_contrast_many_matches_oracle(self, mixed_data):
        subspaces = [Subspace(p) for p in combinations(range(6), 2)]
        estimator = make_estimator(mixed_data)
        level = estimator.contrast_many(subspaces)
        for subspace in subspaces:
            assert level[subspace] == oracle_contrast(estimator, subspace).contrast

    def test_order_independence(self, mixed_data):
        """Per-subspace seeding: evaluation order cannot change any contrast."""
        subspaces = [Subspace(p) for p in combinations(range(6), 2)]
        forward = make_estimator(mixed_data).contrast_many(subspaces)
        backward = make_estimator(mixed_data).contrast_many(subspaces[::-1])
        assert forward == backward

    def test_custom_callable_deviation_parity(self, mixed_data):
        def trimmed_range(conditional, marginal):
            return float(
                min(1.0, abs(np.median(conditional) - np.median(marginal)))
            )

        subspace = Subspace((0, 1, 2))
        estimator = make_estimator(mixed_data, deviation=trimmed_range)
        assert_identical(
            estimator.contrast_detailed(subspace), oracle_contrast(estimator, subspace)
        )

    def test_parallel_matches_sequential(self, mixed_data):
        subspaces = [Subspace(p) for p in combinations(range(6), 2)]
        sequential = make_estimator(mixed_data).contrast_many(subspaces)
        with make_estimator(mixed_data, backend="process(n_jobs=2)") as estimator:
            parallel = estimator.contrast_many(subspaces)
        assert sequential == parallel

    def test_parallel_with_custom_callable_deviation(self, mixed_data):
        """Workers receive the callable itself, not a (possibly wrong) name."""
        subspaces = [Subspace((0, 1)), Subspace((1, 2)), Subspace((2, 3))]
        sequential = make_estimator(
            mixed_data, deviation=_shadowing_welch
        ).contrast_many(subspaces)
        with make_estimator(
            mixed_data, deviation=_shadowing_welch, backend="process(n_jobs=2)"
        ) as estimator:
            parallel = estimator.contrast_many(subspaces)
        assert sequential == parallel
        assert all(v == 0.25 for v in parallel.values())

    def test_hics_search_contrasts_match_oracle(self, mixed_data):
        searcher = HiCS(
            n_iterations=15, candidate_cutoff=10, max_dimensionality=3, random_state=2
        )
        searcher.search(mixed_data)
        reference = make_estimator(mixed_data, n_iterations=15, random_state=2)
        assert len(searcher.levels_) == 2
        for subspace, contrast in searcher.evaluated_subspaces_.items():
            assert contrast == oracle_contrast(reference, subspace).contrast, subspace


class TestDegenerateRetryFallback:
    """The documented min_conditional_size degradation (regression tests).

    Historically, iterations whose slice stayed too small after all retries
    fell through to the statistical test anyway (or silently appended a
    deviation of 0.0), skewing the contrast mean downward.  The fixed
    behaviour: such iterations are *excluded* from the mean, counted in
    ``n_degenerate``, and all of it is deterministic under a seed.
    """

    def test_degenerate_iterations_are_excluded_not_zeroed(self, tiny_data):
        estimator = ContrastEstimator(
            tiny_data,
            n_iterations=30,
            alpha=0.05,
            min_conditional_size=9,
            max_retries=1,
            random_state=0,
            cache=False,
        )
        result = estimator.contrast_detailed(Subspace((0, 1, 2, 3)))
        assert result.n_degenerate > 0
        assert len(result.deviations) == result.n_iterations - result.n_degenerate
        if result.deviations:
            # The mean is over the surviving deviations only — no zero padding.
            assert result.contrast == pytest.approx(np.mean(result.deviations))

    def test_all_degenerate_yields_zero_contrast(self, tiny_data):
        estimator = ContrastEstimator(
            tiny_data,
            n_iterations=10,
            alpha=0.05,
            min_conditional_size=50,  # impossible to satisfy on 12 objects
            max_retries=2,
            random_state=0,
            cache=False,
        )
        result = estimator.contrast_detailed(Subspace((0, 1, 2)))
        assert result.n_degenerate == 10
        assert result.deviations == ()
        assert result.contrast == 0.0

    def test_degradation_is_deterministic(self, tiny_data):
        def run():
            return ContrastEstimator(
                tiny_data,
                n_iterations=25,
                alpha=0.05,
                min_conditional_size=9,
                max_retries=1,
                random_state=8,
                cache=False,
            ).contrast_detailed(Subspace((0, 1, 2, 3)))

        first, second = run(), run()
        assert_identical(first, second)

    def test_degenerate_parity_with_oracle(self, tiny_data):
        estimator = ContrastEstimator(
            tiny_data,
            n_iterations=30,
            alpha=0.05,
            min_conditional_size=9,
            max_retries=1,
            random_state=4,
            cache=False,
        )
        subspace = Subspace((0, 1, 2, 3))
        batch = estimator.contrast_detailed(subspace)
        assert batch.n_degenerate > 0
        assert_identical(batch, oracle_contrast(estimator, subspace))

    def test_degenerate_and_valid_subspaces_share_a_group(self, tiny_data):
        estimator = ContrastEstimator(
            tiny_data,
            n_iterations=30,
            alpha=0.05,
            min_conditional_size=9,
            max_retries=1,
            random_state=4,
            cache=False,
        )
        subspaces = [Subspace((0, 1)), Subspace((0, 1, 2, 3)), Subspace((1, 2))]
        level = estimator.contrast_many_detailed(subspaces)
        assert level[Subspace((0, 1, 2, 3))].n_degenerate > 0
        for subspace in subspaces:
            assert_identical(level[subspace], oracle_contrast(estimator, subspace))

    def test_retries_recover_small_slices(self, correlated_2d):
        """With generous retries, normal data produces no degenerate iterations."""
        estimator = ContrastEstimator(
            correlated_2d,
            n_iterations=25,
            min_conditional_size=5,
            max_retries=10,
            random_state=0,
            cache=False,
        )
        result = estimator.contrast_detailed(Subspace((0, 1)))
        assert result.n_degenerate == 0
        assert len(result.deviations) == 25


class TestContrastCache:
    def test_cache_hit_returns_identical_result(self, mixed_data):
        estimator = make_estimator(mixed_data, cache=True)
        subspace = Subspace((0, 1))
        first = estimator.contrast_detailed(subspace)
        second = estimator.contrast_detailed(subspace)
        assert first is second
        assert estimator.cache.hits == 1

    def test_cache_shared_between_estimators(self, mixed_data):
        shared = ContrastCache()
        first = make_estimator(mixed_data, cache=shared)
        second = make_estimator(mixed_data, cache=shared, backend="process(n_jobs=2)")
        subspace = Subspace((0, 2))
        result = first.contrast_detailed(subspace)
        # Throughput knobs stay out of the key: identical key, identical value.
        assert second.contrast_detailed(subspace) is result
        assert shared.hits == 1

    def test_different_seeds_do_not_collide(self, mixed_data):
        shared = ContrastCache()
        a = make_estimator(mixed_data, cache=shared, random_state=1)
        b = make_estimator(mixed_data, cache=shared, random_state=2)
        subspace = Subspace((0, 5))
        a.contrast(subspace)
        b.contrast(subspace)
        assert len(shared) == 2

    def test_custom_callable_never_aliases_builtin_in_cache(self, mixed_data):
        """A custom deviation named 'welch' must not hit the built-in's entry."""
        shared = ContrastCache()
        subspace = Subspace((0, 1))
        builtin = make_estimator(mixed_data, cache=shared, deviation="welch")
        custom = make_estimator(mixed_data, cache=shared, deviation=_shadowing_welch)
        assert builtin.contrast(subspace) != 0.25
        assert custom.contrast(subspace) == 0.25
        assert len(shared) == 2

    def test_different_data_does_not_collide(self, mixed_data, uncorrelated_3d):
        shared = ContrastCache()
        a = make_estimator(mixed_data, cache=shared)
        b = make_estimator(uncorrelated_3d, cache=shared)
        subspace = Subspace((0, 1))
        assert a.contrast(subspace) != b.contrast(subspace) or len(shared) == 2
        assert len(shared) == 2

    def test_cache_bounded_eviction(self):
        cache = ContrastCache(max_entries=2)
        for i in range(4):
            cache.put(("key", i), object())
        assert len(cache) == 2

    def test_contrast_many_uses_cache(self, mixed_data):
        estimator = make_estimator(mixed_data, cache=True)
        subspaces = [Subspace(p) for p in combinations(range(4), 2)]
        first = estimator.contrast_many(subspaces)
        misses = estimator.cache.misses
        second = estimator.contrast_many(subspaces)
        assert first == second
        assert estimator.cache.misses == misses  # second sweep is all hits

    def test_hics_shared_cache_across_fits(self, mixed_data):
        searcher = HiCS(
            n_iterations=10,
            candidate_cutoff=8,
            max_dimensionality=2,
            random_state=0,
            cache=True,
        )
        first = searcher.search(mixed_data)
        cache = searcher._shared_cache
        assert cache is not None and cache.misses > 0
        misses_after_first = cache.misses
        second = searcher.search(mixed_data)
        assert [(s.subspace, s.score) for s in first] == [
            (s.subspace, s.score) for s in second
        ]
        assert cache.misses == misses_after_first

    def test_invalid_cache_argument_rejected(self, mixed_data):
        with pytest.raises(ParameterError):
            ContrastEstimator(mixed_data, cache="yes")


class TestEngineParameter:
    def test_unknown_engine_rejected(self, mixed_data):
        # Payloads carrying the retired engine=batch|scalar load with the
        # parameter dropped (tests/test_persistence.py); other values fail.
        with pytest.raises(ParameterError, match="engine"):
            make_searcher("hics", engine="quantum")
        with pytest.raises(TypeError):
            ContrastEstimator(mixed_data, engine="batch")

    def test_invalid_n_jobs_rejected(self, mixed_data):
        # n_jobs is a parameter of the backend only.
        with pytest.raises(TypeError):
            ContrastEstimator(mixed_data, n_jobs=2)
        with pytest.raises(ParameterError):
            ContrastEstimator(mixed_data, backend="process(n_jobs=0)")
        with pytest.raises(ParameterError):
            ContrastEstimator(mixed_data, backend="process(n_jobs=-2)")

    def test_n_jobs_all_cores_accepted(self, mixed_data):
        with ContrastEstimator(
            mixed_data, backend="process(n_jobs=-1)", cache=False
        ) as estimator:
            assert estimator._execution_backend().n_jobs >= 1
