"""Monte Carlo estimation of the subspace contrast (Algorithm 1).

For a subspace ``S`` the contrast is

.. math::

    contrast(S) = \\frac{1}{M} \\sum_{i=1}^{M}
        deviation(\\hat p_{s_i}, \\hat p_{s_i | C_i})

where each iteration draws a random test attribute ``s_i ∈ S`` (via a random
permutation of the subspace attributes) and a random subspace slice ``C_i``
conditioning the remaining ``|S| - 1`` attributes on adaptive index blocks of
per-condition selectivity ``alpha^(1/|S|)``.  The deviation function is a
two-sample statistical test comparing the conditional sample against the
marginal sample (Welch's t-test for HiCS_WT, the KS statistic for HiCS_KS).

Every contrast takes one route (:meth:`ContrastEstimator.contrast_many` and
its siblings all call it): each requested subspace is validated once, cache
hits are served, and the misses are evaluated in groups of whole subspaces
under a fixed cell budget.  Each subspace draws its ``M`` slices from its own
generator through :meth:`~repro.index.SliceSampler.sample_slice_batch`,
whose selection masks are evaluated against the ``int32`` rank columns of
the index.  The group's valid mask rows are ordered by conditional sample
size and walked in row chunks that fit in cache
(:func:`~repro.utils.chunks.row_chunks`): each chunk gets one
``flatnonzero`` and one gather from the index's ``(d, n)`` column matrix
(:attr:`~repro.index.SortedDatabaseIndex.columns`), so a tall search never
holds a whole-group copy.  The moments of every sample of one size are one
matrix reduction, taken in the same row chunks, and Welch's ``t``/``df``
are one array pass per group, on each attribute's values scaled by a power
of two.  Welch keeps only the ``t``/``df`` pairs and one p-value call covers
every group; KS reads the masks in the rank domain, chunk by chunk, and
custom deviations are called per sample
(:func:`~repro.stats.deviation.get_batch_deviation_function`).  The result is
bit-for-bit what the paper's per-iteration recipe gives — one boolean mask
per iteration, built condition by condition from the index blocks
``order[start:start + block]``, and one scalar two-sample test per
iteration — which is kept as the oracle of the golden-equivalence suite
(``oracle_contrast`` in ``tests/test_contrast_batch.py``).  The Welch scale
is exact, so this holds wherever the unscaled moments neither overflow nor
underflow; beyond that range only the scaled moments stay finite.

The randomness of each subspace evaluation is derived from the estimator seed
*and* the subspace's attributes, so a subspace's contrast does not depend on
evaluation order or on the other subspaces it is evaluated with.  That
property makes results cacheable (:class:`ContrastCache`) and lets an
execution backend (:mod:`repro.parallel`) evaluate groups of pending
subspaces in its workers — with the same evaluation function — without
changing a single bit of the output.  Process backends keep one persistent
worker pool across all apriori levels of a fit and publish the data matrix
plus the rank columns through a shared-memory plane, so workers attach
zero-copy under any start method instead of receiving a pickled copy per
level.
"""

from __future__ import annotations

import logging
import math
import threading
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..dataset.fingerprint import array_fingerprint
from ..dataset.memmap import StorageSpec, check_storage_spec
from ..exceptions import ParameterError, SubspaceError
from ..index import SliceBatch, SliceSampler, SortedDatabaseIndex
from ..parallel import (
    ExecutionBackend,
    WorkerContext,
    check_backend_spec,
    default_chunksize,
    resolve_backend,
)
from ..stats.descriptive import sample_moments, sample_moments_batch
from ..stats.deviation import (
    DeviationFunction,
    get_batch_deviation_function,
    get_deviation_function,
    ks_deviation,
    welch_deviation,
)
from ..stats.tdist import student_t_two_tailed_pvalue_batch
from ..stats.welch import welch_satterthwaite_df_batch, welch_t_statistic_batch
from ..types import ContrastResult, Subspace
from ..utils.chunks import row_chunks
from ..utils.random_state import fresh_entropy, subsample_rng
from ..utils.validation import check_positive_int

__all__ = ["ContrastCache", "ContrastEstimator"]

logger = logging.getLogger(__name__)

#: Cell budget of one evaluation group: whole subspaces join a group until
#: their ``(M, n)`` slice masks reach it, and a group always holds at least
#: one subspace.  Budgets from ``2**19`` to ``2**23`` ran equally fast on the
#: paper's n=1000, d=40 protocol.  Within a group every stage works in the
#: smaller row chunks of :mod:`repro.utils.chunks`.
_GROUP_CELLS = 1 << 21


class ContrastCache:
    """Memo table for Monte Carlo contrast results.

    Keys combine the data fingerprint, the estimation parameters, the seed
    entropy and the subspace, so a hit is guaranteed to be the exact result a
    fresh evaluation would produce (contrasts are pure functions of that key
    thanks to per-subspace seed derivation).  A cache can be shared between
    estimators — :class:`~repro.subspaces.hics.HiCS` keeps one across repeated
    ``fit`` calls so parameter sweeps never recompute an already-scored level.

    The cache is thread-safe: the thread execution backend evaluates
    subspaces concurrently against one shared estimator, so ``get``/``put``
    (including the eviction loop) serialise on an internal lock.

    Parameters
    ----------
    max_entries:
        Optional bound on the number of stored results; when full, the oldest
        inserted entry is evicted (FIFO).  ``None`` means unbounded.
    """

    def __init__(self, max_entries: Optional[int] = None):
        if max_entries is not None:
            max_entries = check_positive_int(max_entries, name="max_entries")
        self.max_entries = max_entries
        self._entries: Dict[tuple, ContrastResult] = {}
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: tuple) -> Optional[ContrastResult]:
        with self._lock:
            result = self._entries.get(key)
            if result is None:
                self.misses += 1
            else:
                self.hits += 1
            return result

    def put(self, key: tuple, result: ContrastResult) -> None:
        with self._lock:
            if self.max_entries is not None and key not in self._entries:
                while len(self._entries) >= self.max_entries:
                    self._entries.pop(next(iter(self._entries)))
            self._entries[key] = result

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.hits = 0
            self.misses = 0

    def stats(self) -> Dict[str, int]:
        """Hit/miss counters and current size, for diagnostics and tests."""
        return {"hits": self.hits, "misses": self.misses, "size": len(self._entries)}


class ContrastEstimator:
    """Estimates the contrast of subspaces over one fixed database.

    Parameters
    ----------
    data:
        Data matrix of shape ``(n_objects, n_dims)``; a
        :class:`SortedDatabaseIndex` is built once and reused for every
        subspace evaluated by this estimator.
    n_iterations:
        Number of Monte Carlo iterations ``M`` (statistical tests) per
        subspace.  The paper recommends 50 as a robust default.
    alpha:
        Target size of the test statistic as a fraction of the database
        (``alpha`` in the paper, default 0.1).
    deviation:
        Deviation function: a registered name (``"welch"``, ``"ks"``, ...) or a
        callable ``(conditional_sample, marginal_sample) -> float``.
    min_conditional_size:
        Slices that select fewer objects than this are redrawn (up to
        ``max_retries`` times) because the statistical tests are meaningless on
        nearly empty samples.  Iterations that stay below the minimum after the
        last retry are *excluded* from the contrast mean (deterministic
        degradation; see :attr:`~repro.types.ContrastResult.n_degenerate`).
    random_state:
        Seed or generator for the Monte Carlo procedure.  Each subspace's
        randomness is derived from this seed and the subspace's attributes, so
        contrasts are independent of the order in which subspaces are
        evaluated.
    backend:
        Execution backend that evaluates pending subspaces: ``None``
        (default, serial), a spec string (``"serial"``, ``"thread"``,
        ``"process(n_jobs=4, start_method=spawn)"``) or an
        :class:`~repro.parallel.ExecutionBackend` instance (whose pool the
        caller owns).  A parallel backend spreads groups of pending
        subspaces over its pool; each worker draws, evaluates and reduces
        its subspaces' slices itself.  Purely a throughput knob — contrasts
        are bit-for-bit identical under every backend.  A backend
        constructed by the estimator keeps one persistent pool across all
        calls; release it with :meth:`close` (or use the estimator as a
        context manager).
    cache:
        ``True`` (default) attaches a fresh :class:`ContrastCache`; pass an
        existing cache to share results between estimators, or ``False`` /
        ``None`` to disable memoisation.
    subsample_size:
        ``None`` (default) estimates every contrast over the full database.
        An integer ``m`` switches to the **seeded-subsample mode**: each
        subspace's contrast is estimated over ``m`` reference rows drawn
        deterministically from the root entropy and the subspace's
        attributes (:func:`~repro.utils.random_state.subsample_rng`), so the
        Monte Carlo cost scales with ``m`` instead of the database size.
        The drawn ``(size, child seed)`` pair is recorded on the
        :class:`~repro.types.ContrastResult` and the subsample size enters
        the cache key, which keeps cached and parallel runs replayable —
        the same fingerprint and seed always reproduce the identical result,
        under every execution backend.  Databases with at most ``m`` rows
        fall back to the exact full estimate.
    storage:
        ``None`` (default) keeps the sorted index in memory.  A
        :class:`~repro.dataset.memmap.StorageSpec` (or spec string such as
        ``"memmap(chunk_rows=65536)"``) puts the index into out-of-core
        mode: rank columns are built by chunked argsort-merge and spilled to
        a per-estimator scratch directory as memmapped ``.npy`` columns, so
        only the columns being read are resident.  Purely a memory knob —
        contrasts are bit-for-bit identical to the in-memory index and the
        cache key does not change.  Only valid when ``data``
        is a raw matrix (the estimator must own the index it spills).
    """

    def __init__(
        self,
        data: np.ndarray,
        *,
        n_iterations: int = 50,
        alpha: float = 0.1,
        deviation: Union[str, DeviationFunction] = "welch",
        min_conditional_size: int = 5,
        max_retries: int = 10,
        random_state=None,
        backend: Union[None, str, ExecutionBackend] = None,
        cache: Union[bool, ContrastCache, None] = True,
        subsample_size: Optional[int] = None,
        storage: Union[None, str, StorageSpec] = None,
    ):
        self.n_iterations = check_positive_int(n_iterations, name="n_iterations")
        if not (0.0 < alpha < 1.0):
            raise ParameterError(f"alpha must lie in (0, 1), got {alpha}")
        self.alpha = float(alpha)
        self.deviation = get_deviation_function(deviation)
        self.deviation_name = deviation if isinstance(deviation, str) else getattr(
            deviation, "__name__", "custom"
        )
        # How the deviation was specified: a registered name can be rebuilt in
        # worker processes and keyed by string; a bare callable must itself be
        # shipped to workers and used as the cache-key component (identity
        # semantics — a custom callable that merely shares a built-in's name
        # must never alias it).
        self._deviation_spec = deviation if isinstance(deviation, str) else None
        self._deviation_batch = get_batch_deviation_function(self.deviation)
        self.min_conditional_size = check_positive_int(
            min_conditional_size, name="min_conditional_size"
        )
        self.max_retries = check_positive_int(max_retries, name="max_retries")
        if subsample_size is not None:
            subsample_size = check_positive_int(subsample_size, name="subsample_size")
            if subsample_size < 2:
                raise ParameterError(
                    f"subsample_size must be at least 2, got {subsample_size}"
                )
        self.subsample_size = subsample_size
        self.storage = check_storage_spec(storage)
        self.backend = check_backend_spec(backend)
        # Lazily resolved execution state, persistent across calls: the
        # backend and whether the estimator owns it, plus the worker context
        # that publishes the shared-memory plane.
        self._exec_backend: Optional[Tuple[ExecutionBackend, bool]] = None
        self._worker_context: Optional[WorkerContext] = None
        self._entropy = self._derive_entropy(random_state)
        # An internal fast path lets worker processes hand over a prebuilt
        # index (rebuilt zero-copy from the shared-memory plane) instead of
        # re-validating and re-sorting the data.
        if isinstance(data, SortedDatabaseIndex):
            if self.storage is not None:
                raise ParameterError(
                    "storage can only be set when the estimator builds its own "
                    "index from a data matrix, not for a prebuilt index"
                )
            self.index = data
            self._owns_index = False
        else:
            self.index = SortedDatabaseIndex(data, storage=self.storage).build_all()
            self._owns_index = True
        self._sampler = SliceSampler(self.index, alpha=self.alpha)
        if cache is True:
            self.cache: Optional[ContrastCache] = ContrastCache()
        elif isinstance(cache, ContrastCache):
            self.cache = cache
        elif cache in (False, None):
            self.cache = None
        else:
            raise ParameterError(
                "cache must be a bool, None or a ContrastCache instance, got "
                f"{type(cache).__name__}"
            )
        self._data_fingerprint: Optional[str] = None
        self._marginal_moments: Dict[int, Tuple[float, float, float]] = {}
        self._marginal_cdf: Dict[int, np.ndarray] = {}

    @staticmethod
    def _derive_entropy(random_state) -> int:
        """Root entropy for the per-subspace seed derivation.

        An unseeded estimator draws its root seed from the library's single
        sanctioned entropy source
        (:func:`~repro.utils.random_state.fresh_entropy`); the drawn value is
        recorded on the estimator (:attr:`root_entropy`) so the run can be
        replayed exactly by passing it back as ``random_state``.
        """
        if random_state is None:
            entropy = fresh_entropy()
            logger.debug(
                "ContrastEstimator drew fresh root entropy %d; pass "
                "random_state=%d to replay this run", entropy, entropy,
            )
            return entropy
        if isinstance(random_state, (int, np.integer)) and not isinstance(
            random_state, bool
        ):
            if random_state < 0:
                raise ParameterError(
                    f"random_state seed must be non-negative, got {random_state}"
                )
            return int(random_state)
        if isinstance(random_state, np.random.Generator):
            return int(random_state.integers(0, 2**63 - 1))
        if isinstance(random_state, np.random.RandomState):
            return int(random_state.randint(0, 2**32 - 1))
        raise ParameterError(
            "random_state must be None, an int, numpy.random.Generator or "
            f"RandomState, got {type(random_state).__name__}"
        )

    # ------------------------------------------------------------------ properties

    @property
    def n_objects(self) -> int:
        return self.index.n_objects

    @property
    def n_dims(self) -> int:
        return self.index.n_dims

    @property
    def root_entropy(self) -> int:
        """The root seed all per-subspace generators derive from.

        For a seeded estimator this is the (normalised) ``random_state``; for
        an unseeded one it is the value drawn from
        :func:`~repro.utils.random_state.fresh_entropy`.  Constructing a new
        estimator with ``random_state=estimator.root_entropy`` reproduces
        every contrast bit for bit.
        """
        return int(self._entropy)

    # ------------------------------------------------------------------ seeding

    def _subspace_rng(self, subspace: Subspace) -> np.random.Generator:
        """Generator for one subspace: a pure function of seed and attributes."""
        return np.random.default_rng(
            np.random.SeedSequence(self._entropy, spawn_key=subspace.attributes)
        )

    def _fingerprint(self) -> str:
        """Content fingerprint of the data, computed lazily on first cache access."""
        if self._data_fingerprint is None:
            self._data_fingerprint = array_fingerprint(self.index.data)
        return self._data_fingerprint

    def _cache_key(self, subspace: Subspace) -> tuple:
        # A registered name keys by string; a custom callable keys by the
        # callable object itself — the key holds a live reference, so two
        # different functions can never alias (not even via id() reuse).
        deviation_key = (
            self._deviation_spec.strip().lower()
            if self._deviation_spec is not None
            else self.deviation
        )
        return (
            self._fingerprint(),
            subspace.attributes,
            self.n_iterations,
            self.alpha,
            deviation_key,
            self.min_conditional_size,
            self.max_retries,
            self._entropy,
            self.subsample_size,
        )

    # ------------------------------------------------------------------ estimation

    def contrast(self, subspace: Subspace) -> float:
        """The scalar contrast of a subspace (Definition 5)."""
        return self.contrast_detailed(subspace).contrast

    def contrast_detailed(self, subspace: Subspace) -> ContrastResult:
        """Full Monte Carlo result including the per-iteration deviations.

        Raises
        ------
        SubspaceError
            If the subspace has fewer than two attributes (the paper notes that
            a one-dimensional contrast is not meaningful: there is no notion of
            correlation) or references attributes outside the data.
        """
        return self._contrast_results([subspace])[subspace]

    def _sample_batch(self, subspace: Subspace) -> SliceBatch:
        """Draw one subspace's slice batch from its own generator."""
        return self._sampler.sample_slice_batch(
            subspace,
            self.n_iterations,
            rng=self._subspace_rng(subspace),
            min_conditional_size=self.min_conditional_size,
            max_retries=self.max_retries,
        )

    def _evaluate(self, subspaces: Sequence[Subspace]) -> List[ContrastResult]:
        """Monte Carlo results of validated subspaces, evaluated in groups.

        Whole subspaces join a group until their ``(M, n)`` slice masks reach
        :data:`_GROUP_CELLS` (at least one subspace per group).  Each subspace
        draws its slices from its own generator, and the group's iterations
        are then reduced together (:meth:`_group_statistics`).  Welch's
        deviation spends most of its time in the incomplete-beta continued
        fraction, whose cost is dominated by per-call overhead, so the
        ``t``/``df`` pairs of all groups share one
        :func:`~repro.stats.tdist.student_t_two_tailed_pvalue_batch` call.
        Every statistic is computed per iteration, so every subspace gets the
        bits it would get alone.
        """
        if not subspaces:
            return []
        if self.subsample_size is not None and self.subsample_size < self.n_objects:
            return [self._evaluate_subsampled(s) for s in subspaces]
        size = max(1, _GROUP_CELLS // (self.n_iterations * self.n_objects))
        degenerate: List[np.ndarray] = []
        statistics = []
        for lo in range(0, len(subspaces), size):
            batches = [self._sample_batch(s) for s in subspaces[lo : lo + size]]
            degenerate.extend(batch.degenerate for batch in batches)
            statistics.append(self._group_statistics(batches))
        if self.deviation is welch_deviation:
            pvalues = student_t_two_tailed_pvalue_batch(
                np.concatenate([t for t, _ in statistics]),
                np.concatenate([df for _, df in statistics]),
            )
            values = np.clip(1.0 - pvalues, 0.0, 1.0)
        else:
            values = np.concatenate([deviations for deviations, in statistics])
        bounds = np.cumsum([0] + [int((~flags).sum()) for flags in degenerate])
        return [
            ContrastResult(
                subspace=subspace,
                contrast=float(np.mean(values[start:stop])) if stop > start else 0.0,
                deviations=tuple(values[start:stop].tolist()),
                n_iterations=self.n_iterations,
                n_degenerate=int(flags.sum()),
            )
            for subspace, flags, start, stop in zip(
                subspaces, degenerate, bounds[:-1], bounds[1:]
            )
        ]

    def _evaluate_subsampled(self, subspace: Subspace) -> ContrastResult:
        """Seeded-subsample estimate: Monte Carlo over ``m`` deterministic rows.

        The subsample rows and the child seed are pure functions of the root
        entropy and the subspace's attributes, so — exactly like the
        full-database path — the result does not depend on evaluation order
        or on the execution backend, and a run replays bit for bit from
        ``(fingerprint, root_entropy, subsample_size)``.  The rows are kept
        in ascending order so the child index sees them in database order.
        """
        rng = subsample_rng(self._entropy, subspace.attributes)
        size = self.subsample_size
        rows = np.sort(rng.choice(self.n_objects, size=size, replace=False))
        child_entropy = int(rng.integers(0, 2**63 - 1))
        attrs = list(subspace.attributes)
        with ContrastEstimator(
            self.index.data[np.ix_(rows, attrs)],
            n_iterations=self.n_iterations,
            alpha=self.alpha,
            deviation=self._deviation_spec
            if self._deviation_spec is not None
            else self.deviation,
            min_conditional_size=self.min_conditional_size,
            max_retries=self.max_retries,
            cache=False,
            random_state=child_entropy,
        ) as child:
            local = child.contrast_detailed(Subspace(tuple(range(len(attrs)))))
        return ContrastResult(
            subspace=subspace,
            contrast=local.contrast,
            deviations=local.deviations,
            n_iterations=local.n_iterations,
            n_degenerate=local.n_degenerate,
            subsample=(size, child_entropy),
        )

    def _welch_marginal(self, attribute: int) -> Tuple[float, float, float]:
        """``(scale, mean, variance)`` of one attribute for Welch, cached.

        ``scale`` is ``2**-e``, with ``e`` the exponent of the attribute's
        largest magnitude, and the moments are those of the scaled values.
        Welch's ``t`` and degrees of freedom do not change under a power of
        two, which is exact, so in-range data keeps its bits; data near
        1e±160 no longer over- or underflows the squared terms.
        """
        cached = self._marginal_moments.get(attribute)
        if cached is None:
            sorted_values = self.index.attribute_index(attribute).sorted_values
            peak = max(abs(float(sorted_values[0])), abs(float(sorted_values[-1])))
            scale = math.ldexp(1.0, -math.frexp(peak)[1])
            mean, variance, _ = sample_moments(self.index.values(attribute) * scale)
            cached = self._marginal_moments[attribute] = (scale, mean, variance)
        return cached

    def _marginal_ks_tables(
        self, attribute: int
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Cached ``(order, tie-group ends, marginal ECDF)`` of one attribute."""
        tables = self._marginal_cdf.get(attribute)
        if tables is None:
            attr_index = self.index.attribute_index(attribute)
            sorted_values = attr_index.sorted_values
            right = np.searchsorted(sorted_values, sorted_values, side="right")
            tables = (attr_index.order, right - 1, right / sorted_values.size)
            self._marginal_cdf[attribute] = tables
        return tables

    def _group_statistics(self, batches: List[SliceBatch]) -> Tuple[np.ndarray, ...]:
        """Per-iteration statistics of a group's valid iterations.

        Welch yields ``(t, df)`` (the caller computes the p-values), every
        other deviation ``(deviations,)``; degenerate iterations are
        excluded, and the rows come back subspace by subspace in iteration
        order.  KS reads the masks in the rank domain
        (:meth:`_ks_deviations`).  For the others the valid rows are ordered
        by conditional sample size (a stable sort) and gathered chunk by
        chunk (:meth:`_gather`), so samples of equal size lie next to each
        other and :func:`~repro.stats.descriptive.sample_moments_batch`
        reduces each size as one matrix.  Welch moments are taken on each
        attribute's scaled values (:meth:`_welch_marginal`); custom
        deviations see the raw values.
        """
        rows = np.flatnonzero(~np.concatenate([batch.degenerate for batch in batches]))
        counts = np.concatenate([batch.counts for batch in batches])[rows]
        test_attributes = np.concatenate([batch.test_attributes for batch in batches])[rows]
        welch = self.deviation is welch_deviation
        if counts.size == 0:
            empty = np.empty(0, dtype=float)
            return (empty, empty) if welch else (empty,)
        # A group of one subspace, which every group over tall data is, is
        # read in place; a larger group is small enough to stack.
        masks = (
            batches[0].selected
            if len(batches) == 1
            else np.concatenate([batch.selected for batch in batches])
        )
        if self.deviation is ks_deviation:
            return (self._ks_deviations(masks, rows, test_attributes, counts),)
        by_size = np.argsort(counts, kind="stable")
        rows, sizes, test_attributes = rows[by_size], counts[by_size], test_attributes[by_size]
        if welch:
            attributes, inverse = np.unique(test_attributes, return_inverse=True)
            marginals = np.array([self._welch_marginal(int(a)) for a in attributes])
            scale, mean_b, var_b = marginals[inverse].T
            values = self._gather(masks, rows, test_attributes, sizes, scale)
            means, variances, n_a = sample_moments_batch(values, sizes)
            statistics = (
                welch_t_statistic_batch(means, variances, n_a, mean_b, var_b, self.n_objects),
                welch_satterthwaite_df_batch(variances, n_a, var_b, self.n_objects),
            )
        else:
            values = self._gather(masks, rows, test_attributes, sizes)
            ends = np.cumsum(sizes)
            deviations = np.empty(sizes.size, dtype=float)
            for attribute in np.unique(test_attributes):
                picked = np.flatnonzero(test_attributes == attribute)
                attr_index = self.index.attribute_index(int(attribute))
                deviations[picked] = self._deviation_batch(
                    [values[ends[r] - sizes[r] : ends[r]] for r in picked],
                    attr_index.values,
                    marginal_sorted=attr_index.sorted_values,
                )
            statistics = (deviations,)
        unsort = np.argsort(by_size)
        return tuple(column[unsort] for column in statistics)

    def _gather(
        self,
        masks: np.ndarray,
        rows: np.ndarray,
        test_attributes: np.ndarray,
        counts: np.ndarray,
        scale: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """The selected values of each mask row's test attribute, row by row.

        Walks ``masks[rows]`` in row chunks under the cell budget
        (:func:`~repro.utils.chunks.row_chunks`), so no whole-group mask copy
        or position array is ever held.  Each chunk gets one
        ``flatnonzero``: position ``r * n + i`` of chunk row ``r`` maps to
        entry ``a_r * n + i`` of the index's column matrix
        (:attr:`~repro.index.SortedDatabaseIndex.columns`), read through a
        flat view.  ``flatnonzero`` is row-major, so each row's objects come
        out in ascending index order — the order of masking one iteration's
        sample, which keeps its sums bit-identical.  ``scale`` (one power of
        two per row) multiplies each row's values in place, which is exact.
        """
        n = self.n_objects
        columns = self.index.columns.reshape(-1)
        bounds = np.concatenate([[0], np.cumsum(counts)])
        values = np.empty(int(bounds[-1]), dtype=float)
        for lo, hi in row_chunks(rows.size, n):
            positions = np.flatnonzero(masks[rows[lo:hi]])
            offsets = (test_attributes[lo:hi] - np.arange(hi - lo)) * n
            positions += np.repeat(offsets, counts[lo:hi])
            chunk = values[bounds[lo] : bounds[hi]]
            # Every position is in range; "clip" writes straight into ``chunk``
            # ("raise" would buffer the output).
            np.take(columns, positions, out=chunk, mode="clip")
            if scale is not None:
                chunk *= np.repeat(scale[lo:hi], counts[lo:hi])
        return values

    def _ks_deviations(
        self,
        masks: np.ndarray,
        rows: np.ndarray,
        test_attributes: np.ndarray,
        counts: np.ndarray,
    ) -> np.ndarray:
        """KS statistics of the mask rows ``rows``, in the rank domain.

        The conditional ECDF evaluated at the marginal points is a cumulative
        count of selected objects along the attribute's sorted order (ties
        collapse to the last index of their group), so the whole statistic
        reduces to one cumsum and one row-max per chunk of an attribute's
        rows (:func:`~repro.utils.chunks.row_chunks`) — no per-sample sort
        or search.  Counts are integers, so the quotients are bitwise the
        same floats the per-sample searchsorted formulation produces, and
        each row's statistic is its own, whatever chunk it falls in.
        """
        n = self.n_objects
        deviations = np.empty(rows.size, dtype=float)
        for attribute in np.unique(test_attributes):
            picked = np.flatnonzero(test_attributes == attribute)
            order, tie_end, ref_cdf = self._marginal_ks_tables(int(attribute))
            for lo, hi in row_chunks(picked.size, n):
                chunk = picked[lo:hi]
                cum = np.cumsum(masks[rows[chunk]][:, order], axis=1, dtype=np.int32)
                cdf_rows = cum[:, tie_end] / counts[chunk][:, None]
                cdf_rows -= ref_cdf
                deviations[chunk] = np.max(np.abs(cdf_rows, out=cdf_rows), axis=1)
        return deviations

    def contrast_many(self, subspaces: Iterable[Subspace]) -> Dict[Subspace, float]:
        """Contrast of several subspaces; returns ``{subspace: contrast}``.

        Under a parallel backend the pending subspaces are evaluated in
        groups over a persistent worker pool (cache hits are served locally
        first); the pool and the shared-memory publication of the data
        survive across calls, so scoring one apriori level after another
        never rebuilds either.  Because every subspace's randomness derives
        from the estimator seed and the subspace itself, the results are
        bit-for-bit identical to serial evaluation.
        """
        return {s: r.contrast for s, r in self._contrast_results(subspaces).items()}

    def contrast_many_detailed(
        self, subspaces: Iterable[Subspace]
    ) -> Dict[Subspace, ContrastResult]:
        """Like :meth:`contrast_many` but with full per-subspace results."""
        return self._contrast_results(subspaces)

    def _contrast_results(
        self, subspaces: Iterable[Subspace]
    ) -> Dict[Subspace, ContrastResult]:
        """The one route to every contrast; results in input order.

        Each distinct subspace is validated and looked up in the cache once;
        the misses are evaluated (:meth:`_evaluate_pending`) and cached.
        """
        requested = list(dict.fromkeys(subspaces))
        results: Dict[Subspace, ContrastResult] = {}
        pending: List[Subspace] = []
        for subspace in requested:
            if subspace.dimensionality < 2:
                raise SubspaceError(
                    "contrast is only defined for subspaces with at least two attributes"
                )
            subspace.validate_against_dimensionality(self.n_dims)
            cached = (
                self.cache.get(self._cache_key(subspace))
                if self.cache is not None
                else None
            )
            if cached is None:
                pending.append(subspace)
            else:
                results[subspace] = cached
        for subspace, result in zip(pending, self._evaluate_pending(pending)):
            if self.cache is not None:
                self.cache.put(self._cache_key(subspace), result)
            results[subspace] = result
        return {s: results[s] for s in requested}

    # --------------------------------------------------------- backend fan-out

    def _execution_backend(self) -> Optional[ExecutionBackend]:
        """The resolved execution backend; ``None`` means serial.

        Resolved once and kept for the estimator's lifetime, so every level
        of a fit reuses one pool.
        """
        if self._exec_backend is None:
            self._exec_backend = resolve_backend(self.backend)
        backend = self._exec_backend[0]
        return None if backend.kind == "serial" else backend

    def _ensure_worker_context(self) -> WorkerContext:
        """The persistent worker context: parameters + shared-memory plane.

        Created once per estimator.  The plane publishes the data matrix and
        every per-attribute rank column (a spilled column of an out-of-core
        index by path, so workers re-map the same pages); process workers
        rebuild the sorted index from them without sorting
        (:meth:`SortedDatabaseIndex.from_rank_columns`), in-process backends
        reuse this estimator directly.  Building every column here, before
        any fan-out, also keeps thread workers from racing a lazy build.
        """
        if self._worker_context is None:
            params = {
                "n_iterations": self.n_iterations,
                "alpha": self.alpha,
                # A registered name is rebuilt by the worker's registry; a
                # bare callable is shipped as-is (it must then be picklable,
                # i.e. a module-level function — lambdas fail with a clear
                # pickle error).
                "deviation": self._deviation_spec
                if self._deviation_spec is not None
                else self.deviation,
                "min_conditional_size": self.min_conditional_size,
                "max_retries": self.max_retries,
                "entropy": self._entropy,
                "subsample_size": self.subsample_size,
            }
            arrays = {"data": self.index.data}
            for attribute in range(self.n_dims):
                arrays[f"rank_col_{attribute}"] = self.index.rank_column(attribute)
            self._worker_context = WorkerContext(
                setup=_setup_contrast_worker,
                payload=params,
                arrays=arrays,
                local_state=self,
            )
        return self._worker_context

    def _evaluate_pending(self, pending: List[Subspace]) -> List[ContrastResult]:
        """Evaluate cache misses inline or, in groups, on the execution backend.

        Each subspace's contrast is its own Monte Carlo estimate, so the
        subspace is the unit of parallel work: workers run the same
        :meth:`_evaluate` on one group per task, and the fan-out changes no
        bit.
        """
        backend = self._execution_backend()
        if backend is None or len(pending) < 2:
            return self._evaluate(pending)
        # Slice sampling costs one rank-block comparison per conditioning
        # attribute, so higher levels get smaller groups; a backend that pins
        # its chunksize pins the group size.
        cost_hint = max(
            1.0, float(np.mean([s.dimensionality for s in pending])) - 1.0
        )
        size = getattr(backend, "chunksize", None) or default_chunksize(
            len(pending), backend.n_jobs, cost_hint
        )
        groups = [pending[lo : lo + size] for lo in range(0, len(pending), size)]
        evaluated = backend.map(
            _contrast_worker,
            groups,
            context=self._ensure_worker_context(),
            chunksize=1,
        )
        return [result for group in evaluated for result in group]

    def close(self) -> None:
        """Release the persistent worker pool and the shared-memory plane.

        Idempotent; only backends the estimator constructed itself are shut
        down — an :class:`~repro.parallel.ExecutionBackend` instance passed
        in by the caller keeps its pool (ownership stays outside).  A
        ``weakref`` guard on the plane prevents shared-memory leaks even when
        ``close`` is never called, but calling it (or using the estimator as
        a context manager) releases workers deterministically.
        """
        if self._worker_context is not None:
            self._worker_context.close()
            self._worker_context = None
        if self._exec_backend is not None:
            resolved, owned = self._exec_backend
            if owned:
                resolved.close()
            self._exec_backend = None
        # An out-of-core index built by this estimator owns scratch files on
        # disk; remove them deterministically (a prebuilt index passed in by
        # the caller keeps its scratch — ownership stays outside).
        if self._owns_index and self.index.out_of_core:
            self.index.close()

    def __enter__(self) -> ContrastEstimator:
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


# ----------------------------------------------------------------- worker API


def _setup_contrast_worker(payload: Dict[str, object], arrays: Dict[str, np.ndarray]):
    """Build one estimator per worker process from the shared-memory plane.

    The data matrix and the per-attribute rank columns arrive as zero-copy
    views (shared memory, or the memmapped scratch files of an out-of-core
    parent); the sorted index is reconstructed by inverting the rank
    columns, so a worker never pickles, copies or re-sorts the database
    regardless of the pool's start method.
    """
    data = arrays["data"]
    columns = {
        attribute: arrays[f"rank_col_{attribute}"] for attribute in range(data.shape[1])
    }
    estimator = ContrastEstimator(
        SortedDatabaseIndex.from_rank_columns(data, columns),
        n_iterations=payload["n_iterations"],
        alpha=payload["alpha"],
        deviation=payload["deviation"],
        min_conditional_size=payload["min_conditional_size"],
        max_retries=payload["max_retries"],
        cache=False,
        random_state=0,
        subsample_size=payload.get("subsample_size"),
    )
    estimator._entropy = int(payload["entropy"])
    return estimator


def _contrast_worker(
    estimator: ContrastEstimator, group: List[Subspace]
) -> List[ContrastResult]:
    """Evaluate one group of pending subspaces against the worker state."""
    return estimator._evaluate(group)

