"""Adaptive subspace-slice sampling (the inner loop of Algorithm 1).

A subspace slice over a subspace ``S`` fixes ``|S| - 1`` *conditioning*
attributes to randomly placed index blocks and leaves one *test* attribute
free.  Per-condition selectivity is ``alpha ** (1 / |S|)`` so that after
``|S| - 1`` conjunctive selections the expected number of surviving objects is
``N * alpha ** ((|S|-1)/|S|)`` — the paper's construction keeps this target
statistic size roughly constant and, importantly, independent of the
dimensionality of the subspace (no curse of dimensionality in the slice).

:meth:`SliceSampler.sample_slice_batch` draws all ``M`` Monte Carlo slices of
a subspace at once from an explicit generator and evaluates their selection
masks against the ``int32`` rank columns of the index, one unsigned
comparison per conditioned attribute, in row chunks that fit in cache
(:func:`~repro.utils.chunks.row_chunks`).  A chunk compares only the
attributes its slices condition on, so on tall data, where a chunk is one
slice, the free test attribute costs nothing, and each chunk is counted
while it is still in cache.  The contrast estimator calls it once per
candidate subspace, each from the candidate's own generator, and reduces the
masks of a whole group of candidates together.  It is the only slice recipe
the library runs; the paper's per-iteration form — one boolean mask per
iteration, built condition by condition from the index blocks
``order[start:start + block]`` — lives on as the test oracle
``oracle_contrast`` in ``tests/test_contrast_batch.py``, which draws its own
slices with the same recipe and must agree with the batch bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Tuple

import numpy as np

from ..exceptions import ParameterError, SubspaceError
from ..types import Subspace
from ..utils.chunks import row_chunks
from .sorted_index import SortedDatabaseIndex

__all__ = ["SliceBatch", "SliceSampler"]


@dataclass(frozen=True)
class SliceBatch:
    """All Monte Carlo slices of one subspace, drawn and evaluated in one shot.

    The drawn conditions are stored as index arrays plus a single
    ``(n_slices, n_objects)`` selection-mask matrix.

    Attributes
    ----------
    subspace:
        The subspace all slices were drawn from.
    test_attributes:
        Array of shape ``(n_slices,)``: the test attribute of each iteration.
    start_ranks:
        Integer array of shape ``(n_slices, d)`` aligned with
        ``subspace.attributes``; entry ``[m, j]`` is the start rank of the
        condition block on attribute ``attributes[j]`` in iteration ``m``.  The
        test attribute's column holds ``-1`` (no condition).
    block_size:
        Number of objects per condition block (identical for all conditions of
        a fixed subspace size).
    selected:
        Boolean matrix of shape ``(n_slices, n_objects)``; row ``m`` marks the
        objects satisfying all conditions of iteration ``m``.
    counts:
        ``selected.sum(axis=1)`` — the conditional sample size per iteration.
    degenerate:
        Boolean array marking iterations whose conditional sample stayed below
        the required minimum size even after all redraw rounds.  Degenerate
        iterations are excluded from the contrast mean (the documented
        deterministic fallback).
    n_redraw_rounds:
        How many retry rounds the sampler needed (0 when every slice was large
        enough on the first draw).
    """

    subspace: Subspace
    test_attributes: np.ndarray = field(repr=False)
    start_ranks: np.ndarray = field(repr=False)
    block_size: int = 0
    selected: np.ndarray = field(repr=False, default=None)
    counts: np.ndarray = field(repr=False, default=None)
    degenerate: np.ndarray = field(repr=False, default=None)
    n_redraw_rounds: int = 0

    @property
    def n_slices(self) -> int:
        return int(self.test_attributes.shape[0])

    @property
    def n_degenerate(self) -> int:
        return int(self.degenerate.sum())


class SliceSampler:
    """Draws random subspace slices from a :class:`SortedDatabaseIndex`.

    Parameters
    ----------
    index:
        Pre-built sorted database index.
    alpha:
        Target fraction of objects in the conditional sample, ``alpha ∈ (0, 1)``.
        The per-condition selectivity is derived as ``alpha ** (1/|S|)``
        following Section IV-A of the paper.
    min_block_size:
        Lower bound on the number of objects per condition block, protecting
        the statistical tests from degenerate one-object samples.
    """

    def __init__(
        self,
        index: SortedDatabaseIndex,
        alpha: float = 0.1,
        *,
        min_block_size: int = 2,
    ):
        if not isinstance(index, SortedDatabaseIndex):
            raise ParameterError("index must be a SortedDatabaseIndex")
        if not (0.0 < alpha < 1.0):
            raise ParameterError(f"alpha must lie in (0, 1), got {alpha}")
        if min_block_size < 1:
            raise ParameterError(f"min_block_size must be >= 1, got {min_block_size}")
        self.index = index
        self.alpha = float(alpha)
        self.min_block_size = int(min_block_size)

    # ------------------------------------------------------------------ helpers

    def per_condition_fraction(self, subspace_size: int) -> float:
        """Selectivity of a single condition: ``alpha ** (1 / |S|)``."""
        if subspace_size < 2:
            raise SubspaceError(
                "subspace slices require at least two attributes "
                f"(got a {subspace_size}-dimensional subspace)"
            )
        return float(self.alpha ** (1.0 / subspace_size))

    def block_size(self, subspace_size: int) -> int:
        """Number of objects per condition block for a subspace of given size."""
        n = self.index.n_objects
        size = int(round(n * self.per_condition_fraction(subspace_size)))
        return int(min(n, max(self.min_block_size, size)))

    def expected_conditional_size(self, subspace_size: int) -> float:
        """Expected number of objects satisfying all |S|-1 conditions.

        Under the independence assumption of Section III-C this equals
        ``N * alpha1 ** (|S| - 1)`` with ``alpha1 = alpha ** (1/|S|)``.
        """
        n = self.index.n_objects
        alpha1 = self.per_condition_fraction(subspace_size)
        return float(n * alpha1 ** (subspace_size - 1))

    # ------------------------------------------------------------------ sampling

    def sample_slice_batch(
        self,
        subspace: Subspace,
        n_slices: int,
        *,
        rng: np.random.Generator,
        min_conditional_size: int = 1,
        max_retries: int = 0,
    ) -> SliceBatch:
        """Draw ``n_slices`` Monte Carlo slices of one subspace in one shot.

        Test attributes and condition start ranks are drawn as whole arrays,
        and the selection masks of all slices are evaluated against the rank
        columns of the index with a handful of vectorised comparisons per
        attribute instead of one boolean mask per condition.

        Slices whose conditional sample is smaller than
        ``min_conditional_size`` are redrawn in rounds (new start ranks, same
        test attribute) up to ``max_retries`` times.  Iterations still below
        ``max(2, min_conditional_size)``
        after the last round are flagged ``degenerate`` — the deterministic
        fallback is to *exclude* them from the contrast mean rather than to
        score a meaningless test (see :class:`SliceBatch`).

        Parameters
        ----------
        subspace:
            The subspace to slice; at least two attributes.
        n_slices:
            Number of Monte Carlo iterations ``M``.
        rng:
            Generator to draw from.  The batch is a pure function of the
            generator state, which is what the contrast cache and the
            process-parallel search rely on.
        min_conditional_size:
            Minimum conditional sample size below which a slice is redrawn.
        max_retries:
            Maximum number of redraw rounds.

        Returns
        -------
        SliceBatch
        """
        subspace.validate_against_dimensionality(self.index.n_dims)
        if subspace.dimensionality < 2:
            raise SubspaceError("subspace slices require at least two attributes")
        if n_slices < 1:
            raise ParameterError(f"n_slices must be >= 1, got {n_slices}")
        if min_conditional_size < 1:
            raise ParameterError(
                f"min_conditional_size must be >= 1, got {min_conditional_size}"
            )
        if max_retries < 0:
            raise ParameterError(f"max_retries must be >= 0, got {max_retries}")

        attrs = subspace.as_array()
        d = attrs.shape[0]
        n = self.index.n_objects
        block = self.block_size(d)
        max_start = n - block

        # One draw for the test-attribute positions, one per redraw round for
        # the start ranks; the test attribute is kept across redraws.
        test_positions = rng.integers(0, d, size=n_slices)
        start_ranks = np.full((n_slices, d), -1, dtype=np.intp)
        condition_mask = np.ones((n_slices, d), dtype=bool)
        condition_mask[np.arange(n_slices), test_positions] = False

        def draw_starts(n_rows: int) -> np.ndarray:
            if max_start > 0:
                return rng.integers(0, max_start + 1, size=(n_rows, d - 1))
            return np.zeros((n_rows, d - 1), dtype=np.intp)

        start_ranks[condition_mask] = draw_starts(n_slices).ravel()
        selected, counts = self._evaluate_masks(attrs, start_ranks, block)

        rounds = 0
        while rounds < max_retries:
            failing = np.flatnonzero(counts < min_conditional_size)
            if failing.size == 0:
                break
            rounds += 1
            redraw = np.full((failing.size, d), -1, dtype=np.intp)
            redraw[condition_mask[failing]] = draw_starts(failing.size).ravel()
            start_ranks[failing] = redraw
            selected[failing], counts[failing] = self._evaluate_masks(attrs, redraw, block)

        degenerate = counts < max(2, min_conditional_size)
        counts.setflags(write=False)
        selected.setflags(write=False)
        return SliceBatch(
            subspace=subspace,
            test_attributes=attrs[test_positions],
            start_ranks=start_ranks,
            block_size=block,
            selected=selected,
            counts=counts,
            degenerate=degenerate,
            n_redraw_rounds=rounds,
        )

    def _evaluate_masks(
        self, attrs: np.ndarray, start_ranks: np.ndarray, block: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Selection masks and their counts for drawn condition start ranks.

        ``start_ranks`` has one row per slice and one column per subspace
        attribute (-1 marking the unconditioned test attribute).  A block
        ``[start, start + block)`` on an attribute selects exactly the objects
        whose rank under that attribute falls inside the interval, i.e. whose
        ``rank - start``, read as an unsigned integer, is below ``block``
        (a rank below ``start`` wraps to a huge value).  The mask of each
        slice is the conjunction of one such comparison per conditioned
        attribute, evaluated column by column over a chunk of slices at once
        (:func:`~repro.utils.chunks.row_chunks`).  A chunk skips every
        attribute that none of its slices conditions on; inside a chunk that
        does compare an attribute, a slice that leaves it free gets start 0
        and width ``n``, which every rank passes.  Each chunk is counted
        while it is still in cache.  Rank columns are requested per attribute
        (:meth:`SortedDatabaseIndex.rank_column`), so only the subspace's own
        attributes are ever ranked.
        """
        n_objects = self.index.n_objects
        n_rows = start_ranks.shape[0]
        conditioned = start_ranks >= 0
        starts = np.where(conditioned, start_ranks, 0).astype(np.int32)
        widths = np.where(conditioned, block, n_objects).astype(np.uint32)
        chunks = row_chunks(n_rows, n_objects)
        out = np.empty((n_rows, n_objects), dtype=bool)
        counts = np.empty(n_rows, dtype=np.intp)
        offsets = np.empty((chunks[0][1], n_objects), dtype=np.int32)
        inside = np.empty(offsets.shape, dtype=bool)
        columns = [self.index.rank_column(a) for a in attrs]
        for lo, hi in chunks:
            selected = out[lo:hi]
            compared = np.flatnonzero(conditioned[lo:hi].any(axis=0))
            for step, j in enumerate(compared):
                offset = np.subtract(columns[j], starts[lo:hi, j, None], out=offsets[: hi - lo])
                target = inside[: hi - lo] if step else selected
                np.less(offset.view(np.uint32), widths[lo:hi, j, None], out=target)
                if step:
                    selected &= target
            # Counting one row whole is several times faster than any count
            # along an axis; of those, a reduce into int32 is the fastest.
            counts[lo:hi] = (
                np.count_nonzero(selected)
                if hi - lo == 1
                else np.add.reduce(selected, axis=1, dtype=np.int32)
            )
        return out, counts
