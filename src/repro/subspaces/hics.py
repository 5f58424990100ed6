"""The HiCS subspace search (Sections III and IV of the paper).

Pipeline per level ``d``:

1. evaluate the Monte Carlo contrast of every d-dimensional candidate,
2. keep the top ``candidate_cutoff`` candidates (adaptive threshold),
3. merge the survivors Apriori-style into (d+1)-dimensional candidates,
4. repeat until the merge step yields no candidates (or ``max_dimensionality``
   is reached),
5. prune redundant subspaces from the union of all levels,
6. return the remaining subspaces sorted by decreasing contrast.

Two statistical instantiations are provided through the ``deviation``
parameter: ``"welch"`` → HiCS_WT (the paper's default) and ``"ks"`` → HiCS_KS.
"""

from __future__ import annotations

import dataclasses
import os
from typing import Dict, List, Optional, Union

import numpy as np

from ..dataset.memmap import check_storage_spec
from ..exceptions import ParameterError
from ..parallel import check_backend_spec
from ..stats.deviation import DeviationFunction
from ..types import ScoredSubspace, Subspace, best_first
from ..utils.validation import check_data_matrix, check_positive_int
from .apriori import all_two_dimensional_subspaces, apply_cutoff, generate_candidates
from .base import SubspaceSearcher
from .contrast import ContrastCache, ContrastEstimator
from .pruning import prune_redundant_subspaces

__all__ = ["HiCS"]

#: Bound on the shared per-searcher contrast cache.  Entries are keyed by a
#: data fingerprint, so re-fitting on fresh data strands the old entries;
#: FIFO eviction at this size keeps a long-lived searcher's memory flat
#: (~50 MB worst case at the paper's M=50) instead of growing per fit.
_CACHE_MAX_ENTRIES = 65536


class HiCS(SubspaceSearcher):
    """High Contrast Subspaces search.

    Parameters
    ----------
    n_iterations:
        Monte Carlo iterations ``M`` per subspace (paper default 50).
    alpha:
        Target test-statistic size as a fraction of the database (default 0.1).
    deviation:
        ``"welch"`` for HiCS_WT (default), ``"ks"`` for HiCS_KS, any other
        registered deviation name, or a custom callable.
    candidate_cutoff:
        Maximum number of candidates retained per level (paper default 400,
        with quality peaking around 500 in Figure 9).
    max_output_subspaces:
        Maximum number of subspaces returned by :meth:`search`; the paper uses
        the best 100 subspaces of every method for the outlier ranking.
    max_dimensionality:
        Optional hard cap on the subspace dimensionality explored; ``None``
        lets the Apriori generation terminate naturally.
    prune_redundant:
        Apply the redundancy pruning step (paper behaviour).  Disabling it is
        exposed for the pruning ablation benchmark.
    random_state:
        Seed or generator for the Monte Carlo contrast estimation.
    backend:
        Execution backend that scores each candidate level
        (:meth:`ContrastEstimator.contrast_many`): ``None`` (default,
        serial), a spec string such as ``"thread"`` or
        ``"process(n_jobs=4, start_method=spawn)"``, or an
        :class:`~repro.parallel.ExecutionBackend` instance.  A parallel
        backend spreads groups of each level's candidates over its pool, one
        subspace's Monte Carlo estimate per unit of work.  One persistent
        worker pool serves **all** apriori levels of a :meth:`search`; the
        data and its rank columns are published to process workers once
        through a shared-memory plane.  Results are bit-for-bit independent
        of the backend.  Saved models and specs that still pass the retired
        ``n_jobs=N`` load as ``backend="process(n_jobs=N)"``.
    cache:
        Keep a :class:`~repro.subspaces.contrast.ContrastCache` across
        :meth:`search` calls (default True) so repeated fits on the same data
        with the same parameters — e.g. parameter sweeps over ``candidate_cutoff``
        or ``max_output_subspaces`` — never recompute a level.
    subsample_size:
        ``None`` (default) estimates contrasts over the full database.  An
        integer switches the contrast estimation to the seeded-subsample
        mode (see :class:`~repro.subspaces.contrast.ContrastEstimator`), so
        the apriori search cost scales with the subsample size instead of
        the database size.  Deterministic: the per-subspace subsample rows
        derive from the root seed and the subspace's attributes.
    storage:
        ``None`` (default) keeps the sorted index in memory.  A storage spec
        string such as ``"memmap(chunk_rows=65536)"`` (or a
        :class:`~repro.dataset.memmap.StorageSpec`) runs the search over an
        out-of-core index: rank columns are built by chunked argsort-merge
        and spilled to a per-fit scratch directory as memmapped ``.npy``
        columns, so only the columns being read are resident.
        Purely a memory/throughput knob — results are bit-for-bit identical
        across storage modes.
    scratch_dir:
        Parent directory for the out-of-core scratch space (it must already
        exist); ``None`` uses the system temporary directory, or whatever
        the storage spec itself pins.  Requires a memmap ``storage``.
    n_shards:
        Retired: row shards of the slice-mask evaluation, which were
        bit-for-bit identical to the unsharded search.  The value is
        validated (a positive int) and stored so saved models and spec
        strings that name it still load, but nothing reads it — a parallel
        ``backend`` always spreads groups of subspaces over its pool.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.subspaces import HiCS
    >>> rng = np.random.default_rng(0)
    >>> x = rng.uniform(size=(300, 1))
    >>> data = np.hstack([x, x + rng.normal(0, 0.01, size=(300, 1)),
    ...                   rng.uniform(size=(300, 3))])
    >>> top = HiCS(n_iterations=30, random_state=0).search(data)[0]
    >>> top.subspace.attributes
    (0, 1)
    """

    name = "HiCS"

    def __init__(
        self,
        *,
        n_iterations: int = 50,
        alpha: float = 0.1,
        deviation: Union[str, DeviationFunction] = "welch",
        candidate_cutoff: int = 400,
        max_output_subspaces: int = 100,
        max_dimensionality: Optional[int] = None,
        prune_redundant: bool = True,
        random_state=None,
        backend=None,
        cache: bool = True,
        subsample_size: Optional[int] = None,
        storage: Optional[str] = None,
        scratch_dir: Optional[str] = None,
        n_shards: int = 1,
    ):
        self.n_iterations = check_positive_int(n_iterations, name="n_iterations")
        if not (0.0 < alpha < 1.0):
            raise ParameterError(f"alpha must lie in (0, 1), got {alpha}")
        self.alpha = float(alpha)
        self.deviation = deviation
        self.candidate_cutoff = check_positive_int(candidate_cutoff, name="candidate_cutoff")
        self.max_output_subspaces = check_positive_int(
            max_output_subspaces, name="max_output_subspaces"
        )
        if max_dimensionality is not None:
            max_dimensionality = check_positive_int(
                max_dimensionality, name="max_dimensionality", minimum=2
            )
        self.max_dimensionality = max_dimensionality
        self.prune_redundant = bool(prune_redundant)
        self.random_state = random_state
        self.backend = check_backend_spec(backend)  # stored unresolved for persistence
        if subsample_size is not None:
            subsample_size = check_positive_int(subsample_size, name="subsample_size")
            if subsample_size < 2:
                raise ParameterError(
                    f"subsample_size must be at least 2, got {subsample_size}"
                )
        self.subsample_size = subsample_size
        # Normalised once, stored as the canonical spec string (or None) so
        # the searcher persists through to_dict/save like every other param.
        parsed_storage = check_storage_spec(storage)
        self.storage = parsed_storage.to_spec() if parsed_storage is not None else None
        if scratch_dir is not None:
            if parsed_storage is None:
                raise ParameterError(
                    "scratch_dir requires a memmap storage spec, e.g. "
                    "storage='memmap(chunk_rows=65536)'"
                )
            scratch_dir = os.fspath(scratch_dir)
        self.scratch_dir = scratch_dir
        # Retired and never read; stored so old models and spec strings load.
        self.n_shards = check_positive_int(n_shards, name="n_shards")
        self.cache = bool(cache)
        self._shared_cache: Optional[ContrastCache] = (
            ContrastCache(max_entries=_CACHE_MAX_ENTRIES) if self.cache else None
        )
        # Populated by search(): contrast of every evaluated subspace, per level.
        self.evaluated_subspaces_: Dict[Subspace, float] = {}
        self.levels_: List[List[ScoredSubspace]] = []

    def _display_name(self) -> str:
        if isinstance(self.deviation, str):
            suffix = {"welch": "WT", "wt": "WT", "ks": "KS"}.get(self.deviation.lower())
            if suffix:
                return f"HiCS_{suffix}"
        return "HiCS"

    # ------------------------------------------------------------------ search

    def search(self, data: np.ndarray) -> List[ScoredSubspace]:
        """Run the full HiCS subspace search on a data matrix."""
        data = check_data_matrix(data, name="data", min_objects=10, min_dims=2)
        storage = check_storage_spec(self.storage)
        if storage is not None and self.scratch_dir is not None:
            # The searcher-level scratch_dir wins over (and typically fills
            # in) the spec's own; both forms persist faithfully.
            storage = dataclasses.replace(storage, scratch_dir=self.scratch_dir)
        estimator = ContrastEstimator(
            data,
            n_iterations=self.n_iterations,
            alpha=self.alpha,
            deviation=self.deviation,
            random_state=self.random_state,
            backend=self.backend,
            cache=self._shared_cache if self.cache else False,
            subsample_size=self.subsample_size,
            storage=storage,
        )
        self.evaluated_subspaces_ = {}
        self.levels_ = []
        # Record the root seed of this search (the drawn entropy when
        # random_state=None) so any fitted result can be replayed exactly.
        self.root_entropy_ = estimator.root_entropy

        candidates = all_two_dimensional_subspaces(data.shape[1])
        all_scored: List[ScoredSubspace] = []
        try:
            while candidates:
                # One batched call scores the entire candidate level; under a
                # parallel backend every level reuses the same persistent
                # worker pool and shared-memory data plane.
                level_scores = estimator.contrast_many(candidates)
                scored_level = [
                    ScoredSubspace(subspace=s, score=level_scores[s]) for s in candidates
                ]
                for item in scored_level:
                    self.evaluated_subspaces_[item.subspace] = item.score
                survivors = apply_cutoff(scored_level, self.candidate_cutoff)
                self.levels_.append(survivors)
                all_scored.extend(survivors)

                level_dim = survivors[0].dimensionality if survivors else 0
                if self.max_dimensionality is not None and level_dim >= self.max_dimensionality:
                    break
                candidates = generate_candidates([s.subspace for s in survivors])
        finally:
            # Release the fit-scoped pool and shared-memory plane; a backend
            # *instance* supplied by the caller keeps its pool alive.
            estimator.close()

        if self.prune_redundant:
            final = prune_redundant_subspaces(all_scored)
        else:
            final = sorted(all_scored, key=best_first)
        return final[: self.max_output_subspaces]

    # ------------------------------------------------------------------ helpers

    def close(self) -> None:
        """Drop the shared contrast cache; the searcher stays configured.

        Each :meth:`search` already closes its fit-scoped worker pool and
        shared-memory plane; what outlives a search is the cross-fit
        :class:`~repro.subspaces.contrast.ContrastCache`.  One-shot hosts
        (CLI commands, model-serving reloads) call this — typically through
        :meth:`SubspaceOutlierPipeline.close
        <repro.pipeline.pipeline.SubspaceOutlierPipeline.close>` — to release
        that memory deterministically.  Idempotent; a later search refills
        the cache.
        """
        if self._shared_cache is not None:
            self._shared_cache.clear()

    def search_subspaces(self, data: np.ndarray) -> List[Subspace]:
        """Like :meth:`search` but returning bare subspaces (best first)."""
        return [s.subspace for s in self.search(data)]

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"{self._display_name()}(M={self.n_iterations}, alpha={self.alpha}, "
            f"cutoff={self.candidate_cutoff})"
        )
