"""The :class:`SubspaceOutlierPipeline`: the paper's two-step processing.

Step 1 (subspace search) and step 2 (outlier ranking) are fully decoupled:
any :class:`~repro.subspaces.base.SubspaceSearcher` can be combined with any
:class:`~repro.outliers.base.OutlierScorer`.  The pipeline also records the
wall time of each step, because the paper reports the *total* processing time
of search plus ranking.

The pipeline follows a scikit-learn-style estimator protocol:

* :meth:`fit` runs the (expensive) Monte-Carlo subspace search **once**
  against a reference dataset;
* :meth:`score_samples` / :meth:`rank` score batches of *new* objects against
  the fitted subspaces and reference population without repeating the search;
* :meth:`fit_rank` composes the two for the classic one-shot batch ranking of
  the reference data itself (the paper's experimental protocol);
* :meth:`save` / :meth:`load` persist a fitted pipeline (component spec,
  fitted subspaces and reference data) for later serving.
"""

from __future__ import annotations

import json
import os
import tempfile
import zipfile
from typing import Dict, List, Optional, Union

import numpy as np

from ..dataset.dataset import Dataset
from ..exceptions import DataError, NotFittedError, ParameterError, SubspaceError
from ..outliers.aggregation import aggregate_scores
from ..outliers.base import OutlierScorer
from ..outliers.lof import LOFScorer
from ..outliers.ranking import SubspaceOutlierRanker
from ..parallel import ExecutionBackend, check_backend_spec
from ..subspaces.base import SubspaceSearcher
from ..subspaces.hics import HiCS
from ..types import RankingResult, ScoredSubspace, Subspace
from ..utils.timing import Stopwatch
from ..utils.validation import check_data_matrix

__all__ = ["SubspaceOutlierPipeline"]

#: Format marker written into every persisted pipeline file.
_PERSISTENCE_FORMAT = "repro-fitted-pipeline"
_PERSISTENCE_VERSION = 1


class SubspaceOutlierPipeline:
    """End-to-end subspace outlier ranking.

    Parameters
    ----------
    searcher:
        The subspace search method (step 1); defaults to :class:`HiCS` with the
        paper's default parameters.
    scorer:
        The per-subspace outlier scorer (step 2); defaults to LOF with
        ``MinPts = 10``.
    aggregation:
        Score aggregation across subspaces, ``"average"`` by default.
    max_subspaces:
        Number of best subspaces actually used for the ranking (paper: 100).
    engine:
        Scoring engine: ``"shared"`` (default) scores all fitted subspaces
        through one :class:`~repro.neighbors.engine.SharedNeighborEngine`,
        which assembles each subspace's distances from the data columns in
        row bands and selects each band's neighbours as it goes, and takes
        an exact pruned kNN search on tall data; ``"per-subspace"`` is the
        reference path that recomputes every subspace's distances from
        scratch.  Both produce identical scores, bit for bit — the switch is
        purely a throughput/memory knob.  The retired name ``"streaming"``
        is read as ``"shared"``.
    backend:
        Execution-backend spec (see :mod:`repro.parallel`), e.g.
        ``"process(n_jobs=4)"``.  ``None`` (default) leaves each component's
        own ``backend`` setting untouched; a value overrides the
        searcher's backend at :meth:`fit` time.  Purely a throughput knob —
        scores are bit-for-bit independent of it — and persisted with
        :meth:`to_dict`/:meth:`save` so a saved pipeline reloads with the
        same execution configuration.

    Examples
    --------
    One-shot batch ranking (the paper's protocol):

    >>> from repro import SubspaceOutlierPipeline, generate_synthetic_dataset
    >>> dataset = generate_synthetic_dataset(n_objects=300, n_dims=10, random_state=0)
    >>> result = SubspaceOutlierPipeline().fit_rank(dataset)
    >>> result.scores.shape
    (300,)

    Fit once, score a stream of new objects (the serving path):

    >>> pipeline = SubspaceOutlierPipeline().fit(dataset)
    >>> new_scores = pipeline.score_samples(dataset.data[:5])
    >>> new_scores.shape
    (5,)
    """

    def __init__(
        self,
        searcher: Optional[SubspaceSearcher] = None,
        scorer: Optional[OutlierScorer] = None,
        *,
        aggregation: str = "average",
        max_subspaces: int = 100,
        engine: str = "shared",
        backend: Optional[str] = None,
    ):
        self.searcher = searcher if searcher is not None else HiCS()
        if not isinstance(self.searcher, SubspaceSearcher):
            raise ParameterError("searcher must be a SubspaceSearcher instance")
        self.scorer = scorer if scorer is not None else LOFScorer()
        self.backend = check_backend_spec(backend)
        self.ranker = SubspaceOutlierRanker(
            self.scorer,
            aggregation=aggregation,
            max_subspaces=max_subspaces,
            engine=engine,
        )
        self.engine = self.ranker.engine
        # Populated by fit() / fit_rank().
        self.scored_subspaces_: List[ScoredSubspace] = []
        self.reference_data_: Optional[np.ndarray] = None
        self.fallback_full_space_: bool = False
        self.stopwatch_: Optional[Stopwatch] = None

    # ------------------------------------------------------------ protocol

    @property
    def is_fitted(self) -> bool:
        """True once :meth:`fit` (or :meth:`fit_rank`) has run."""
        return self.reference_data_ is not None

    @property
    def subspaces_(self) -> List[Subspace]:
        """The subspaces used for scoring, best first.

        When the search found no subspace this falls back to the single
        full-space subspace, as the :class:`~repro.subspaces.base.SubspaceSearcher`
        contract requires of its consumers; :attr:`scored_subspaces_` always
        holds the raw search result (possibly empty).
        """
        self._check_fitted()
        if not self.scored_subspaces_:
            return [Subspace(range(self.reference_data_.shape[1]))]
        return [item.subspace for item in self.scored_subspaces_]

    def _check_fitted(self) -> None:
        if not self.is_fitted:
            raise NotFittedError(
                "this SubspaceOutlierPipeline is not fitted; call fit() first"
            )

    @staticmethod
    def _as_matrix(data: Union[np.ndarray, Dataset], *, min_objects: int = 1) -> np.ndarray:
        if isinstance(data, Dataset):
            return data.data
        return check_data_matrix(data, name="data", min_objects=min_objects)

    def fit(self, data: Union[np.ndarray, Dataset]) -> SubspaceOutlierPipeline:
        """Run the subspace search once against a reference dataset.

        Stores the found subspaces and the reference data, and prepares the
        scorer so that :meth:`score_samples` can rank new objects without
        repeating the search.  When the searcher finds no subspace at all,
        :attr:`subspaces_` falls back to the single full-space subspace and
        :attr:`fallback_full_space_` is set.  Returns ``self``.
        """
        matrix = self._as_matrix(data, min_objects=2)
        if self.backend is not None and hasattr(self.searcher, "backend"):
            # The pipeline-level backend wins over the searcher's own setting
            # — same precedence the CLI applies to the scoring engine knobs.
            backend = self.backend
            if isinstance(backend, ExecutionBackend):
                # Hand the searcher the canonical spec, not the live object:
                # a pool instance stored as a component parameter would make
                # the fitted searcher unserialisable (to_dict/save JSON-encode
                # component params).  The searcher builds and owns an
                # equivalent backend; callers who want to share one pool
                # across fits pass the instance to the searcher directly.
                backend = backend.spec()
            self.searcher.backend = backend
        stopwatch = Stopwatch()
        with stopwatch.measure("subspace_search"):
            found = self.searcher.fit(matrix).scored_subspaces_
        self.fallback_full_space_ = not found
        self.scored_subspaces_ = list(found)
        self.reference_data_ = matrix
        self.scorer.fit(matrix)
        self.stopwatch_ = stopwatch
        return self

    def score_samples(
        self, data: Union[np.ndarray, Dataset], *, independent: bool = False
    ) -> np.ndarray:
        """Score a batch of *new* objects against the fitted pipeline.

        Each object is scored relative to the reference population in every
        fitted subspace (capped at ``max_subspaces``) and the per-subspace
        scores are aggregated exactly as in :meth:`fit_rank`.  The subspace
        search is **not** re-run.

        By default the batch is scored *jointly* (fast: one scoring pass per
        subspace), which means the new objects participate in each other's
        neighbourhoods — a burst of near-duplicate anomalies in one batch can
        mask itself.  With ``independent=True`` every object is scored on its
        own against the reference only (immune to that masking).  Under the
        ``"shared"`` engine both modes run on one shared engine.  The
        independent mode reads the query's distance rows from the engine's
        asymmetric query mode; LOF then scores each query from the few
        reference rows its insertion changes, with state prepared once per
        fitted model (see :meth:`LOFScorer.score_samples_independent
        <repro.outliers.lof.LOFScorer.score_samples_independent>`), instead
        of a full per-object scoring pass.

        Returns scores of shape ``(n_new_objects,)``; larger means more
        outlying.
        """
        self._check_fitted()
        matrix = self._as_matrix(data)
        if matrix.shape[1] != self.reference_data_.shape[1]:
            raise DataError(
                f"new data has {matrix.shape[1]} dimensions but the pipeline was "
                f"fitted on {self.reference_data_.shape[1]}"
            )
        selected = self.subspaces_[: self.ranker.max_subspaces]
        method = (
            self.scorer.score_samples_independent
            if independent
            else self.scorer.score_samples_many
        )
        per_subspace = self._call_scoring_method(method, matrix, selected)
        return aggregate_scores(per_subspace, self.ranker.aggregation)

    def _call_scoring_method(self, method, matrix, selected):
        """Invoke a scorer batch method, tolerating pre-engine overrides.

        Custom scorers written before the shared-neighborhood refactor may
        override ``score_samples_many(data, subspaces)`` without the engine
        keywords; they simply keep their own scoring path.
        """
        import inspect

        parameters = inspect.signature(method).parameters
        accepts_engine = "engine" in parameters or any(
            p.kind is inspect.Parameter.VAR_KEYWORD for p in parameters.values()
        )
        if not accepts_engine:
            return method(matrix, selected)
        return method(matrix, selected, engine=self.engine)

    def rank(
        self, data: Union[np.ndarray, Dataset], *, independent: bool = False
    ) -> RankingResult:
        """Rank a batch of *new* objects; :meth:`score_samples` with provenance."""
        self._check_fitted()
        stopwatch = Stopwatch()
        with stopwatch.measure("outlier_ranking"):
            scores = self.score_samples(data, independent=independent)
        selected = tuple(self.subspaces_[: self.ranker.max_subspaces])
        result = RankingResult(
            scores=scores,
            subspaces=selected,
            method=f"{self.searcher.name}+{self.scorer.name}",
            metadata={
                "searcher": self.searcher.name,
                "scorer": self.scorer.name,
                "n_subspaces": len(selected),
                "n_reference_objects": int(self.reference_data_.shape[0]),
                "ranking_time_sec": stopwatch.get("outlier_ranking"),
                "fallback_full_space": self.fallback_full_space_,
            },
        )
        return result

    def fit_rank(self, data: Union[np.ndarray, Dataset]) -> RankingResult:
        """Run subspace search and outlier ranking on a dataset or raw matrix.

        The classic one-shot batch API: equivalent to :meth:`fit` followed by
        an in-sample ranking of the reference data itself.
        """
        self.fit(data)
        stopwatch = self.stopwatch_
        subspaces = self.subspaces_
        result = self.ranker.rank(self.reference_data_, subspaces, stopwatch=stopwatch)
        result.metadata.update(
            {
                "searcher": self.searcher.name,
                "scorer": self.scorer.name,
                "search_time_sec": stopwatch.get("subspace_search"),
                "ranking_time_sec": stopwatch.get("outlier_ranking"),
                "total_time_sec": stopwatch.total(),
                "n_found_subspaces": len(self.scored_subspaces_),
                "fallback_full_space": self.fallback_full_space_,
            }
        )
        result.method = f"{self.searcher.name}+{self.scorer.name}"
        return result

    # ------------------------------------------------------- serialisation

    def to_dict(self) -> Dict[str, object]:
        """JSON-serialisable description of the pipeline *configuration*.

        Components must be registered (see :mod:`repro.registry`) and their
        parameters JSON-serialisable; the fitted state is not included — use
        :meth:`save` for fitted pipelines.
        """
        from ..registry import component_to_dict

        aggregation = self.ranker.aggregation
        if not isinstance(aggregation, str):
            raise ParameterError(
                "pipelines with a callable aggregation cannot be serialised; "
                "register the aggregation under a name first"
            )
        backend = self.backend
        if isinstance(backend, ExecutionBackend):
            # A live backend instance is persisted as its canonical spec
            # string; the reloading host builds (and owns) a fresh pool.
            backend = backend.spec()
        return {
            "format": "repro-pipeline",
            "searcher": component_to_dict(self.searcher, "searcher"),
            "scorer": component_to_dict(self.scorer, "scorer"),
            "aggregation": aggregation,
            "max_subspaces": self.ranker.max_subspaces,
            "engine": self.engine,
            "backend": backend,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> SubspaceOutlierPipeline:
        """Rebuild an (unfitted) pipeline from its :meth:`to_dict` payload."""
        from ..registry import component_from_dict

        if not isinstance(payload, dict):
            raise ParameterError(f"pipeline payload must be a mapping, got {type(payload).__name__}")
        if payload.get("format") != "repro-pipeline":
            raise ParameterError(
                f"not a pipeline payload: format={payload.get('format')!r}"
            )
        for key in ("searcher", "scorer"):
            if key not in payload:
                raise ParameterError(f"pipeline payload is missing its {key!r} section")
        try:
            max_subspaces = int(payload.get("max_subspaces", 100))
        except (TypeError, ValueError) as exc:
            raise ParameterError(
                f"invalid max_subspaces in pipeline payload: "
                f"{payload.get('max_subspaces')!r}"
            ) from exc
        return cls(
            searcher=component_from_dict(payload["searcher"], "searcher"),
            scorer=component_from_dict(payload["scorer"], "scorer"),
            aggregation=payload.get("aggregation", "average"),
            max_subspaces=max_subspaces,
            # Pre-engine payloads (format_version 1 files written before the
            # shared-neighborhood refactor) default to the shared engine —
            # scores are identical either way — and a retired engine name
            # maps to its survivor (normalise_engine_mode).  Likewise,
            # payloads written before the execution-backend subsystem
            # default to backend=None (serial), the historical behaviour.  A
            # retired ``memory_budget_mb`` entry (the size limit of the
            # engine's former n x n buffer) is dropped: it never changed a
            # score.
            engine=payload.get("engine", "shared"),
            backend=payload.get("backend"),
        )

    def save(self, path: str) -> None:
        """Persist the *fitted* pipeline to ``path`` (NumPy ``.npz`` container).

        The file holds the component spec (:meth:`to_dict`), the fitted
        subspaces with their contrast scores, and the reference data, so that
        ``load(path).score_samples(X)`` reproduces this pipeline's scores
        bit-for-bit.

        The write is **atomic**: the archive is staged to a temporary file in
        the target directory, flushed and fsynced, and only then moved over
        ``path`` with :func:`os.replace`.  A crash mid-save can therefore
        never leave a torn, unloadable model file behind — readers (including
        a serving host hot-reloading the model path) always see either the
        previous complete file or the new complete file.
        """
        from .. import __version__  # local import: repro/__init__ imports this module

        self._check_fitted()
        header = {
            "format": _PERSISTENCE_FORMAT,
            "format_version": _PERSISTENCE_VERSION,
            "library_version": __version__,
            "pipeline": self.to_dict(),
            "fallback_full_space": self.fallback_full_space_,
            "subspaces": [list(s.subspace.attributes) for s in self.scored_subspaces_],
            "subspace_scores": [float(s.score) for s in self.scored_subspaces_],
        }
        target = os.path.abspath(path)
        directory = os.path.dirname(target)
        descriptor, staging = tempfile.mkstemp(
            prefix=os.path.basename(target) + ".", suffix=".tmp", dir=directory
        )
        try:
            with os.fdopen(descriptor, "wb") as handle:
                np.savez(
                    handle,
                    header=np.array(json.dumps(header)),
                    reference_data=self.reference_data_,
                )
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(staging, target)
        except BaseException:
            try:
                os.unlink(staging)
            except OSError:
                pass
            raise
        self._fsync_directory(directory)

    @staticmethod
    def _fsync_directory(directory: str) -> None:
        """Best-effort durability for the rename itself (POSIX directories)."""
        try:
            descriptor = os.open(directory, os.O_RDONLY)
        except OSError:
            return
        try:
            os.fsync(descriptor)
        except OSError:
            pass
        finally:
            os.close(descriptor)

    # ------------------------------------------------------------ lifecycle

    def close(self) -> None:
        """Release transient resources; the pipeline stays fitted and usable.

        Drops the caches and pools the components accumulate across calls —
        the searcher's shared contrast cache and any execution backend it
        owns, and the scorer's warm reference
        :class:`~repro.neighbors.engine.SharedNeighborEngine` and what the
        scorer prepared from it (LOF's local-update plan).  One-shot
        hosts (the CLI sub-commands) and long-lived hosts swapping models
        (``repro-hics serve`` hot reload) call this instead of relying on
        interpreter teardown.  Idempotent; a later scoring call simply rebuilds
        the caches and produces bit-identical scores.
        """
        for component in (self.searcher, self.scorer):
            closer = getattr(component, "close", None)
            if callable(closer):
                closer()

    def __enter__(self) -> SubspaceOutlierPipeline:
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    @classmethod
    def load(cls, path: str) -> SubspaceOutlierPipeline:
        """Load a fitted pipeline previously written by :meth:`save`."""
        try:
            # Our own handle: np.load leaks the file it opened itself when a
            # torn archive fails to parse.
            with open(path, "rb") as handle, np.load(handle, allow_pickle=False) as archive:
                header_raw = str(archive["header"][()])
                reference = np.asarray(archive["reference_data"], dtype=float)
        except (OSError, KeyError, ValueError, zipfile.BadZipFile) as exc:
            raise DataError(f"cannot read fitted pipeline from {path!r}: {exc}") from exc
        try:
            header = json.loads(header_raw)
        except json.JSONDecodeError as exc:
            raise DataError(f"corrupt pipeline header in {path!r}") from exc
        if not isinstance(header, dict):
            raise DataError(f"corrupt pipeline header in {path!r}: not a mapping")
        if header.get("format") != _PERSISTENCE_FORMAT:
            raise DataError(
                f"{path!r} is not a fitted repro pipeline (format={header.get('format')!r})"
            )
        try:
            format_version = int(header.get("format_version", -1))
        except (TypeError, ValueError) as exc:
            raise DataError(
                f"corrupt pipeline file {path!r}: bad format_version "
                f"{header.get('format_version')!r}"
            ) from exc
        if format_version > _PERSISTENCE_VERSION:
            raise DataError(
                f"{path!r} uses persistence format version {header['format_version']}, "
                f"newer than the supported version {_PERSISTENCE_VERSION}"
            )
        payload = header.get("pipeline")
        if payload is None:
            raise DataError(f"corrupt pipeline file {path!r}: missing 'pipeline' section")
        pipeline = cls.from_dict(payload)
        subspaces = header.get("subspaces", [])
        scores = header.get("subspace_scores", [])
        if len(subspaces) != len(scores):
            raise DataError(
                f"corrupt pipeline file {path!r}: {len(subspaces)} subspaces but "
                f"{len(scores)} subspace scores"
            )
        pipeline.reference_data_ = check_data_matrix(
            reference, name="reference_data", min_objects=2
        )
        n_dims = pipeline.reference_data_.shape[1]
        scored = []
        for attrs, score in zip(subspaces, scores):
            try:
                subspace = Subspace(attrs)
                subspace.validate_against_dimensionality(n_dims)
                scored.append(ScoredSubspace(subspace=subspace, score=float(score)))
            except (SubspaceError, TypeError, ValueError) as exc:
                raise DataError(f"corrupt pipeline file {path!r}: {exc}") from exc
        pipeline.scored_subspaces_ = scored
        pipeline.fallback_full_space_ = bool(header.get("fallback_full_space", False))
        pipeline.scorer.fit(pipeline.reference_data_)
        return pipeline
