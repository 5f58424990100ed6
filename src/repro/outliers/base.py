"""The :class:`OutlierScorer` interface.

A scorer maps a data matrix (optionally restricted to a subspace) to one
outlier score per object, larger meaning more outlying.  HiCS is agnostic to
the concrete scorer — the paper stresses that "any other density-based scoring
function could be used" — so the ranking engine in
:mod:`repro.outliers.ranking` depends only on this interface.

Since the shared-neighborhood refactor the interface is a *batch* protocol:
:meth:`score_batch` scores one data matrix in many subspaces at once and may
consume a :class:`~repro.neighbors.engine.SharedNeighborEngine`, which
answers every subspace of one data matrix from its columns and keeps
nothing between calls.  The single-subspace :meth:`score` remains the
per-subspace reference implementation; engine-based overrides are
bit-for-bit equivalent to it (see ``tests/test_shared_engine.py``).
"""

from __future__ import annotations

import threading
from typing import List, Optional

import numpy as np

from ..exceptions import DataError, NotFittedError
from ..neighbors.engine import SharedNeighborEngine, normalise_engine_mode
from ..types import Subspace
from ..utils.validation import check_data_matrix

__all__ = ["OutlierScorer"]

#: Guards the lazy construction of per-scorer reference engines and their
#: preparations, so that concurrent first scoring calls (a burst of requests
#: hitting a freshly loaded model) agree on one of each instead of racing to
#: install two.  A module-level lock keeps scorer instances free of
#: unpicklable state; construction is rare (once per fit), so contention is
#: nil.
_REFERENCE_ENGINE_LOCK = threading.Lock()


class OutlierScorer:
    """Abstract base class for per-object outlier scorers.

    Subclasses implement :meth:`score` (batch scoring of a self-contained
    data matrix) and may override :meth:`score_batch` /
    :meth:`score_samples_independent` with engine-backed fast paths.  The
    estimator-protocol methods :meth:`fit` / :meth:`score_samples` are
    provided here: after fitting on a reference dataset, new objects are
    scored *against* that reference, which is the serving-path primitive of
    the fit/score split.
    """

    #: Human readable name used in rankings and reports.
    name: str = "abstract"

    def score(self, data: np.ndarray, subspace: Optional[Subspace] = None) -> np.ndarray:
        """Compute outlier scores for every object of ``data``.

        Parameters
        ----------
        data:
            Full data matrix of shape ``(n_objects, n_dims)``.
        subspace:
            If given, distances are restricted to the attributes of this
            subspace (``score_S`` in the paper); otherwise the full space is
            used.

        Returns
        -------
        numpy.ndarray
            Scores of shape ``(n_objects,)``; larger means more outlying.
        """
        raise NotImplementedError

    def score_full_space(self, data: np.ndarray) -> np.ndarray:
        """Convenience wrapper for full-space scoring."""
        return self.score(data, subspace=None)

    # --------------------------------------------------------------- batch

    def score_batch(
        self,
        data: np.ndarray,
        subspaces: List[Optional[Subspace]],
        *,
        engine: Optional[SharedNeighborEngine] = None,
    ) -> List[np.ndarray]:
        """Score one data matrix in several subspaces with shared work.

        ``engine``, when given, is a :class:`SharedNeighborEngine` built over
        ``data``; scorers whose neighbourhood queries the engine can answer
        override this method to consume it.  The base implementation is the **per-subspace reference path**:
        one independent :meth:`score` pass per subspace, ignoring the engine.

        Returns one score vector of shape ``(n_objects,)`` per subspace.
        """
        data = check_data_matrix(data, name="data", min_objects=2)
        self._check_engine(engine, data)
        return [self.score(data, subspace=subspace) for subspace in subspaces]

    @staticmethod
    def _check_engine(engine: Optional[SharedNeighborEngine], data: np.ndarray) -> None:
        """Reject an engine built over anything but ``data``: it would answer for its own."""
        if engine is None or engine.data is data or np.array_equal(engine.data, data):
            return
        raise DataError(
            f"engine was built over other data ({engine.n_objects} objects) than "
            f"the data it is asked to score ({data.shape[0]} objects)"
        )

    @staticmethod
    def _subspace_attributes(
        data: np.ndarray, subspace: Optional[Subspace]
    ) -> Optional[tuple]:
        if subspace is None:
            return None
        subspace.validate_against_dimensionality(data.shape[1])
        return subspace.attributes

    # ----------------------------------------------------------- protocol

    def fit(self, data: np.ndarray) -> OutlierScorer:
        """Remember ``data`` as the reference population for :meth:`score_samples`."""
        self.reference_data_ = check_data_matrix(data, name="data", min_objects=2)
        self.close()
        return self

    def _check_reference(self, data: np.ndarray) -> np.ndarray:
        reference = getattr(self, "reference_data_", None)
        if reference is None:
            raise NotFittedError(
                f"{type(self).__name__} has no reference data; call fit() first"
            )
        data = check_data_matrix(data, name="data", min_objects=1)
        if data.shape[1] != reference.shape[1]:
            raise DataError(
                f"new data has {data.shape[1]} dimensions but the scorer was "
                f"fitted on {reference.shape[1]}"
            )
        return data

    def _shared_reference_engine(self) -> SharedNeighborEngine:
        """Engine over the fitted reference data, cached across scoring calls.

        The engine holds nothing but the reference data: served points get
        their distance rows straight from the reference columns (its
        asymmetric query mode), and the reference neighbour lists that make
        ``independent=True`` scoring of a request stream cheap live in what a
        scorer prepares from it (LOF's local-update plan,
        :meth:`_reference_preparation`).  Construction is double-checked
        under a module lock so concurrent scoring threads share one engine,
        and with it one preparation.
        """
        engine = getattr(self, "_reference_engine_", None)
        if engine is None:
            with _REFERENCE_ENGINE_LOCK:
                engine = getattr(self, "_reference_engine_", None)
                if engine is None:
                    engine = SharedNeighborEngine(self.reference_data_)
                    self._reference_engine_ = engine
        return engine

    def _reference_preparation(self, engine: SharedNeighborEngine, key, build):
        """``build(engine)``, kept beside the reference engine under ``key``.

        A scorer keeps here what it derives once from the reference engine
        for many scoring calls (LOF's local-update plan of the served
        subspaces).  It is built under the same double-checked module lock
        as the engine, so concurrent first calls build it once, and it is
        never mutated after.  It belongs to ``engine``: a rebuilt engine
        (after a refit) or another ``key`` builds it anew, and :meth:`close`
        drops it.
        """
        held = getattr(self, "_reference_preparation_", None)
        if held is None or held[0] is not engine or held[1] != key:
            with _REFERENCE_ENGINE_LOCK:
                held = getattr(self, "_reference_preparation_", None)
                if held is None or held[0] is not engine or held[1] != key:
                    held = (engine, key, build(engine))
                    self._reference_preparation_ = held
        return held[2]

    def close(self) -> None:
        """Release the warm reference engine and its preparation; the scorer stays fitted.

        The preparation (LOF's local-update plan) holds the reference
        neighbour lists, a few ``n x k`` arrays per served subspace — state
        a long-lived host must be able to drop deterministically when it
        retires a model (serving hot reload) rather than waiting for garbage
        collection.
        Idempotent; the next ``independent=True`` scoring call rebuilds both
        and produces bit-identical scores.
        """
        self._reference_engine_ = None
        self._reference_preparation_ = None

    @staticmethod
    def _resolve_engine_mode(engine: Optional[str]) -> Optional[str]:
        """Normalise an engine-mode argument; None means per-subspace."""
        if engine is None:
            return None
        mode = normalise_engine_mode(engine)
        return None if mode == "per-subspace" else mode

    def score_samples(
        self, data: np.ndarray, subspace: Optional[Subspace] = None
    ) -> np.ndarray:
        """Score *new* objects against the fitted reference population.

        Equivalent to ``score_samples_many(data, [subspace])[0]``; see
        :meth:`score_samples_many` for the exact (joint) batch semantics.

        Returns scores of shape ``(n_new_objects,)``.
        """
        return self.score_samples_many(data, [subspace])[0]

    def score_samples_many(
        self,
        data: np.ndarray,
        subspaces: List[Optional[Subspace]],
        *,
        engine: Optional[str] = None,
    ) -> List[np.ndarray]:
        """Score *new* objects in several subspaces with one reference pass.

        Builds the concatenation of reference and new objects **once** and
        evaluates :meth:`score_batch` on it, returning only the scores of the
        new rows.  With ``engine="shared"`` a
        :class:`SharedNeighborEngine` over the combined matrix answers all
        subspaces; with
        ``engine="per-subspace"`` (or ``None``) every subspace recomputes its
        own distances — both produce identical scores, bit for bit.

        .. note:: **Batch semantics.**  The new objects are scored *jointly*:
           they participate in each other's neighbourhoods, so a batch of
           near-duplicate anomalies can form its own dense cluster and mask
           itself.  Callers that need every object judged purely against the
           reference population should use :meth:`score_samples_independent`
           (the pipeline exposes this as ``score_samples(..., independent=True)``).

        Returns one score vector of shape ``(n_new_objects,)`` per entry of
        ``subspaces``.
        """
        data = self._check_reference(data)
        mode = self._resolve_engine_mode(engine)
        combined = np.vstack([self.reference_data_, data])
        shared = SharedNeighborEngine(combined) if mode == "shared" else None
        n_reference = self.reference_data_.shape[0]
        return [
            scores[n_reference:]
            for scores in self.score_batch(combined, subspaces, engine=shared)
        ]

    def score_samples_independent(
        self,
        data: np.ndarray,
        subspaces: List[Optional[Subspace]],
        *,
        engine: Optional[str] = None,
    ) -> List[np.ndarray]:
        """Score every new object *on its own* against the reference.

        Each object is scored as if it were the only addition to the
        reference population, so a burst of near-duplicate anomalies in one
        batch cannot mask itself.  The base implementation is the reference
        path — one :meth:`score_samples_many` call per object.  Engine-aware
        scorers override it to answer all per-object queries from the shared
        reference blocks (the engine's asymmetric query mode) without a
        Python-level scoring pass per object; the results are identical.

        Returns one score vector of shape ``(n_new_objects,)`` per entry of
        ``subspaces``.
        """
        data = self._check_reference(data)
        per_object = [
            self.score_samples_many(data[i : i + 1], subspaces)
            for i in range(data.shape[0])
        ]
        return [
            np.array([per_object[i][s][0] for i in range(data.shape[0])])
            for s in range(len(subspaces))
        ]

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"{type(self).__name__}(name={self.name!r})"
