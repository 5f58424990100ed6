"""The model registry: versioned fitted pipelines with atomic hot reload.

A registry points at either

* a single model file written by ``repro-hics fit`` (its version is the file
  stem, re-stat'ed on every reload so overwriting the file *is* publishing a
  new version — safe because :meth:`SubspaceOutlierPipeline.save
  <repro.pipeline.pipeline.SubspaceOutlierPipeline.save>` replaces the file
  atomically), or
* a directory of versioned ``*.npz`` models, where the lexicographically
  last name is the active version (``v0001.npz`` < ``v0002.npz`` — publish
  by dropping a new file in, roll back by deleting it).

Reloads are atomic from the request path's point of view: the new pipeline
is loaded and warmed completely off to the side, then swapped in with one
reference assignment.  Scoring passes grab the current
:class:`ModelVersion` once per batch, so in-flight requests finish on the
model they started with; the retired pipeline's caches are closed only
after the swap, which is safe because closing drops cache *references*
while any still-running batch keeps its own.
"""

from __future__ import annotations

import os
import threading
from collections import deque
from typing import Deque, Dict, Optional, Tuple

import numpy as np

from ..exceptions import DataError
from ..pipeline.pipeline import SubspaceOutlierPipeline

__all__ = ["ModelRegistry", "ModelVersion"]


class ModelVersion:
    """One immutable loaded model: a fitted pipeline plus its provenance."""

    __slots__ = ("version", "path", "ident", "pipeline", "n_dims", "n_subspaces", "method")

    def __init__(
        self,
        version: str,
        path: str,
        ident: Tuple[str, int, int],
        pipeline: SubspaceOutlierPipeline,
    ):
        self.version = version
        self.path = path
        #: (path, st_mtime_ns, st_size) — the stat fingerprint change
        #: detection compares; ``os.replace`` publishing a new file always
        #: changes it.
        self.ident = ident
        self.pipeline = pipeline
        self.n_dims = int(pipeline.reference_data_.shape[1])
        self.n_subspaces = len(pipeline.subspaces_)
        self.method = f"{pipeline.searcher.name}+{pipeline.scorer.name}"

    def score(self, rows: np.ndarray) -> np.ndarray:
        """Score a batch of rows independently against the reference."""
        return self.pipeline.score_samples(rows, independent=True)

    def warm(self) -> None:
        """Build the scorer's reference state before the version goes live.

        Scoring one reference row pays, on the reloading thread, for the
        shared reference engine and for what the scorer prepares from it —
        for LOF, the local-update
        plan of every served subspace (reference kNN lists, mean
        reach-distances, reverse kNN lists).  The first real request after a
        hot swap then computes no reference kNN at all.
        """
        self.score(self.pipeline.reference_data_[:1])

    def describe(self) -> Dict[str, object]:
        return {
            "version": self.version,
            "path": self.path,
            "method": self.method,
            "n_dims": self.n_dims,
            "n_subspaces": self.n_subspaces,
            "n_reference_objects": int(self.pipeline.reference_data_.shape[0]),
            "size_bytes": self.ident[2],
        }


class ModelRegistry:
    """Resolve, load and hot-swap the served :class:`ModelVersion`.

    Parameters
    ----------
    path:
        A fitted model file or a directory of versioned ``*.npz`` models.
    scoring_engine:
        Serve-time override applied to every loaded pipeline (``None`` keeps
        what the model file persisted) — the engine is a throughput knob of
        the host, not part of the fitted model.
    history:
        How many retired version descriptions to keep for ``GET /models``.
    """

    def __init__(
        self,
        path: str,
        *,
        scoring_engine: Optional[str] = None,
        history: int = 8,
    ):
        self.path = path
        self.scoring_engine = scoring_engine
        self._lock = threading.Lock()
        self._current: Optional[ModelVersion] = None
        self._retired: Deque[Dict[str, object]] = deque(maxlen=history)
        self.load(force=True)

    # ------------------------------------------------------------- lookup

    @property
    def current(self) -> ModelVersion:
        """The live version.  A plain reference read — never blocks."""
        model = self._current
        if model is None:  # pragma: no cover - load() in __init__ prevents this
            raise DataError("model registry holds no loaded model")
        return model

    def _resolve(self) -> Tuple[str, str]:
        """The (file path, version name) the registry should be serving."""
        if os.path.isdir(self.path):
            names = sorted(
                name
                for name in os.listdir(self.path)
                if name.endswith(".npz") and not name.endswith(".tmp")
            )
            if not names:
                raise DataError(f"model registry directory {self.path!r} holds no *.npz models")
            name = names[-1]
            return os.path.join(self.path, name), name[: -len(".npz")]
        stem = os.path.splitext(os.path.basename(self.path))[0]
        return self.path, stem

    # ------------------------------------------------------------- reload

    def load(self, *, force: bool = False, warm: bool = True) -> bool:
        """(Re)load the resolved model; returns True when a swap happened.

        Change detection is by stat fingerprint (path, mtime_ns, size) so an
        unchanged file is a cheap no-op.  The whole load-and-warm happens
        before the single reference assignment that publishes the version;
        concurrent :attr:`current` readers never see a half-loaded model.
        """
        with self._lock:
            target, version = self._resolve()
            try:
                stat = os.stat(target)
            except OSError as exc:
                raise DataError(f"cannot stat model file {target!r}: {exc}") from exc
            ident = (target, stat.st_mtime_ns, stat.st_size)
            previous = self._current
            if not force and previous is not None and previous.ident == ident:
                return False
            pipeline = SubspaceOutlierPipeline.load(target)
            if self.scoring_engine is not None:
                pipeline.engine = pipeline.ranker.engine = self.scoring_engine
            model = ModelVersion(version, target, ident, pipeline)
            if warm:
                model.warm()
            self._current = model
            if previous is not None:
                self._retired.appendleft(previous.describe())
        # Close outside the lock: dropping the retired caches can free a lot
        # of memory and must not block a concurrent current-version lookup.
        if previous is not None:
            previous.pipeline.close()
        return True

    def describe(self) -> Dict[str, object]:
        with self._lock:
            current = self._current
            return {
                "path": self.path,
                "current": current.describe() if current is not None else None,
                "retired": list(self._retired),
            }

    # ---------------------------------------------------------- lifecycle

    def close(self) -> None:
        """Release the live pipeline's caches.  Idempotent."""
        with self._lock:
            current = self._current
            self._current = None
        if current is not None:
            current.pipeline.close()

    def __enter__(self) -> ModelRegistry:
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
