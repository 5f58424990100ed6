"""Content-addressed artifact cache for experiment cells.

Every cell result is stored as one JSON file under ``<root>/<aa>/<key>.json``
where ``key`` is the SHA256 of the cell's *content key*: the task kind, the
fingerprint of the built dataset (bytes, not construction parameters), the
resolved method string, the result-relevant pipeline configuration, the seed,
the repetition index and the task parameters.  Anything that can change a
result changes the key; anything that cannot — throughput knobs like the
execution backend and the scoring engine selection, which are bit-for-bit
equivalent by the golden tests — is deliberately excluded, so a cached suite
survives a ``--backend`` change.

The cache makes runs resumable: an interrupted ``repro-hics bench`` re-run
serves finished cells from disk and computes only the remainder, and a warm
re-run with identical parameters produces byte-identical result rows.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from typing import Dict, Optional

from ..exceptions import ParameterError
from .spec import Cell

__all__ = ["ArtifactCache", "canonical_json", "cell_key", "CACHE_SCHEMA_VERSION"]

#: Bump when the stored payload layout changes; old entries then miss cleanly.
CACHE_SCHEMA_VERSION = 1

#: PipelineConfig fields that cannot affect results (throughput knobs with
#: bit-for-bit equivalence guarantees) and therefore stay out of the key.
_THROUGHPUT_FIELDS = (
    "backend",
    "scoring_engine",
    "storage",
    "scratch_dir",
)

#: PipelineConfig fields that DO affect results and therefore feed the key
#: (as the config payload of :func:`cell_key`).  Together with
#: ``_THROUGHPUT_FIELDS`` this must classify every field of
#: :class:`~repro.pipeline.config.PipelineConfig`: the ``RPR301`` lint rule
#: cross-checks both tuples against the dataclass, so adding a config field
#: without deciding its cache-key status fails the lint gate.
_RESULT_FIELDS = (
    "min_pts",
    "max_subspaces",
    "hics_iterations",
    "hics_alpha",
    "hics_cutoff",
    "hics_subsample",
    "random_state",
    "extra",
)

#: Cell fields that are bookkeeping-only and deliberately excluded from the
#: key: the experiment name and sweep labels describe where a cell appears in
#: the figure suite, not what it computes, so identical cells of two
#: experiments are computed once.  The ``RPR302`` lint rule cross-checks this
#: tuple plus the :func:`cell_key` payload against the ``Cell`` dataclass.
_IDENTITY_FIELDS = ("experiment", "method_label", "sweep_name", "sweep_value")


def canonical_json(payload: object) -> str:
    """Canonical JSON text: sorted keys, minimal separators, repr fallback."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"), default=repr)


def cell_key(cell: Cell, dataset_fingerprint: str) -> str:
    """The content key of one cell given the fingerprint of its built dataset."""
    config = {
        key: value
        for key, value in dict(cell.config).items()
        if key not in _THROUGHPUT_FIELDS
    }
    payload = {
        "schema": CACHE_SCHEMA_VERSION,
        "task": cell.task,
        "dataset": dataset_fingerprint,
        "method": cell.method,
        "config": config,
        "task_params": dict(cell.task_params),
        "seed": cell.seed,
        "repetition": cell.repetition,
        "max_dims": cell.max_dims,
        "max_objects": cell.max_objects,
    }
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()


class ArtifactCache:
    """Directory-backed content-addressed store for per-cell result rows.

    Writes are atomic (temp file + rename), so a crashed or interrupted run
    never leaves a truncated entry; unreadable entries are treated as misses
    and overwritten.  ``hits``/``misses`` counters feed the run manifest.
    """

    def __init__(self, root: str):
        if not str(root).strip():
            raise ParameterError("cache root must be a non-empty path")
        self.root = str(root)
        self.hits = 0
        self.misses = 0

    def _path(self, key: str) -> str:
        return os.path.join(self.root, key[:2], f"{key}.json")

    def get(self, key: str) -> Optional[Dict[str, object]]:
        """Return the stored payload for ``key``, or ``None`` on a miss."""
        path = self._path(key)
        try:
            with open(path, encoding="utf-8") as handle:
                payload = json.load(handle)
        except (OSError, ValueError):
            self.misses += 1
            return None
        if not isinstance(payload, dict) or payload.get("schema") != CACHE_SCHEMA_VERSION:
            self.misses += 1
            return None
        self.hits += 1
        return payload

    def put(self, key: str, payload: Dict[str, object]) -> None:
        """Store a payload under ``key`` atomically."""
        path = self._path(key)
        directory = os.path.dirname(path)
        os.makedirs(directory, exist_ok=True)
        payload = {"schema": CACHE_SCHEMA_VERSION, **payload}
        descriptor, temp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
        try:
            with os.fdopen(descriptor, "w", encoding="utf-8") as handle:
                json.dump(payload, handle, sort_keys=True)
            os.replace(temp_path, path)
        except BaseException:
            try:
                os.unlink(temp_path)
            except OSError:
                pass
            raise

    def stats(self) -> Dict[str, int]:
        """Hit/miss counters for the run manifest."""
        return {"hits": self.hits, "misses": self.misses}
