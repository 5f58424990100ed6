"""The experiment runner: expand, shard, cache, aggregate, stamp.

:func:`run_experiment` turns one registered spec into a *figure artifact* — a
JSON document holding one row per result plus a manifest describing exactly
how it was produced.  The execution pipeline:

1. **Resolve** the requested profile (``ci`` / ``quick`` / ``full``).
2. **Expand** the spec into independent cells (deterministic grid order).
3. **Fingerprint**: each unique dataset spec is built once in the parent to
   obtain its content fingerprint; cells are keyed by
   (task, dataset fingerprint, method, result-relevant config, seed,
   repetition, task params).
4. **Serve or shard**: cells with a cached payload are served from the
   artifact cache; the remainder is executed inline (serial backend) or
   sharded through an execution backend (:mod:`repro.parallel`) whose
   persistent worker pool is shared across all cells — and, via
   :func:`run_suite`, across all experiments of a suite.  Cell results are
   written back to the cache after execution, so an interrupted run resumes
   instead of recomputing.
5. **Aggregate** rows in grid order and stamp the manifest (library version,
   platform, seed, cache hit/miss counts, wall time).

Rows are pure functions of the cell keys, so a warm re-run produces
byte-identical ``rows`` — only the manifest's timing and cache-counter fields
differ.  ``repro-hics bench`` and the benchmark shims both sit on this
function; nothing else in the repository runs paper experiments by hand.
"""

from __future__ import annotations

import json
import os
import platform
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .. import __version__
from ..evaluation.reporting import format_series_table, series_from_rows
from ..exceptions import ParameterError
from ..parallel import (
    ExecutionBackend,
    WorkerContext,
    check_backend_spec,
    resolve_backend,
)
from ..utils.timing import timed
from .cache import ArtifactCache, cell_key
from .profiles import DEFAULT_PROFILE
from .registry import get_experiment
from .spec import Cell, ExperimentSpec, expand_cells, resolve_profile
from .tasks import build_dataset, run_cell

__all__ = [
    "run_experiment",
    "run_suite",
    "format_artifact",
    "environment_manifest",
    "DEFAULT_ARTIFACTS_DIR",
]

DEFAULT_ARTIFACTS_DIR = "artifacts"

#: Manifest fields that legitimately differ between two otherwise identical
#: runs; everything else in an artifact is reproducible byte for byte.
MANIFEST_VOLATILE_FIELDS = (
    "elapsed_sec",
    "cache_hits",
    "cache_misses",
    "n_jobs",
    "backend",
)

__all__.append("MANIFEST_VOLATILE_FIELDS")


def environment_manifest() -> Dict[str, object]:
    """Provenance fields stamped into every artifact and benchmark payload."""
    return {
        "library_version": __version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
    }


class _DatasetPool:
    """Builds each unique dataset spec at most once per run (parent process)."""

    def __init__(self):
        self._datasets: Dict[str, object] = {}

    @staticmethod
    def _key(cell: Cell) -> str:
        from .cache import canonical_json

        return canonical_json(cell.dataset.to_dict())

    def dataset(self, cell: Cell):
        key = self._key(cell)
        if key not in self._datasets:
            self._datasets[key] = build_dataset(cell.dataset)
        return self._datasets[key]

    def fingerprint(self, cell: Cell) -> str:
        return self.dataset(cell).fingerprint()


def _setup_cell_worker(payload, arrays) -> _DatasetPool:
    """Worker-side state: a dataset pool local to the worker process.

    A worker executing several cells of one run over the same dataset spec
    builds the dataset once instead of once per cell.
    """
    return _DatasetPool()


def _cell_worker(datasets: _DatasetPool, payload: Dict[str, object]) -> Dict[str, object]:
    """Backend entry point: rebuild the cell and run it against pooled data."""
    cell = Cell.from_dict(payload)
    return run_cell(cell, datasets.dataset(cell))


def _execute_pending(
    pending: List[Tuple[int, Cell]],
    backend: Optional[ExecutionBackend],
    datasets: _DatasetPool,
) -> Dict[int, Dict[str, object]]:
    """Run the uncached cells, sharded through the execution backend."""
    results: Dict[int, Dict[str, object]] = {}
    if not pending:
        return results
    if backend is None or backend.kind == "serial" or len(pending) == 1:
        for index, cell in pending:
            results[index] = run_cell(cell, datasets.dataset(cell))
        return results
    # In-process backends (thread) share the parent's dataset pool; process
    # workers build their own pool once and keep it across cells.
    context = WorkerContext(
        setup=_setup_cell_worker, payload=None, local_state=datasets
    )
    try:
        payloads = backend.map(
            _cell_worker, [cell.to_dict() for _, cell in pending], context=context
        )
    finally:
        # The context owns the shared-memory plane published for the worker
        # pool; release its segments as soon as the shard is done.
        context.close()
    for (index, _), payload in zip(pending, payloads):
        results[index] = payload
    return results


def run_experiment(
    spec_or_name,
    *,
    profile: str = DEFAULT_PROFILE,
    cache: Optional[ArtifactCache] = None,
    backend=None,
    base_seed: int = 0,
    artifacts_dir: Optional[str] = None,
) -> Dict[str, object]:
    """Run one experiment and return (and optionally write) its artifact.

    Parameters
    ----------
    spec_or_name:
        A registered experiment name or an :class:`ExperimentSpec`.
    profile:
        Grid scale: ``ci`` (default, seconds), ``quick`` or ``full``.
    cache:
        An :class:`ArtifactCache`; ``None`` disables caching entirely.
    backend:
        Execution backend for uncached cells: ``None`` (serial), a spec
        string such as ``"process(n_jobs=4, start_method=spawn)"``, or an
        :class:`~repro.parallel.ExecutionBackend` instance — pass one
        instance to several runs (as :func:`run_suite` does) and they share
        a single persistent worker pool.  Rows are bit-for-bit independent
        of the backend.
    base_seed:
        Root seed; repetition ``r`` of every cell runs with ``base_seed + r``.
    artifacts_dir:
        When given, the artifact is also written to
        ``<artifacts_dir>/<profile>/<name>.json``.
    """
    spec = (
        spec_or_name
        if isinstance(spec_or_name, ExperimentSpec)
        else get_experiment(spec_or_name)
    )
    resolved = resolve_profile(spec, profile)
    exec_backend, owns_backend = resolve_backend(check_backend_spec(backend))
    if resolved.timing_sensitive:
        # The measured runtimes ARE the result here; parallel siblings would
        # contend for cores and the distorted timings would be cached.
        if owns_backend:
            exec_backend.close()
        exec_backend, owns_backend = None, False
    hits_before = cache.hits if cache is not None else 0
    misses_before = cache.misses if cache is not None else 0

    with timed() as clock:
        cells = expand_cells(resolved, base_seed=base_seed)
        datasets = _DatasetPool()
        # Fingerprinting builds the datasets, so skip it entirely when no
        # cache will consume the keys.
        keys = (
            [cell_key(cell, datasets.fingerprint(cell)) for cell in cells]
            if cache is not None
            else [None] * len(cells)
        )

        payloads: Dict[int, Dict[str, object]] = {}
        pending: List[Tuple[int, Cell]] = []
        for index, (cell, key) in enumerate(zip(cells, keys)):
            cached = cache.get(key) if cache is not None else None
            if cached is not None:
                payloads[index] = cached
            else:
                pending.append((index, cell))
        try:
            executed = _execute_pending(pending, exec_backend, datasets)
        finally:
            if owns_backend:
                exec_backend.close()
        for index, payload in executed.items():
            payloads[index] = payload
            if cache is not None:
                cache.put(keys[index], payload)

        # Merge each cell's identity into its rows here, not in the cache:
        # a cached payload may have been produced by an identical cell of a
        # *different* experiment (shared content key) whose labels differ.
        rows: List[Dict[str, object]] = []
        for index, cell in enumerate(cells):
            identity = cell.identity()
            rows.extend({**identity, **row} for row in payloads[index]["rows"])

    manifest = {
        **environment_manifest(),
        "profile": profile,
        "base_seed": base_seed,
        "n_cells": len(cells),
        "n_rows": len(rows),
        "cache_hits": (cache.hits - hits_before) if cache is not None else 0,
        "cache_misses": (cache.misses - misses_before) if cache is not None else 0,
        "n_jobs": exec_backend.n_jobs if exec_backend is not None else 1,
        "backend": exec_backend.spec() if exec_backend is not None else "serial",
        "elapsed_sec": clock["elapsed"],
    }
    artifact: Dict[str, object] = {
        "experiment": spec.name,
        "figure": spec.figure,
        "title": spec.title,
        "task": resolved.task,
        "profile": profile,
        "rows": rows,
        "manifest": manifest,
    }
    if artifacts_dir is not None:
        write_artifact(artifact, artifacts_dir)
    return artifact


def artifact_path(artifact: Dict[str, object], artifacts_dir: str) -> str:
    """Where :func:`write_artifact` stores an artifact."""
    return os.path.join(
        artifacts_dir, str(artifact["profile"]), f"{artifact['experiment']}.json"
    )


def write_artifact(artifact: Dict[str, object], artifacts_dir: str) -> str:
    """Write an artifact as indented JSON (stable key order) and return its path."""
    path = artifact_path(artifact, artifacts_dir)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(artifact, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


__all__.extend(["artifact_path", "write_artifact"])


def run_suite(
    names: Optional[Iterable[str]] = None,
    *,
    profile: str = DEFAULT_PROFILE,
    cache: Optional[ArtifactCache] = None,
    backend=None,
    base_seed: int = 0,
    artifacts_dir: Optional[str] = None,
    progress=None,
) -> Dict[str, Dict[str, object]]:
    """Run several experiments (all registered ones by default) in name order.

    The backend is resolved **once** for the whole suite, so a process
    backend's worker pool persists across every experiment instead of being
    rebuilt per figure (timing-sensitive experiments still execute serially).
    ``progress`` is an optional ``callable(name, artifact)`` invoked after
    each experiment (the CLI uses it for per-spec reporting).  Returns
    ``{name: artifact}``.
    """
    from .registry import available_experiments

    selected = list(names) if names is not None else list(available_experiments())
    # Fail fast on unknown names before any work happens.
    specs = [get_experiment(name) for name in selected]
    exec_backend, owns_backend = resolve_backend(check_backend_spec(backend))
    artifacts: Dict[str, Dict[str, object]] = {}
    try:
        for spec in specs:
            artifact = run_experiment(
                spec,
                profile=profile,
                cache=cache,
                backend=exec_backend,
                base_seed=base_seed,
                artifacts_dir=artifacts_dir,
            )
            artifacts[spec.name] = artifact
            if progress is not None:
                progress(spec.name, artifact)
    finally:
        if owns_backend:
            exec_backend.close()
    return artifacts


def format_artifact(artifact: Dict[str, object]) -> str:
    """Render an artifact as the plain-text table its figure reports.

    ``evaluate``/``roc`` artifacts tabulate AUC (and runtime for runtime
    figures) against the experiment's x axis; ``contrast`` artifacts list the
    per-subspace contrasts; ``rank_outliers`` artifacts list outlier ranks.
    """
    rows = [row for row in artifact.get("rows", []) if not row.get("skipped")]
    task = artifact.get("task", "evaluate")
    header = f"=== {artifact['figure']}: {artifact['title']} [{artifact['profile']}] ==="
    if task == "contrast":
        lines = [header]
        for row in rows:
            lines.append(
                f"  {row['dataset']:<24} {row['method']:<8} "
                f"subspace={tuple(row['subspace'])!s:<14} contrast={row['contrast']:.3f}"
            )
        return "\n".join(lines)
    if task == "rank_outliers":
        lines = [header]
        for row in rows:
            lines.append(
                f"  {row['dataset']:<24} {row['kind']:<12} object={row['object']:<6} "
                f"rank={row['rank']} / {row['n_objects']}"
            )
        return "\n".join(lines)
    if task == "search":
        lines = [header]
        for row in sorted(rows, key=lambda r: (r["dataset"], r["method"], r["rank"])):
            lines.append(
                f"  {row['dataset']:<24} {row['method']:<8} rank={row['rank']} "
                f"score={row['score']:.3f}  subspace={tuple(row['subspace'])}"
            )
        return "\n".join(lines)
    x = "sweep_value" if any("sweep_value" in row for row in rows) else "dataset"
    x_label = rows[0].get("sweep_name", "dataset") if (rows and x == "sweep_value") else "dataset"
    parts = [header]
    auc_series = series_from_rows(rows, x=x, y="auc", by="method")
    if auc_series:
        parts.append(
            format_series_table(auc_series, x_label=f"{x_label} (AUC %)", scale=100.0)
        )
    runtime_series = series_from_rows(rows, x=x, y="runtime_sec", by="method")
    if runtime_series:
        parts.append(
            format_series_table(
                runtime_series, x_label=f"{x_label} (runtime s)", scale=1.0, precision=3
            )
        )
    return "\n".join(parts)


def strip_volatile(artifact: Dict[str, object]) -> Dict[str, object]:
    """An artifact with the volatile manifest fields removed.

    Two runs of the same spec, profile and seed against a warm cache compare
    equal under this projection byte for byte — the reproducibility contract
    the figure-suite CI job enforces.
    """
    manifest = {
        key: value
        for key, value in dict(artifact.get("manifest", {})).items()
        if key not in MANIFEST_VOLATILE_FIELDS
    }
    return {**artifact, "manifest": manifest}


__all__.append("strip_volatile")
