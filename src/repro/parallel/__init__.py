"""Unified execution backends: serial / thread / persistent process pools.

This package is the single parallel layer of the library.  The contrast
search (:meth:`~repro.subspaces.contrast.ContrastEstimator.contrast_many`)
and the experiment runner (:func:`~repro.experiments.runner.run_experiment`)
both fan out through an :class:`ExecutionBackend`; process backends keep one
persistent pool alive across apriori levels and experiment cells and publish
large inputs once through a shared-memory
:class:`~repro.parallel.shared.SharedArrayPlane`, so workers attach zero-copy
under any start method (fork, spawn, forkserver).

Backends are a pure throughput knob: results are bit-for-bit identical under
``serial``, ``thread`` and ``process`` for every start method and worker
count.  See :mod:`repro.parallel.registry` for the spec grammar
(``"process(n_jobs=4, start_method=spawn)"``) shared by component parameters,
:class:`~repro.pipeline.config.PipelineConfig`, the CLI ``--backend`` flag
and the ``REPRO_BACKEND`` environment variable.
"""

from .backends import (
    ExecutionBackend,
    ProcessBackend,
    SerialBackend,
    SingleWriterExecutor,
    ThreadBackend,
    WorkerContext,
    default_chunksize,
    resolve_n_jobs,
)
from .registry import (
    available_backends,
    check_backend_spec,
    fold_n_jobs,
    make_backend,
    parse_backend_spec,
    register_backend,
    resolve_backend,
)
from .shared import ArrayHandle, MemmapHandle, SharedArrayPlane, attach_arrays

__all__ = [
    "ExecutionBackend",
    "SerialBackend",
    "SingleWriterExecutor",
    "ThreadBackend",
    "ProcessBackend",
    "WorkerContext",
    "SharedArrayPlane",
    "ArrayHandle",
    "MemmapHandle",
    "attach_arrays",
    "default_chunksize",
    "resolve_n_jobs",
    "available_backends",
    "check_backend_spec",
    "fold_n_jobs",
    "make_backend",
    "parse_backend_spec",
    "register_backend",
    "resolve_backend",
]
