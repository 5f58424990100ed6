"""Execution backends: one reusable parallel layer for every fan-out.

The library has exactly two embarrassingly parallel axes — Monte-Carlo
contrast evaluation per candidate subspace and independent experiment cells —
and both now run through the same :class:`ExecutionBackend` protocol instead
of ad-hoc per-module process pools:

``serial``
    Runs inline in the calling process.  The reference execution path.
``thread``
    A persistent :class:`~concurrent.futures.ThreadPoolExecutor`.  Worker
    callables share the caller's objects directly (no pickling); useful for
    NumPy-heavy work that releases the GIL and as an equivalence check.
``process``
    A **persistent** :class:`~concurrent.futures.ProcessPoolExecutor` that
    outlives individual :meth:`~ExecutionBackend.map` calls, so one pool
    serves all apriori levels of a fit (or all cells of an experiment run)
    instead of being rebuilt per level.  Large inputs are published once
    through a :class:`~repro.parallel.shared.SharedArrayPlane` and attached
    zero-copy by the workers, which makes every start method — ``fork``,
    ``spawn``, ``forkserver`` — equally cheap and therefore makes
    ``n_jobs > 1`` work on macOS and Windows.

Every backend executes the same pure per-item functions, so results are
bit-for-bit identical across backends, start methods and worker counts (the
golden suite in ``tests/test_parallel_backends.py`` pins this).

Worker state
------------
A :class:`WorkerContext` describes the state a worker needs before it can
process items: a module-level ``setup(payload, arrays) -> state`` function, a
picklable payload and a dict of large arrays.  Process workers cache the
built state under the context's token, so consecutive ``map`` calls with the
same context (e.g. the apriori levels of one fit) pay the setup exactly once
per worker; in-process backends reuse ``local_state`` (typically the calling
object itself) and never touch shared memory.
"""

from __future__ import annotations

import itertools
import os
import uuid
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
    from multiprocessing.context import BaseContext

import numpy as np

from ..exceptions import ParameterError
from .shared import ArrayHandle, PlaneAttachment, SharedArrayPlane, attach_arrays

__all__ = [
    "ExecutionBackend",
    "ProcessBackend",
    "SerialBackend",
    "SingleWriterExecutor",
    "ThreadBackend",
    "WorkerContext",
    "default_chunksize",
    "resolve_n_jobs",
]

_START_METHODS = ("fork", "spawn", "forkserver")


def resolve_n_jobs(n_jobs: int) -> int:
    """Normalise an ``n_jobs`` parameter (-1 meaning "all cores")."""
    if not isinstance(n_jobs, (int, np.integer)) or isinstance(n_jobs, bool):
        raise ParameterError(f"n_jobs must be an integer, got {type(n_jobs).__name__}")
    n_jobs = int(n_jobs)
    if n_jobs == -1:
        return max(1, os.cpu_count() or 1)
    if n_jobs < 1:
        raise ParameterError(f"n_jobs must be >= 1 or -1 (all cores), got {n_jobs}")
    return n_jobs


def default_chunksize(n_items: int, n_jobs: int, cost_hint: float = 1.0) -> int:
    """Chunk size targeting ~4 chunks per worker, shrunk for expensive items.

    ``cost_hint`` is the caller's estimate of the per-item cost relative to a
    baseline item (>= 1).  The old buried constant ``len // (4 * n_jobs)``
    assumed uniform cost; contrast evaluation grows linearly with subspace
    dimensionality (one rank-block comparison per attribute per iteration),
    so higher apriori levels pass a larger hint and get proportionally
    smaller chunks — better load balancing exactly where stragglers hurt.
    """
    if n_items <= 0:
        return 1
    per_worker = n_items / max(1, n_jobs)
    base = int(per_worker / (4.0 * max(1.0, float(cost_hint))))
    return max(1, min(base, n_items))


_TOKENS = itertools.count()


def _new_token() -> str:
    return f"{os.getpid()}-{next(_TOKENS)}-{uuid.uuid4().hex[:8]}"


class _RemoteContext:
    """Picklable form of a :class:`WorkerContext` shipped with each chunk."""

    __slots__ = ("token", "setup", "payload", "handles")

    def __init__(
        self,
        token: str,
        setup: Optional[Callable],
        payload: Optional[dict],
        handles: Dict[str, ArrayHandle],
    ):
        self.token = token
        self.setup = setup
        self.payload = payload
        self.handles = handles


class WorkerContext:
    """Declarative per-worker state shared by all tasks of one producer.

    Parameters
    ----------
    setup:
        Module-level ``callable(payload, arrays) -> state``; must be
        picklable by reference for process backends.  ``None`` means the
        worker function needs no state (it receives ``None``).
    payload:
        Small picklable parameters for ``setup``.
    arrays:
        ``{name: ndarray}`` of large inputs.  Process backends publish them
        once through a :class:`SharedArrayPlane`; in-process backends pass
        them to ``setup`` by reference.
    local_state:
        Ready-made state for in-process backends (e.g. the calling estimator
        itself), so serial/thread execution never rebuilds anything.
    """

    def __init__(
        self,
        *,
        setup: Optional[Callable] = None,
        payload: Optional[dict] = None,
        arrays: Optional[Dict[str, np.ndarray]] = None,
        local_state: object = None,
    ):
        self.token = _new_token()
        self.setup = setup
        self.payload = payload
        self.arrays = dict(arrays) if arrays else {}
        self._local_state = local_state
        self._local_built = False
        self._plane: Optional[SharedArrayPlane] = None

    def local_state(self) -> object:
        """The in-process state: ``local_state`` if given, else built once."""
        if self._local_state is None and not self._local_built and self.setup is not None:
            self._local_state = self.setup(self.payload, self.arrays)
            self._local_built = True
        return self._local_state

    def remote(self) -> _RemoteContext:
        """The picklable form; publishes the shared-memory plane on first use."""
        if self._plane is None and self.arrays:
            self._plane = SharedArrayPlane(self.arrays)
        handles = self._plane.handles if self._plane is not None else {}
        return _RemoteContext(self.token, self.setup, self.payload, handles)

    def close(self) -> None:
        """Release the shared-memory plane and any built local state."""
        if self._plane is not None:
            self._plane.unlink()
            self._plane = None
        if self._local_built:
            self._local_state = None
            self._local_built = False

    def __enter__(self) -> WorkerContext:
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


# ------------------------------------------------------------ worker side

#: One live context per worker process: (token, state, plane attachment).
_WORKER_SLOT: List[Tuple[str, object, Optional[PlaneAttachment]]] = []


def _worker_state(remote: Optional[_RemoteContext]) -> object:
    if remote is None or remote.setup is None:
        return None
    if _WORKER_SLOT and _WORKER_SLOT[0][0] == remote.token:
        return _WORKER_SLOT[0][1]
    while _WORKER_SLOT:  # evict the previous context before attaching anew
        _, _, attachment = _WORKER_SLOT.pop()
        if attachment is not None:
            attachment.close()
    attachment = attach_arrays(remote.handles) if remote.handles else None
    arrays = attachment.arrays if attachment is not None else {}
    state = remote.setup(remote.payload, arrays)
    _WORKER_SLOT.append((remote.token, state, attachment))
    return state


def _run_chunk(remote: Optional[_RemoteContext], func: Callable, items: Sequence) -> list:
    """Process-pool entry point: resolve the worker state, run one chunk."""
    state = _worker_state(remote)
    return [func(state, item) for item in items]


# ---------------------------------------------------------------- backends


class ExecutionBackend:
    """Protocol shared by all execution backends.

    A backend maps a pure ``func(state, item)`` over items, optionally under
    a :class:`WorkerContext` supplying the state.  Results always come back
    in input order and are bit-for-bit independent of the backend choice.
    """

    #: Registry/spec name ("serial", "thread", "process").
    kind: str = "abstract"

    n_jobs: int = 1

    def map(
        self,
        func: Callable,
        items: Sequence,
        *,
        context: Optional[WorkerContext] = None,
        chunksize: Optional[int] = None,
        cost_hint: float = 1.0,
    ) -> list:
        raise NotImplementedError

    def close(self) -> None:
        """Release pooled workers.  Idempotent; a later ``map`` re-pools."""

    def spec(self) -> str:
        """Canonical spec-string form (round-trips through ``make_backend``)."""
        return self.kind

    def __enter__(self) -> ExecutionBackend:
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"{type(self).__name__}({self.spec()!r})"


class SerialBackend(ExecutionBackend):
    """Inline execution in the calling process (the reference path)."""

    kind = "serial"

    def map(self, func, items, *, context=None, chunksize=None, cost_hint=1.0) -> list:
        state = context.local_state() if context is not None else None
        return [func(state, item) for item in items]


class ThreadBackend(ExecutionBackend):
    """A persistent thread pool sharing the caller's address space.

    The worker state is the context's ``local_state`` (no pickling, no
    shared-memory plane), so ``func`` and the state must tolerate concurrent
    calls; all library worker functions are read-only over their state apart
    from benign idempotent memo writes.
    """

    kind = "thread"

    def __init__(self, n_jobs: int = -1):
        self.n_jobs = resolve_n_jobs(n_jobs)
        self._executor: Optional[ThreadPoolExecutor] = None

    def _pool(self) -> ThreadPoolExecutor:
        if self._executor is None:
            from concurrent.futures import ThreadPoolExecutor

            self._executor = ThreadPoolExecutor(
                max_workers=self.n_jobs, thread_name_prefix="repro-exec"
            )
        return self._executor

    def map(self, func, items, *, context=None, chunksize=None, cost_hint=1.0) -> list:
        items = list(items)
        if not items:
            return []
        state = context.local_state() if context is not None else None
        return list(self._pool().map(lambda item: func(state, item), items))

    def close(self) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    def spec(self) -> str:
        return f"thread(n_jobs={self.n_jobs})"


class ProcessBackend(ExecutionBackend):
    """A persistent process pool fed through the shared-memory array plane.

    Parameters
    ----------
    n_jobs:
        Worker processes (``-1`` = all cores).
    start_method:
        ``"fork"``, ``"spawn"`` or ``"forkserver"``; ``None`` picks ``fork``
        where the platform offers it (cheapest) and the platform default
        elsewhere.  Results are identical under every start method.
    chunksize:
        Items per worker task.  ``None`` (default) uses
        :func:`default_chunksize` with the caller's per-item ``cost_hint``;
        setting it pins a fixed size (a tuning knob for oddly shaped
        workloads, e.g. ``process(n_jobs=4, chunksize=8)`` in spec strings).
    """

    kind = "process"

    def __init__(
        self,
        n_jobs: int = -1,
        *,
        start_method: Optional[str] = None,
        chunksize: Optional[int] = None,
    ):
        self.n_jobs = resolve_n_jobs(n_jobs)
        if start_method is not None and start_method not in _START_METHODS:
            raise ParameterError(
                f"start_method must be one of {_START_METHODS} or None, got {start_method!r}"
            )
        self.start_method = start_method
        if chunksize is not None:
            if not isinstance(chunksize, (int, np.integer)) or isinstance(chunksize, bool):
                raise ParameterError(
                    f"chunksize must be an integer or None, got {type(chunksize).__name__}"
                )
            if chunksize < 1:
                raise ParameterError(f"chunksize must be >= 1, got {chunksize}")
            chunksize = int(chunksize)
        self.chunksize = chunksize
        self._executor: Optional[ProcessPoolExecutor] = None

    def _context(self) -> BaseContext:
        import multiprocessing

        if self.start_method is not None:
            return multiprocessing.get_context(self.start_method)
        try:
            return multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX platforms
            return multiprocessing.get_context()

    def _pool(self) -> ProcessPoolExecutor:
        if self._executor is None:
            from concurrent.futures import ProcessPoolExecutor

            self._executor = ProcessPoolExecutor(
                max_workers=self.n_jobs, mp_context=self._context()
            )
        return self._executor

    def map(self, func, items, *, context=None, chunksize=None, cost_hint=1.0) -> list:
        items = list(items)
        if not items:
            return []
        remote = context.remote() if context is not None else None
        if chunksize is None:
            chunksize = self.chunksize
        if chunksize is None:
            chunksize = default_chunksize(len(items), self.n_jobs, cost_hint)
        from concurrent.futures.process import BrokenProcessPool

        pool = self._pool()
        try:
            futures = [
                pool.submit(_run_chunk, remote, func, items[start : start + chunksize])
                for start in range(0, len(items), chunksize)
            ]
            results: list = []
            for future in futures:
                results.extend(future.result())
        except BrokenProcessPool:
            # A worker died (killed, out of memory).  The executor refuses
            # all further work, so drop it: the next map starts a new pool.
            self.close()
            raise
        return results

    def close(self) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    def spec(self) -> str:
        parts = [f"n_jobs={self.n_jobs}"]
        if self.start_method is not None:
            parts.append(f"start_method={self.start_method!r}")
        if self.chunksize is not None:
            parts.append(f"chunksize={self.chunksize}")
        return f"process({', '.join(parts)})"


class SingleWriterExecutor:
    """One dedicated worker thread executing submitted calls in FIFO order.

    A long-lived host (``repro-hics serve``) funnels every warm scoring pass
    through one of these, so scoring runs on a single thread while the
    asyncio front end stays free to accept requests.  The scorers are safe
    to share across threads anyway (a
    :class:`~repro.neighbors.engine.SharedNeighborEngine` keeps nothing
    between calls); the single writer keeps concurrent passes from
    competing for the cores and makes request ordering deterministic.

    Unlike the :class:`ExecutionBackend` family this is not a fan-out
    primitive: it exists to *serialise* work, one call at a time, and hand
    back :class:`concurrent.futures.Future` objects an event loop can await.
    """

    def __init__(self, name: str = "repro-single-writer"):
        from concurrent.futures import ThreadPoolExecutor

        self._executor: Optional[ThreadPoolExecutor] = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix=name
        )

    def submit(self, func: Callable, *args, **kwargs):
        """Schedule ``func(*args, **kwargs)`` on the writer thread."""
        if self._executor is None:
            raise RuntimeError("SingleWriterExecutor is closed")
        return self._executor.submit(func, *args, **kwargs)

    def close(self) -> None:
        """Drain and stop the writer thread.  Idempotent."""
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    def __enter__(self) -> SingleWriterExecutor:
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
