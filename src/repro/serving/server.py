"""The asyncio scoring server behind ``repro-hics serve``.

Request flow::

    client --POST /score--> handler task --row--> MicroBatcher --batch-->
        SingleWriterExecutor thread: registry.current.score(rows)
    client <--JSON score---- handler task <--(score, batch size)--

One :class:`~repro.parallel.SingleWriterExecutor` thread runs every scoring
pass, so passes never compete for the cores and requests are scored in
arrival order.  The asyncio loop only parses requests, queues rows and
serialises responses, so accepting traffic never blocks on NumPy work.

Endpoints
---------
``POST /score``          ``{"point": [..]}`` → one micro-batched score.
``POST /score/batch``    ``{"points": [[..], ..]}`` → one scoring pass.
``GET  /healthz``        liveness + live model version + queue depth.
``GET  /metrics``        counters, batch-size and latency histograms.
``GET  /models``         current and recently retired model versions.
``POST /admin/reload``   explicit hot reload (``{"force": true}`` to force).

Scores are bit-identical to offline
:meth:`~repro.pipeline.pipeline.SubspaceOutlierPipeline.score_samples` with
``independent=True``: independence makes batch composition irrelevant and
JSON's ``repr``-precision floats survive the wire exactly.
"""

from __future__ import annotations

import asyncio
import contextlib
import threading
import time
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from ..exceptions import DataError, ReproError
from ..parallel import SingleWriterExecutor
from .batching import MicroBatcher
from .http import (
    DEFAULT_MAX_BODY_BYTES,
    MAX_HEADER_BYTES,
    HttpError,
    Request,
    json_response,
    read_request,
)
from .metrics import ServingMetrics
from .registry import ModelRegistry

__all__ = ["ScoringServer", "serve_in_thread"]


def _check_vector(value: object, n_dims: int, *, name: str = "point") -> List[float]:
    """Validate one JSON row: a list of ``n_dims`` finite numbers."""
    if not isinstance(value, (list, tuple)):
        raise HttpError(400, f"{name!r} must be a JSON array of numbers")
    if len(value) != n_dims:
        raise HttpError(
            400, f"{name!r} has {len(value)} values but the model was fitted on {n_dims} dimensions"
        )
    row: List[float] = []
    for i, item in enumerate(value):
        if isinstance(item, bool) or not isinstance(item, (int, float)):
            raise HttpError(400, f"{name}[{i}] is not a number")
        item = float(item)
        if item != item or item in (float("inf"), float("-inf")):
            raise HttpError(400, f"{name}[{i}] is not finite")
        row.append(item)
    return row


class ScoringServer:
    """Serve a :class:`~repro.serving.registry.ModelRegistry` over HTTP.

    The server takes ownership of ``registry``: :meth:`stop` closes it along
    with the batcher and the scoring executor.  ``port=0`` binds an
    ephemeral port, published as :attr:`port` after :meth:`start`.
    """

    def __init__(
        self,
        registry: ModelRegistry,
        *,
        host: str = "127.0.0.1",
        port: int = 8765,
        max_batch_size: int = 64,
        max_batch_wait_ms: float = 0.0,
        watch_interval: float = 0.0,
        max_body_bytes: int = DEFAULT_MAX_BODY_BYTES,
    ):
        self.registry = registry
        self.host = host
        self.port = int(port)
        self.max_batch_size = int(max_batch_size)
        self.max_batch_wait_ms = float(max_batch_wait_ms)
        self.watch_interval = float(watch_interval)
        self.max_body_bytes = int(max_body_bytes)
        self.metrics = ServingMetrics()
        self._executor: Optional[SingleWriterExecutor] = None
        self._batcher: Optional[MicroBatcher] = None
        self._server: Optional[asyncio.base_events.Server] = None
        self._watch_task: Optional["asyncio.Task[None]"] = None
        self._closed_event: Optional[asyncio.Event] = None
        self._started_monotonic: Optional[float] = None

    # ------------------------------------------------------------ control

    async def start(self) -> None:
        """Bind the listening socket and start the batching machinery."""
        self._closed_event = asyncio.Event()
        self._executor = SingleWriterExecutor(name="repro-serve-writer")
        self._batcher = MicroBatcher(
            self._score_rows,
            executor=self._executor,
            max_batch_size=self.max_batch_size,
            max_batch_wait_ms=self.max_batch_wait_ms,
            on_batch=self.metrics.observe_batch,
        )
        self._batcher.start()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port, limit=MAX_HEADER_BYTES
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._started_monotonic = time.monotonic()
        if self.watch_interval > 0:
            self._watch_task = asyncio.get_running_loop().create_task(self._watch())

    async def stop(self) -> None:
        """Stop accepting, drain the batcher, release the model.  Idempotent."""
        if self._watch_task is not None:
            self._watch_task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._watch_task
            self._watch_task = None
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if self._batcher is not None:
            await self._batcher.close()
            self._batcher = None
        if self._executor is not None:
            self._executor.close()
            self._executor = None
        self.registry.close()
        if self._closed_event is not None:
            self._closed_event.set()

    async def wait_closed(self) -> None:
        """Block until :meth:`stop` completes (the CLI's foreground wait)."""
        if self._closed_event is not None:
            await self._closed_event.wait()

    # ------------------------------------------------------------ scoring

    def _score_rows(self, rows: List[List[float]]) -> List[Tuple[str, float]]:
        """One scoring pass on the writer thread; returns (version, score) rows.

        The model is grabbed *once* per batch, so every row of a batch is
        scored by the same version and a concurrent hot reload only affects
        later batches — in-flight requests are never dropped or mixed.
        """
        model = self.registry.current
        matrix = np.asarray(rows, dtype=float)
        scores = model.score(matrix)
        return [(model.version, float(score)) for score in scores]

    async def _watch(self) -> None:
        while True:
            await asyncio.sleep(self.watch_interval)
            try:
                changed = await asyncio.get_running_loop().run_in_executor(
                    None, self._reload
                )
            except asyncio.CancelledError:
                raise
            except Exception:
                self.metrics.count_reload(ok=False)
            else:
                if changed:
                    self.metrics.count_reload(ok=True)

    def _reload(self, *, force: bool = False) -> bool:
        return self.registry.load(force=force)

    # ----------------------------------------------------------- handlers

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                try:
                    request = await read_request(reader, max_body_bytes=self.max_body_bytes)
                except HttpError as exc:
                    writer.write(
                        json_response(exc.status, {"error": exc.message}, keep_alive=False)
                    )
                    await writer.drain()
                    return
                if request is None:
                    return
                started = time.perf_counter()
                status, payload = await self._dispatch_safe(request)
                keep_alive = request.keep_alive
                writer.write(json_response(status, payload, keep_alive=keep_alive))
                await writer.drain()
                self.metrics.observe_request(
                    f"{request.method} {request.path}",
                    status,
                    (time.perf_counter() - started) * 1000.0,
                )
                if not keep_alive:
                    return
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()

    async def _dispatch_safe(self, request: Request) -> Tuple[int, Dict[str, object]]:
        try:
            return await self._dispatch(request)
        except HttpError as exc:
            return exc.status, {"error": exc.message}
        except (DataError, ReproError) as exc:
            # Library-level input rejection (bad model file on reload, bad
            # matrix): the client's fault or an operator problem, not a bug.
            return 400, {"error": str(exc)}
        except asyncio.CancelledError:
            raise
        except RuntimeError as exc:
            return 503, {"error": str(exc)}
        except Exception as exc:
            return 500, {"error": f"internal error: {type(exc).__name__}: {exc}"}

    async def _dispatch(self, request: Request) -> Tuple[int, Dict[str, object]]:
        routes = {
            "/score": ("POST", self._route_score),
            "/score/batch": ("POST", self._route_score_batch),
            "/healthz": ("GET", self._route_healthz),
            "/metrics": ("GET", self._route_metrics),
            "/models": ("GET", self._route_models),
            "/admin/reload": ("POST", self._route_reload),
        }
        path = request.path.split("?", 1)[0]
        entry = routes.get(path)
        if entry is None:
            raise HttpError(404, f"no such endpoint: {path!r}")
        method, handler = entry
        if request.method != method:
            raise HttpError(405, f"{path} only accepts {method}")
        return await handler(request)

    async def _route_score(self, request: Request) -> Tuple[int, Dict[str, object]]:
        payload = request.json()
        if not isinstance(payload, dict):
            raise HttpError(400, "request body must be a JSON object")
        row = _check_vector(payload.get("point"), self.registry.current.n_dims)
        if self._batcher is None:
            raise HttpError(503, "server is shutting down")
        (version, score), batch_size = await self._batcher.submit(row)
        return 200, {"score": score, "model_version": version, "batch_size": batch_size}

    async def _route_score_batch(self, request: Request) -> Tuple[int, Dict[str, object]]:
        payload = request.json()
        if not isinstance(payload, dict):
            raise HttpError(400, "request body must be a JSON object")
        points = payload.get("points")
        if not isinstance(points, list):
            raise HttpError(400, "'points' must be a JSON array of rows")
        n_dims = self.registry.current.n_dims
        rows = [
            _check_vector(point, n_dims, name=f"points[{i}]")
            for i, point in enumerate(points)
        ]
        if not rows:
            return 200, {
                "scores": [],
                "model_version": self.registry.current.version,
                "count": 0,
            }
        if self._executor is None:
            raise HttpError(503, "server is shutting down")
        results = await asyncio.wrap_future(self._executor.submit(self._score_rows, rows))
        self.metrics.observe_batch(len(rows))
        return 200, {
            "scores": [score for _version, score in results],
            "model_version": results[0][0],
            "count": len(results),
        }

    async def _route_healthz(self, _request: Request) -> Tuple[int, Dict[str, object]]:
        model = self.registry.current
        uptime = (
            time.monotonic() - self._started_monotonic
            if self._started_monotonic is not None
            else 0.0
        )
        return 200, {
            "status": "ok",
            "model_version": model.version,
            "n_dims": model.n_dims,
            "uptime_sec": uptime,
            "queue_depth": self._batcher.queue_depth if self._batcher is not None else 0,
        }

    async def _route_metrics(self, _request: Request) -> Tuple[int, Dict[str, object]]:
        depth = (lambda: self._batcher.queue_depth) if self._batcher is not None else None
        return 200, self.metrics.snapshot(queue_depth=depth)

    async def _route_models(self, _request: Request) -> Tuple[int, Dict[str, object]]:
        return 200, self.registry.describe()

    async def _route_reload(self, request: Request) -> Tuple[int, Dict[str, object]]:
        force = False
        if request.body:
            payload = request.json()
            if not isinstance(payload, dict):
                raise HttpError(400, "request body must be a JSON object")
            force = bool(payload.get("force", False))
        try:
            changed = await asyncio.get_running_loop().run_in_executor(
                None, lambda: self._reload(force=force)
            )
        except (DataError, ReproError) as exc:
            # The old model keeps serving; reload failure is reported, not fatal.
            self.metrics.count_reload(ok=False)
            return 400, {"error": str(exc), "reloaded": False}
        if changed:
            self.metrics.count_reload(ok=True)
        return 200, {
            "reloaded": changed,
            "model_version": self.registry.current.version,
        }


@contextlib.contextmanager
def serve_in_thread(
    registry: ModelRegistry, **kwargs: object
) -> Iterator[ScoringServer]:
    """Run a :class:`ScoringServer` on a background event-loop thread.

    The test/benchmark harness: yields the started server (with its resolved
    ephemeral :attr:`~ScoringServer.port`), and tears everything down —
    server, batcher, executor and registry — on exit.

    >>> registry = ModelRegistry("model.npz")                  # doctest: +SKIP
    >>> with serve_in_thread(registry, port=0) as server:      # doctest: +SKIP
    ...     url = f"http://{server.host}:{server.port}/score"
    """
    kwargs.setdefault("port", 0)
    server = ScoringServer(registry, **kwargs)  # type: ignore[arg-type]
    loop = asyncio.new_event_loop()
    started = threading.Event()
    failure: List[BaseException] = []

    def _run() -> None:
        asyncio.set_event_loop(loop)
        try:
            loop.run_until_complete(server.start())
        except BaseException as exc:  # surface bind/load errors to the caller
            failure.append(exc)
            started.set()
            return
        started.set()
        loop.run_forever()

    thread = threading.Thread(target=_run, name="repro-serve-loop", daemon=True)
    thread.start()
    started.wait(timeout=30.0)
    if failure:
        loop.close()
        raise failure[0]
    try:
        yield server
    finally:
        asyncio.run_coroutine_threadsafe(server.stop(), loop).result(timeout=30.0)
        loop.call_soon_threadsafe(loop.stop)
        thread.join(timeout=30.0)
        loop.close()
