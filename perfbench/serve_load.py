"""The serving side of serve-mixed: the server child and the open-loop load.

One generator (this process) keeps two keep-alive HTTP/1.1 connections open:
single-point ``POST /score`` requests on a seeded open-loop schedule (50/s),
and one 8-point ``POST /score/batch`` every half second.  The writer thread is
about a third busy: a busier server would amplify every change in the host's
speed into a much larger change of the tail.  Every request is timed from when
it was due, so a stall also charges the requests queued behind it.
"""

from __future__ import annotations

import asyncio
import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional, Tuple

import numpy as np

from .stats import open_loop_schedule

LAUNCHER = os.path.join(os.path.dirname(os.path.abspath(__file__)), "serve_child.py")
_READY = re.compile(r"on http://([0-9.]+):(\d+)")
START_TIMEOUT_S = 90.0  # for the child to report its port
POINT_RATE = 50.0  # single-point requests per second
BULK_SIZE = 8  # points per bulk request
BULK_EVERY_S = 0.5  # seconds between bulk requests


class ServerChild:
    """A ``repro-hics serve`` child process; ``stop`` always reaps it."""

    def __init__(self, model_path: str, trace_out: Optional[str]):
        self.proc = subprocess.Popen(
            [sys.executable, LAUNCHER, trace_out or "-", "serve", "--model", model_path,
             "--port", "0"],
            stdout=subprocess.PIPE, text=True,
        )
        lines: List[str] = []
        reader = threading.Thread(target=lambda: lines.append(self.proc.stdout.readline()))
        reader.start()
        reader.join(START_TIMEOUT_S)
        match = _READY.search(lines[0]) if lines else None
        if match is None:
            self.stop()
            raise RuntimeError(f"server did not report its port: {lines!r}")
        self.host, self.port = match.group(1), int(match.group(2))

    def peak_rss_mb(self) -> float:
        """The child's VmHWM (peak resident set) in MiB."""
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


class Connection:
    """Minimal keep-alive HTTP/1.1 JSON client over asyncio streams."""

    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter):
        self.reader, self.writer = reader, writer

    @classmethod
    async def open(cls, host: str, port: int) -> "Connection":
        return cls(*await asyncio.open_connection(host, port))

    async def request(self, method: str, path: str, payload=None) -> Tuple[int, dict]:
        body = b"" if payload is None else json.dumps(payload).encode()
        self.writer.write(
            f"{method} {path} HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n\r\n".encode() + body
        )
        await self.writer.drain()
        status = int((await self.reader.readline()).split()[1])
        length = 0
        while True:
            line = await self.reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            key, _, value = line.decode("latin-1").partition(":")
            if key.strip().lower() == "content-length":
                length = int(value)
        return status, json.loads(await self.reader.readexactly(length))

    async def close(self) -> None:
        self.writer.close()
        await self.writer.wait_closed()


def traffic(seed: int, seconds: float, pool_size: int) -> Dict[str, np.ndarray]:
    """The seeded request mix: point due times and rows, bulk due times and rows."""
    rng = np.random.default_rng([seed, 0xB0D7])
    due = open_loop_schedule(seed, POINT_RATE, seconds)
    bulk_due = np.arange(BULK_EVERY_S / 2, seconds, BULK_EVERY_S)
    return {
        "point_due": due,
        "point_rows": rng.integers(0, pool_size, size=due.size),
        "bulk_due": bulk_due,
        "bulk_rows": rng.integers(0, pool_size, size=(bulk_due.size, BULK_SIZE)),
    }


async def _stream(conn: Connection, t0: float, dues, rows, path: str, pool: np.ndarray,
                  out: dict) -> None:
    free_at = t0
    for due, row in zip(dues, rows):
        due_at = t0 + float(due)
        now = time.perf_counter()
        if now < due_at:
            await asyncio.sleep(due_at - now)
        sent = time.perf_counter()
        out["late_ms"].append((sent - max(due_at, free_at)) * 1000.0)
        if path == "/score":
            payload = {"point": pool[row].tolist()}
        else:
            payload = {"points": pool[row].tolist()}
        try:
            status, body = await conn.request("POST", path, payload)
        except (OSError, ValueError, asyncio.IncompleteReadError):
            status, body = 0, {}
        done = time.perf_counter()
        free_at = done
        out["sent"] += 1
        if status != 200:
            out["failed"] += 1
            continue
        out["latency_ms"].append((done - due_at) * 1000.0)
        scores = [body["score"]] if path == "/score" else body["scores"]
        out["served"].append((np.atleast_1d(row), scores))


async def _drive(host: str, port: int, pool: np.ndarray, mix: Dict[str, np.ndarray]):
    points = await Connection.open(host, port)
    bulk = await Connection.open(host, port)
    results = {key: {"latency_ms": [], "late_ms": [], "served": [], "sent": 0, "failed": 0}
               for key in ("point", "bulk")}
    t0 = time.perf_counter() + 0.05
    try:
        await asyncio.gather(
            _stream(points, t0, mix["point_due"], mix["point_rows"], "/score", pool,
                    results["point"]),
            _stream(bulk, t0, mix["bulk_due"], mix["bulk_rows"], "/score/batch", pool,
                    results["bulk"]),
        )
        _, metrics = await points.request("GET", "/metrics")
    finally:
        await points.close()
        await bulk.close()
    return results, metrics


def run_load(server: ServerChild, pool: np.ndarray, mix: Dict[str, np.ndarray]):
    """Send the whole request mix; returns per-stream results and ``GET /metrics``."""
    return asyncio.run(_drive(server.host, server.port, pool, mix))
