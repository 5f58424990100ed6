"""In-memory spans, counters and attribute patching for the traced run.

Spans are recorded by wrappers the benchmark installs around public callables
of the library (see ``layers.py``); nothing inside ``src/`` is instrumented.
Every span keeps its name, start, end, parent span and run id.  The spans stay
in memory until the run ends and are then written as Chrome trace-event JSON.

A span's *self time* is its duration minus the part of its interval covered
by its child spans.
"""

from __future__ import annotations

import functools
import json
import os
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Tuple

__all__ = ["Patcher", "Span", "Tracer", "layer_totals", "self_times", "spanning"]


@dataclass
class Span:
    span_id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    thread: int
    phase: str

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans and counters; one tracer per process and run.

    ``phase`` labels what the run is doing ("setup" or "measure"), so layer
    totals can charge set-up work once and divide measured work by the
    number of measured passes.
    """

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.phase = "setup"
        self.spans: List[Span] = []
        self.counters: Dict[Tuple[str, str], float] = defaultdict(float)
        self.maxima: Dict[str, float] = {}
        self.samples: Dict[str, List[float]] = defaultdict(list)
        self._local = threading.local()
        self._ids = iter(range(1, 1 << 62))
        self._lock = threading.Lock()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, func: Callable, args, kwargs):
        """Run ``func`` inside a span called ``name``; returns its result."""
        stack = self._stack()
        with self._lock:
            span_id = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = time.perf_counter()
        try:
            return func(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(
                Span(span_id, name, start, end, parent, threading.get_ident(), self.phase)
            )

    def count(self, name: str, amount: float = 1.0) -> None:
        with self._lock:
            self.counters[(name, self.phase)] += amount

    def observe_max(self, name: str, value: float) -> None:
        with self._lock:
            self.maxima[name] = max(self.maxima.get(name, value), value)

    def sample(self, name: str, value: float) -> None:
        with self._lock:
            self.samples[name].append(value)

    # ----------------------------------------------------------- reporting

    def counter_totals(self, passes: int = 1) -> Dict[str, float]:
        totals: Dict[str, float] = defaultdict(float)
        for (name, phase), value in self.counters.items():
            totals[name] += value / passes if phase == "measure" else value
        return dict(totals)

    def to_chrome(self) -> List[dict]:
        """Chrome trace-event ("X" complete events, microseconds)."""
        if not self.spans:
            return []
        pid = os.getpid()
        origin = min(span.start for span in self.spans)
        return [
            {
                "name": span.name,
                "cat": span.name.split(".", 1)[0],
                "ph": "X",
                "ts": (span.start - origin) * 1e6,
                "dur": span.duration * 1e6,
                "pid": pid,
                "tid": span.thread,
                "args": {"id": span.span_id, "parent": span.parent,
                         "run": self.run_id, "phase": span.phase},
            }
            for span in self.spans
        ]

    def payload(self, passes: int = 1) -> dict:
        """Spans (Chrome trace events), counters and layer totals as JSON data."""
        return {
            "run_id": self.run_id,
            "passes": passes,
            "traceEvents": self.to_chrome(),
            "layers": {k: {"total_s": t, "self_s": s}
                       for k, (t, s) in sorted(layer_totals(self.spans, passes).items())},
            "counters": self.counter_totals(passes),
            "maxima": dict(self.maxima),
            "samples": {k: list(v) for k, v in self.samples.items()},
        }

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.payload(), handle)


def self_times(spans: Iterable[Span]) -> Dict[int, float]:
    """Self time of every span: its duration minus the union of its children."""
    spans = list(spans)
    children: Dict[int, List[Span]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    result = {}
    for span in spans:
        covered = 0.0
        cursor = span.start
        for child in sorted(children.get(span.span_id, ()), key=lambda c: c.start):
            lo = max(child.start, cursor)
            hi = min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result[span.span_id] = span.duration - covered
    return result


def layer_totals(spans: Iterable[Span], passes: int = 1) -> Dict[str, Tuple[float, float]]:
    """``{span name: (total s, self s)}`` over the run.

    Set-up spans count once; measured spans are divided by ``passes``.  A
    span nested inside another span of the same name adds its self time but
    not its duration, so recursion never counts twice.
    """
    spans = list(spans)
    by_id = {span.span_id: span for span in spans}
    own = self_times(spans)
    totals: Dict[str, List[float]] = defaultdict(lambda: [0.0, 0.0])
    for span in spans:
        ancestor = by_id.get(span.parent) if span.parent is not None else None
        nested_in_same = False
        while ancestor is not None:
            if ancestor.name == span.name:
                nested_in_same = True
                break
            ancestor = by_id.get(ancestor.parent) if ancestor.parent is not None else None
        scale = 1.0 / passes if span.phase == "measure" else 1.0
        entry = totals[span.name]
        if not nested_in_same:
            entry[0] += span.duration * scale
        entry[1] += own[span.span_id] * scale
    return {name: (t, s) for name, (t, s) in totals.items()}


class Patcher:
    """Installs wrappers at the attributes callers resolve, and removes them.

    ``uninstall`` puts back the exact objects found in the owner's
    ``__dict__`` (for classes, the raw descriptor such as a ``classmethod``),
    so after it the program is the unmodified library.
    """

    def __init__(self) -> None:
        self._saved: List[Tuple[object, str, object]] = []

    def wrap(self, owner, name: str, make: Callable[[Callable], Callable]) -> None:
        """Replace ``owner.name`` by ``make(original_callable)``."""
        raw = vars(owner)[name]
        if isinstance(raw, classmethod):
            wrapped = classmethod(make(raw.__func__))
        elif isinstance(raw, staticmethod):
            wrapped = staticmethod(make(raw.__func__))
        else:
            wrapped = make(raw)
        self._saved.append((owner, name, raw))
        setattr(owner, name, wrapped)

    @property
    def patched(self) -> List[Tuple[object, str, object]]:
        """``(owner, attribute, original object)`` of every installed wrapper."""
        return list(self._saved)

    def uninstall(self) -> None:
        while self._saved:
            owner, name, raw = self._saved.pop()
            setattr(owner, name, raw)


def spanning(tracer: Tracer, name: str,
             after: Optional[Callable[[Tracer, tuple, dict, object], None]] = None):
    """Wrapper factory: time every call in a span and run ``after`` on the result."""

    def make(func: Callable) -> Callable:
        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            result = tracer.call(name, func, args, kwargs)
            if after is not None:
                after(tracer, args, kwargs, result)
            return result

        return wrapper

    return make
