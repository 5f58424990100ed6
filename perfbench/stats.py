"""Percentiles with sample counts, and the seeded open-loop schedule."""

from __future__ import annotations

import math
import statistics
from typing import Sequence, Tuple

import numpy as np


def percentile(values: Sequence[float], q: float) -> Tuple[float, int]:
    """The ``q``-th percentile of ``values`` and the sample count behind it.

    Refuses (``ValueError``) a percentile with fewer than ten samples beyond
    it, because such a tail is set by one or two outliers.  Uses the
    nearest-rank definition, so the result is always an observed value.
    """
    n = len(values)
    if not 0 <= q <= 100:
        raise ValueError(f"percentile must lie in [0, 100], got {q}")
    beyond = n - math.ceil(q / 100.0 * n)
    if n == 0 or beyond < 10:
        raise ValueError(
            f"p{q:g} of {n} samples has {max(beyond, 0)} beyond it; at least 10 are needed"
        )
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * n))
    return float(ordered[rank - 1]), n


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def open_loop_schedule(seed: int, rate: float, seconds: float) -> np.ndarray:
    """Due times of a Poisson arrival process with exactly ``rate * seconds`` arrivals.

    A Poisson process conditioned on its arrival count has its arrival times
    distributed as sorted uniforms, so every run of a workload sends the same
    number of requests (and the p99 always has the same sample count) while
    the gaps stay exponential-like.  A pure function of ``seed``.
    """
    count = int(round(rate * seconds))
    rng = np.random.default_rng([seed, 0x5EED])
    return np.sort(rng.uniform(0.0, seconds, size=count))
