"""Fast perf smoke checks: the fast paths must stay fast.

A CI guard, not a benchmark: small fixtures, best-of-three timing, non-zero
exit when a fast path exceeds its wall-time bound or loses to its
bit-for-bit reference path (or the two disagree on a single bit).  Three
checks, runnable separately or together:

* ``contrast`` — one level of contrast estimation (all 190 pairs of a 20-d
  fixture), gated on absolute wall time.  Its bit-for-bit equality with the
  per-iteration recipe is a tier-1 test (``tests/test_contrast_batch.py``).
* ``scoring`` — the shared-neighborhood scoring engine vs the per-subspace
  path: joint multi-subspace ranking must not regress, independent
  (streaming) scoring must beat the per-object reference by at least 3x,
  and the ``tracemalloc`` peak of one shared rank stays under its bound.
* ``parallel`` — the BENCH_parallel gate: a persistent-pool process backend
  must beat serial execution on the fig05-style 50-d search workload (and
  match it bit for bit): the registered bar on hosts with 4+ cores, a softer
  1.2x on 2-3 cores (2 workers can at best approach 2x before IPC overhead).
  Skipped (exit 0, gates recorded as skipped) on single-core hosts, where no
  process fan-out can win.

Pass/fail thresholds are declared once in the gate registry
(:mod:`repro.reporting.gates`); each target evaluates through
:func:`repro.reporting.evaluate_suite` and can write its payload — with the
evaluated gate rows under ``"gates"`` — to ``--out``, which CI uploads so
the consolidated ``repro-hics report`` job sees the smoke numbers alongside
the full benchmark suites.

Run from the repository root::

    PYTHONPATH=src python benchmarks/perf_smoke.py [contrast|scoring|parallel] [--out PATH]
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
import tracemalloc
from itertools import combinations
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.dataset import generate_synthetic_dataset
from repro.experiments import environment_manifest
from repro.outliers import LOFScorer, SubspaceOutlierRanker
from repro.pipeline import SubspaceOutlierPipeline
from repro.reporting import GateResult, evaluate_suite, get_gate
from repro.subspaces.contrast import ContrastEstimator
from repro.subspaces.hics import HiCS
from repro.types import Subspace


def best_of(repeats: int, fn) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def traced_peak_mb(fn) -> float:
    """Peak of the memory ``tracemalloc`` traces (MiB) during one call of ``fn``.

    NumPy reports its array buffers to ``tracemalloc``; tracing slows Python
    allocations, so the call is never a timed one.
    """
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def _evaluate(
    suite: str,
    payload: Dict[str, object],
    thresholds: Optional[Dict[str, float]] = None,
) -> Tuple[int, List[GateResult]]:
    """Evaluate the target's registered gates; print a FAIL line per miss."""
    gates = evaluate_suite(suite, payload, thresholds=thresholds)
    payload["gates"] = [gate.to_dict() for gate in gates]
    status = 0
    for gate in gates:
        if not gate.passed:
            print(
                f"FAIL: gate {gate.name}: {gate.metric} = {gate.value} "
                f"(direction {gate.direction}, threshold {gate.threshold})",
                file=sys.stderr,
            )
            status = 1
    return status, gates


def contrast_smoke() -> Tuple[int, Dict[str, object]]:
    data = np.random.default_rng(9).uniform(size=(250, 20))
    subspaces = [Subspace(p) for p in combinations(range(20), 2)]

    def level():
        ContrastEstimator(data, n_iterations=20, random_state=1, cache=False).contrast_many(
            subspaces
        )

    wall_time = best_of(3, level)
    print(f"contrast: {len(subspaces)} subspaces in {wall_time:.3f}s")
    payload: Dict[str, object] = {
        "benchmark": "perf-smoke-contrast",
        **environment_manifest(),
        "n_subspaces": len(subspaces),
        "wall_time_sec": round(wall_time, 4),
    }
    status, _ = _evaluate("perf-smoke-contrast", payload)
    return status, payload


def scoring_smoke() -> Tuple[int, Dict[str, object]]:
    dataset = generate_synthetic_dataset(
        n_objects=400,
        n_dims=12,
        n_relevant_subspaces=3,
        subspace_dims=(2, 3),
        random_state=0,
    )
    searcher = HiCS(
        n_iterations=10, candidate_cutoff=40, max_output_subspaces=40, random_state=0
    )
    scored = searcher.search(dataset.data)
    subspaces = [s.subspace for s in scored]

    # Joint multi-subspace ranking: identical scores, no regression.
    timings, scores = {}, {}
    for engine in ("shared", "per-subspace"):
        rank = lambda e=engine: SubspaceOutlierRanker(  # noqa: E731 - tiny timing closure
            LOFScorer(min_pts=10), engine=e
        ).rank(dataset.data, subspaces)
        scores[engine] = rank().scores
        timings[engine] = best_of(3, rank)
    joint_speedup = timings["per-subspace"] / timings["shared"]
    joint_identical = np.array_equal(scores["shared"], scores["per-subspace"])
    joint_timings = dict(timings)
    # What one shared rank allocates at its peak, from a separate, untimed run.
    rank_peak_mb = traced_peak_mb(
        lambda: SubspaceOutlierRanker(LOFScorer(min_pts=10)).rank(dataset.data, subspaces)
    )
    print(
        f"scoring joint: shared {timings['shared']:.3f}s  "
        f"per-subspace {timings['per-subspace']:.3f}s  speedup {joint_speedup:.2f}x  "
        f"shared traced peak {rank_peak_mb:.2f} MB"
    )

    # Independent streaming: identical scores, >= 3x (typically far more).
    batch = np.random.default_rng(1).uniform(size=(5, dataset.n_dims))
    pipes = {}
    for engine in ("shared", "per-subspace"):
        pipe = SubspaceOutlierPipeline(searcher, LOFScorer(min_pts=10), engine=engine)
        pipe.reference_data_ = dataset.data
        pipe.scored_subspaces_ = list(scored)
        pipe.scorer.fit(dataset.data)
        pipes[engine] = pipe
    independent = {
        engine: pipe.score_samples(batch, independent=True)
        for engine, pipe in pipes.items()
    }
    # Best-of-three, like every other gate here: a single timed run can flake
    # on a loaded CI runner and fail the speedup threshold spuriously.
    timings = {
        engine: best_of(3, lambda p=pipe: p.score_samples(batch, independent=True))
        for engine, pipe in pipes.items()
    }
    independent_speedup = timings["per-subspace"] / timings["shared"]
    independent_identical = np.array_equal(
        independent["shared"], independent["per-subspace"]
    )
    print(
        f"scoring independent: shared {timings['shared']:.3f}s  "
        f"per-subspace {timings['per-subspace']:.3f}s  speedup {independent_speedup:.2f}x"
    )
    payload: Dict[str, object] = {
        "benchmark": "perf-smoke-scoring",
        **environment_manifest(),
        "joint_wall_time_shared_sec": round(joint_timings["shared"], 4),
        "joint_wall_time_per_subspace_sec": round(joint_timings["per-subspace"], 4),
        "joint_speedup": round(joint_speedup, 4),
        "joint_identical": joint_identical,
        "rank_traced_peak_mb": round(rank_peak_mb, 3),
        "independent_wall_time_shared_sec": round(timings["shared"], 4),
        "independent_wall_time_per_subspace_sec": round(timings["per-subspace"], 4),
        "independent_speedup": round(independent_speedup, 4),
        "independent_identical": independent_identical,
        "engines_identical": joint_identical and independent_identical,
    }
    status, _ = _evaluate("perf-smoke-scoring", payload)
    return status, payload


def parallel_smoke(min_speedup: Optional[float] = None) -> Tuple[int, Dict[str, object]]:
    """BENCH_parallel gate: persistent process pool vs serial on 50-d fig05."""
    cores = os.cpu_count() or 1
    if cores < 2:
        print(
            f"parallel: SKIP (host has {cores} core; a process fan-out cannot "
            f"beat serial without parallel hardware)"
        )
        payload: Dict[str, object] = {
            "benchmark": "perf-smoke-parallel",
            **environment_manifest(),
            "cores": cores,
            "skipped_reason": "single-core host",
        }
        status, _ = _evaluate("perf-smoke-parallel", payload)
        return status, payload
    if min_speedup is None:
        # With only 2-3 cores the theoretical ceiling for 2 workers is ~2x
        # before IPC/chunking overhead, so the registered 4+-core bar would
        # flake; the relaxation is recorded in the evaluated gate row.
        registered = get_gate("smoke_parallel_speedup").threshold
        min_speedup = registered if cores >= 4 else min(registered, 1.2)
    dataset = generate_synthetic_dataset(
        n_objects=300,
        n_dims=50,
        n_relevant_subspaces=5,
        subspace_dims=(2, 3),
        outliers_per_subspace=5,
        random_state=50,
    )
    params = dict(
        n_iterations=25,
        candidate_cutoff=100,
        max_output_subspaces=50,
        max_dimensionality=3,
        random_state=0,
        cache=False,
    )
    n_jobs = min(4, cores)

    def search(backend):
        searcher = HiCS(backend=backend, **params)
        scored = searcher.search(dataset.data)
        return [(s.subspace.attributes, s.score) for s in scored]

    results = {}
    timings = {}
    for label, backend in [("serial", "serial"), ("parallel", f"process(n_jobs={n_jobs})")]:
        results[label] = search(backend)  # warm-up + correctness run
        timings[label] = best_of(2, lambda b=backend: search(b))
    speedup = timings["serial"] / timings["parallel"]
    print(
        f"parallel: serial {timings['serial']:.3f}s  persistent pool "
        f"(n_jobs={n_jobs}) {timings['parallel']:.3f}s  speedup {speedup:.2f}x"
    )
    payload = {
        "benchmark": "perf-smoke-parallel",
        **environment_manifest(),
        "cores": cores,
        "n_jobs": n_jobs,
        "wall_time_serial_sec": round(timings["serial"], 4),
        "wall_time_parallel_sec": round(timings["parallel"], 4),
        "speedup": round(speedup, 4),
        "results_identical": results["serial"] == results["parallel"],
    }
    status, _ = _evaluate(
        "perf-smoke-parallel",
        payload,
        thresholds={"smoke_parallel_speedup": min_speedup},
    )
    return status, payload


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "target",
        nargs="?",
        default="all",
        choices=["contrast", "scoring", "parallel", "all"],
        help="which smoke target to run (default: all)",
    )
    parser.add_argument(
        "--out",
        default=None,
        help="write the target's JSON payload (with evaluated gate rows) "
        "here; requires a single target",
    )
    args = parser.parse_args(argv)
    if args.out and args.target == "all":
        parser.error("--out needs a single target (contrast, scoring or parallel)")

    runners = {
        "contrast": contrast_smoke,
        "scoring": scoring_smoke,
        "parallel": parallel_smoke,
    }
    targets = list(runners) if args.target == "all" else [args.target]
    status = 0
    payload: Dict[str, object] = {}
    for target in targets:
        target_status, payload = runners[target]()
        status |= target_status
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2)
        print(f"wrote {args.out}")
    return status


if __name__ == "__main__":
    sys.exit(main())
