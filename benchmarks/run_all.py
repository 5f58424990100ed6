"""Benchmark regression harness: contrast search and scoring engine.

Two benchmark families, tracked across changes:

* **Contrast** (``BENCH_contrast.json``): the fig-4/fig-5-style synthetic
  search suites, timed on the contrast estimator alone and gated on the
  absolute wall time of the 50-d suite (its bit-for-bit equality with the
  per-iteration recipe is a tier-1 test, ``tests/test_contrast_batch.py``).
  A **tall** suite of the out-of-core workload's shape (150,000 rows, 6
  attributes, M=50) scores every subspace of every size serially in memory,
  where each slice is a row chunk of its own, and is gated on its wall time.
  The payload also carries a **parallel** target:
  the 50-d suite searched through a *persistent* process pool vs the legacy
  per-level-pool strategy (fresh pool per apriori level) vs serial, under
  both ``fork`` and ``spawn`` — amortised pool startup must not lose to
  per-level pools, and all strategies must agree bit for bit.
* **Scoring** (``BENCH_scoring.json``): a fig-10/fig-11-style multi-subspace
  real-world workload — the best 100 HiCS subspaces of a correlated dataset,
  scored with LOF — comparing the shared-neighborhood scoring engine against
  the per-subspace reference path, for one-shot batch ranking, joint
  streaming scoring and independent streaming scoring (the serving path,
  where the engine's asymmetric query mode replaces one full scoring pass
  per object).

Run from the repository root::

    PYTHONPATH=src python benchmarks/run_all.py [--only contrast|scoring]

Exit code is non-zero when any engine pair disagrees by a single bit, when
the 50-d contrast search exceeds its wall-time gate, or when the
shared scoring engine misses its 3x gate on the independent streaming
workload (joint modes have a no-regression floor instead: an exact shared
top-k pass can win at most ~2-3x there because the partition cost is common
to both engines).

Workload datasets are declared as :class:`~repro.experiments.spec.DatasetSpec`
grids and built through the experiment subsystem's dataset layer, and every
payload is stamped with :func:`~repro.experiments.runner.environment_manifest`
— the same provenance block the figure artifacts carry.  (The paper's figure
suite itself runs through ``repro-hics bench``; this harness only guards the
engine fast paths.)

Pass/fail thresholds are **not** defined here: every gate is declared in the
gate registry (:mod:`repro.reporting.gates`), this harness evaluates through
:func:`repro.reporting.evaluate_suite` and embeds the results in the payload
under ``"gates"``, where ``repro-hics report`` picks them up for the
consolidated CI trend report.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import sys
import time
import tracemalloc
from functools import partial
from itertools import combinations
from typing import Dict, List

import numpy as np

from repro.evaluation.experiments import evaluate_method_on_dataset
from repro.experiments import DatasetSpec, build_dataset, environment_manifest
from repro.outliers import LOFScorer, SubspaceOutlierRanker
from repro.parallel import ProcessBackend, WorkerContext
from repro.pipeline import PipelineConfig, SubspaceOutlierPipeline
from repro.reporting import evaluate_suite, get_gate
from repro.subspaces.contrast import ContrastEstimator
from repro.subspaces.hics import HiCS
from repro.types import Subspace


def report_gate_failures(gates) -> int:
    """Print one FAIL line per failing gate; returns the exit status."""
    status = 0
    for gate in gates:
        if not gate.passed:
            print(
                f"FAIL: gate {gate.name}: {gate.metric} = {gate.value} "
                f"(direction {gate.direction}, threshold {gate.threshold})",
                file=sys.stderr,
            )
            status = 1
    return status


def _best_of(repeats: int, fn):
    best, value = float("inf"), None
    for _ in range(repeats):
        start = time.perf_counter()
        value = fn()
        best = min(best, time.perf_counter() - start)
    return best, value


def _traced_peak_mb(fn) -> float:
    """Peak of the memory ``tracemalloc`` traces (MiB) during one call of ``fn``.

    NumPy reports its array buffers to ``tracemalloc``, so this is the peak
    of what the call allocates on top of what is already alive.  Tracing
    slows Python allocations, so the call is never a timed one.
    """
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def _suite_dataset(name: str, n_objects: int, n_dims: int, n_relevant: int) -> DatasetSpec:
    return DatasetSpec(
        label=name,
        kind="synthetic",
        params={
            "n_objects": n_objects,
            "n_dims": n_dims,
            "n_relevant_subspaces": n_relevant,
            "subspace_dims": [2, 3],
            "outliers_per_subspace": 5,
            "random_state": n_dims,
        },
    )


# ----------------------------------------------------------------- contrast

#: Fig-4/fig-5 style scaled workloads; the 50-d suite is the
#: acceptance-criterion workload.
SUITES = (
    _suite_dataset("fig4_20d", 400, 20, 4),
    _suite_dataset("fig5_30d", 300, 30, 3),
    _suite_dataset("fig5_50d", 300, 50, 5),
)

SEARCH_PARAMS = dict(
    n_iterations=25,
    candidate_cutoff=100,
    max_output_subspaces=50,
    max_dimensionality=3,
    random_state=0,
)

#: The out-of-core workload's shape, searched serially in memory: one slice
#: mask row (150,000 cells) is larger than the row-chunk budget.
TALL_SUITE = _suite_dataset("tall_150k", 150_000, 6, 2)
TALL_ITERATIONS = 50

#: Runs per strategy of the parallel target, each strategy keeping its best.
PARALLEL_REPEATS = 5


def run_suite(spec: DatasetSpec) -> Dict[str, object]:
    dataset = build_dataset(spec)

    def search() -> HiCS:
        searcher = HiCS(cache=False, **SEARCH_PARAMS)
        searcher.search(dataset.data)
        return searcher

    wall_time, searcher = _best_of(3, search)  # best-of-three absorbs wall-clock noise
    config = PipelineConfig(
        max_subspaces=50, hics_iterations=25, hics_cutoff=100, random_state=0
    )
    auc = evaluate_method_on_dataset("HiCS", dataset, config).auc
    return {
        "suite": spec.label,
        "n_objects": dataset.n_objects,
        "n_dims": dataset.n_dims,
        "n_evaluated_subspaces": len(searcher.evaluated_subspaces_),
        "wall_time_sec": round(wall_time, 4),
        "auc": round(auc, 4),
    }


def run_tall_suite() -> Dict[str, object]:
    """Wall time of every subspace of each size, best of three per size.

    One contrast level per subspace size over all of the dataset's
    attributes (57 subspaces at d=6), on one estimator whose index is built
    before timing and whose cache is off, so every repetition evaluates.
    """
    dataset = build_dataset(TALL_SUITE)
    estimator = ContrastEstimator(
        dataset.data, n_iterations=TALL_ITERATIONS, random_state=0, cache=False
    )
    sizes = []
    for size in range(2, dataset.n_dims + 1):
        subspaces = [Subspace(c) for c in combinations(range(dataset.n_dims), size)]
        wall_time, _ = _best_of(3, partial(estimator.contrast_many, subspaces))
        sizes.append({
            "size": size,
            "n_subspaces": len(subspaces),
            "wall_time_sec": round(wall_time, 4),
        })
    return {
        "suite": TALL_SUITE.label,
        "n_objects": dataset.n_objects,
        "n_dims": dataset.n_dims,
        "n_iterations": TALL_ITERATIONS,
        "sizes": sizes,
        "wall_time_sec": round(sum(entry["wall_time_sec"] for entry in sizes), 4),
    }


class _PerLevelPoolBackend(ProcessBackend):
    """The legacy execution strategy: a fresh worker pool per apriori level.

    Before the unified backend subsystem, ``_contrast_many_parallel`` built a
    new ``ProcessPoolExecutor`` for every candidate level and shipped the
    data to every worker again.  This baseline reproduces both costs: the
    pool is closed after every ``map`` call (fresh startup per level) and the
    worker context is re-published per call (fresh shared-memory segments +
    worker state rebuild, standing in for the per-level data re-pickling of
    the old code).
    """

    kind = "per-level-process"

    def map(self, func, items, *, context=None, **kwargs):
        fresh = None
        if context is not None:
            fresh = WorkerContext(
                setup=context.setup,
                payload=context.payload,
                arrays=dict(context.arrays),
            )
        try:
            return super().map(func, items, context=fresh, **kwargs)
        finally:
            if fresh is not None:
                fresh.close()
            self.close()


def run_parallel_target(n_jobs: int = 2) -> Dict[str, object]:
    """The persistent-pool target on the 50-d acceptance workload.

    Measures the full HiCS search under (a) serial execution, (b) a
    persistent process pool and (c) the legacy per-level-pool strategy, for
    every available start method.  All strategies must return bit-identical
    subspaces; the persistent pool must not lose to per-level pools (the
    startup cost it amortises only grows with worker count and level count).
    Each search takes about 0.3 s, so a burst on a shared host can swing one
    timing by half: the two pool strategies run interleaved, in alternating
    order, and every strategy, serial included, keeps its best of
    :data:`PARALLEL_REPEATS`.
    """
    dataset = build_dataset(SUITES[2])  # fig5_50d

    def search(backend, into: Dict[str, object]) -> None:
        searcher = HiCS(backend=backend, cache=False, **SEARCH_PARAMS)
        start = time.perf_counter()
        scored = searcher.search(dataset.data)
        elapsed = time.perf_counter() - start
        into["wall_time_sec"] = min(into.get("wall_time_sec", float("inf")), elapsed)
        into["result"] = [(s.subspace.attributes, s.score) for s in scored]

    serial: Dict[str, object] = {}
    for _ in range(PARALLEL_REPEATS):
        search("serial", serial)
    strategies = []
    available = multiprocessing.get_all_start_methods()
    for start_method in ("fork", "spawn"):
        if start_method not in available:
            continue
        persistent_backend = ProcessBackend(n_jobs=n_jobs, start_method=start_method)
        per_level_backend = _PerLevelPoolBackend(n_jobs=n_jobs, start_method=start_method)
        persistent: Dict[str, object] = {}
        per_level: Dict[str, object] = {}
        runs = [(persistent_backend, persistent), (per_level_backend, per_level)]
        try:
            for repeat in range(PARALLEL_REPEATS):
                for backend, into in runs if repeat % 2 == 0 else runs[::-1]:
                    search(backend, into)
        finally:
            persistent_backend.close()
            per_level_backend.close()
        identical = (
            persistent["result"] == serial["result"]
            and per_level["result"] == serial["result"]
        )
        entry = {
            "start_method": start_method,
            "wall_time_persistent_sec": round(persistent["wall_time_sec"], 4),
            "wall_time_per_level_sec": round(per_level["wall_time_sec"], 4),
            "persistent_vs_per_level": round(
                per_level["wall_time_sec"] / persistent["wall_time_sec"], 2
            ),
            "persistent_vs_serial": round(
                serial["wall_time_sec"] / persistent["wall_time_sec"], 2
            ),
            "results_identical": identical,
        }
        strategies.append(entry)
        print(
            f"  parallel[{start_method}]: persistent "
            f"{entry['wall_time_persistent_sec']}s  per-level "
            f"{entry['wall_time_per_level_sec']}s  "
            f"amortisation {entry['persistent_vs_per_level']}x  "
            f"vs serial {entry['persistent_vs_serial']}x  identical={identical}"
        )
    return {
        "workload": SUITES[2].label,
        "n_jobs": n_jobs,
        "cores": os.cpu_count(),
        "wall_time_serial_sec": round(serial["wall_time_sec"], 4),
        "strategies": strategies,
    }


def run_contrast_benchmark(out: str, max_seconds: float) -> int:
    suites = []
    for spec in SUITES:
        print(
            f"running {spec.label} (N={spec.params['n_objects']}, "
            f"D={spec.params['n_dims']}) ...",
            flush=True,
        )
        suite = run_suite(spec)
        print(f"  search {suite['wall_time_sec']}s  auc {suite['auc']}")
        suites.append(suite)

    print(
        f"running {TALL_SUITE.label} (N={TALL_SUITE.params['n_objects']}, "
        f"D={TALL_SUITE.params['n_dims']}, M={TALL_ITERATIONS}) ...",
        flush=True,
    )
    tall = run_tall_suite()
    for entry in tall["sizes"]:
        print(
            f"  |S|={entry['size']}: {entry['n_subspaces']} subspaces "
            f"{entry['wall_time_sec']}s"
        )
    print(f"  total {tall['wall_time_sec']}s")

    print("running parallel target (persistent pool vs per-level pools) ...", flush=True)
    parallel = run_parallel_target()
    amortisations = {
        s["start_method"]: s["persistent_vs_per_level"] for s in parallel["strategies"]
    }
    parallel_identical = all(s["results_identical"] for s in parallel["strategies"])
    target = next(s for s in suites if s["suite"] == "fig5_50d")
    payload = {
        "benchmark": "contrast-engine",
        "search_params": SEARCH_PARAMS,
        **environment_manifest(),
        "suites": suites,
        "tall": tall,
        "parallel": parallel,
        "acceptance": {
            "max_wall_time_50d_sec": max_seconds,
            "measured_wall_time_50d_sec": target["wall_time_sec"],
            "required_amortisation_spawn": get_gate("contrast_amortisation_spawn").threshold,
            "measured_amortisation_spawn": amortisations.get("spawn"),
            "required_amortisation_fork": get_gate("contrast_amortisation_fork").threshold,
            "measured_amortisation_fork": amortisations.get("fork"),
            "parallel_results_identical": parallel_identical,
        },
    }
    # Thresholds and pass/fail logic live in the gate registry
    # (repro.reporting.gates); this harness only supplies the measurements
    # and an optional CLI override of the 50-d wall-time bar.
    gates = evaluate_suite(
        "contrast", payload, thresholds={"contrast_search_50d_sec": max_seconds}
    )
    payload["gates"] = [gate.to_dict() for gate in gates]
    payload["acceptance"]["meets_wall_time"] = next(
        g.passed for g in gates if g.name == "contrast_search_50d_sec"
    )
    payload["acceptance"]["persistent_beats_per_level"] = all(
        g.passed
        for g in gates
        if g.name in ("contrast_amortisation_spawn", "contrast_amortisation_fork")
    ) and bool(amortisations)
    with open(out, "w") as handle:
        json.dump(payload, handle, indent=2)
    print(f"wrote {out}")
    status = report_gate_failures(gates)
    if not amortisations:
        print("FAIL: no process start method available to benchmark", file=sys.stderr)
        status = 1
    return status


# ------------------------------------------------------------------ scoring

#: The fig-10/fig-11-style scoring workload: a correlated mid-size dataset,
#: the best 100 HiCS subspaces (heavily overlapping dimensions), LOF MinPts 10.
SCORING_WORKLOAD = dict(
    n_objects=800,
    n_dims=20,
    n_subspaces=100,
    min_pts=10,
    joint_stream_batch=50,
    independent_stream_batch=10,
)

SCORING_DATASET = DatasetSpec(
    label="scoring_800x20",
    kind="synthetic",
    params={
        "n_objects": SCORING_WORKLOAD["n_objects"],
        "n_dims": SCORING_WORKLOAD["n_dims"],
        "n_relevant_subspaces": 4,
        "subspace_dims": [2, 4],
        "outliers_per_subspace": 8,
        "random_state": 0,
    },
)


def run_scoring_benchmark(out: str, min_speedup: float) -> int:
    w = SCORING_WORKLOAD
    dataset = build_dataset(SCORING_DATASET)
    searcher = HiCS(
        n_iterations=20,
        candidate_cutoff=100,
        max_output_subspaces=w["n_subspaces"],
        random_state=0,
    )
    scored_subspaces = searcher.search(dataset.data)
    subspaces = [s.subspace for s in scored_subspaces]
    print(
        f"scoring workload: N={w['n_objects']} D={w['n_dims']} "
        f"subspaces={len(subspaces)} "
        f"(mean |S| {np.mean([len(s) for s in subspaces]):.2f})",
        flush=True,
    )
    rng = np.random.default_rng(1)
    joint_batch = rng.uniform(0.0, 1.0, size=(w["joint_stream_batch"], w["n_dims"]))
    independent_batch = joint_batch[: w["independent_stream_batch"]]

    def pipeline(engine: str) -> SubspaceOutlierPipeline:
        pipe = SubspaceOutlierPipeline(
            searcher, LOFScorer(min_pts=w["min_pts"]), engine=engine
        )
        # Install the already-searched subspaces directly; the benchmark
        # times the scoring phase only.
        pipe.reference_data_ = dataset.data
        pipe.scored_subspaces_ = list(scored_subspaces)
        pipe.scorer.fit(dataset.data)
        return pipe

    suites = []

    def record(suite, shared_time, reference_time, identical, gate, required):
        entry = {
            "suite": suite,
            "wall_time_shared_sec": round(shared_time, 4),
            "wall_time_per_subspace_sec": round(reference_time, 4),
            "speedup": round(reference_time / shared_time, 2),
            "engines_identical": bool(identical),
            "gate": gate,
            "required_speedup": required,
        }
        suites.append(entry)
        print(
            f"  {suite}: shared {entry['wall_time_shared_sec']}s  "
            f"per-subspace {entry['wall_time_per_subspace_sec']}s  "
            f"speedup {entry['speedup']}x  identical={identical}"
        )

    # One-shot batch ranking (fig-10 protocol: rank the dataset itself).
    shared_time, shared_scores = _best_of(
        3,
        lambda: SubspaceOutlierRanker(
            LOFScorer(min_pts=w["min_pts"]), engine="shared"
        ).rank(dataset.data, subspaces).scores,
    )
    reference_time, reference_scores = _best_of(
        3,
        lambda: SubspaceOutlierRanker(
            LOFScorer(min_pts=w["min_pts"]), engine="per-subspace"
        ).rank(dataset.data, subspaces).scores,
    )
    record(
        "rank_multisubspace",
        shared_time,
        reference_time,
        np.array_equal(shared_scores, reference_scores),
        "no_regression",
        get_gate("scoring_rank_speedup").threshold,
    )
    # What one shared rank allocates at its peak, from a separate, untimed run.
    rank_peak_mb = _traced_peak_mb(
        lambda: SubspaceOutlierRanker(LOFScorer(min_pts=w["min_pts"])).rank(
            dataset.data, subspaces
        )
    )
    print(f"  rank_multisubspace: traced peak {rank_peak_mb:.2f} MB")

    # Joint streaming: score incoming batches against the fitted subspaces.
    shared_pipe, reference_pipe = pipeline("shared"), pipeline("per-subspace")
    shared_time, shared_scores = _best_of(
        3, lambda: shared_pipe.score_samples(joint_batch)
    )
    reference_time, reference_scores = _best_of(
        3, lambda: reference_pipe.score_samples(joint_batch)
    )
    record(
        "stream_joint",
        shared_time,
        reference_time,
        np.array_equal(shared_scores, reference_scores),
        "no_regression",
        get_gate("scoring_joint_speedup").threshold,
    )

    # Independent streaming (the serving path this engine exists for): every
    # object is scored on its own against the reference population.  The
    # shared engine answers from cached reference blocks + neighbour lists
    # via its asymmetric query mode; the reference path re-runs one full
    # scoring pass per object per subspace.  Timed warm (reference engine
    # built), as in a long-running scoring service.
    shared_pipe.score_samples(independent_batch[:1], independent=True)
    shared_time, shared_scores = _best_of(
        2, lambda: shared_pipe.score_samples(independent_batch, independent=True)
    )
    reference_time, reference_scores = _best_of(
        1, lambda: reference_pipe.score_samples(independent_batch, independent=True)
    )
    record(
        "stream_independent",
        shared_time,
        reference_time,
        np.array_equal(shared_scores, reference_scores),
        "min_speedup",
        min_speedup,
    )

    payload = {
        "benchmark": "scoring-engine",
        "workload": {**SCORING_WORKLOAD, "n_subspaces_found": len(subspaces)},
        **environment_manifest(),
        "suites": suites,
        "rank_traced_peak_mb": round(rank_peak_mb, 2),
        "acceptance": {
            "required_speedup_independent": min_speedup,
            "measured_speedup_independent": next(
                s["speedup"] for s in suites if s["suite"] == "stream_independent"
            ),
            "all_engines_identical": all(s["engines_identical"] for s in suites),
        },
    }
    # Pass/fail flows through the gate registry; only the independent-stream
    # bar is CLI-overridable.
    gates = evaluate_suite(
        "scoring", payload, thresholds={"scoring_independent_speedup": min_speedup}
    )
    payload["gates"] = [gate.to_dict() for gate in gates]
    payload["acceptance"]["meets_speedup"] = next(
        g.passed for g in gates if g.name == "scoring_independent_speedup"
    )
    payload["acceptance"]["no_joint_regression"] = all(
        g.passed
        for g in gates
        if g.name in ("scoring_rank_speedup", "scoring_joint_speedup")
    )
    with open(out, "w") as handle:
        json.dump(payload, handle, indent=2)
    print(f"wrote {out}")
    return report_gate_failures(gates)


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out-contrast", default="BENCH_contrast.json", help="contrast output path"
    )
    parser.add_argument(
        "--out-scoring", default="BENCH_scoring.json", help="scoring output path"
    )
    parser.add_argument(
        "--only",
        choices=["contrast", "scoring"],
        default=None,
        help="run a single benchmark family",
    )
    parser.add_argument(
        "--max-contrast-seconds",
        type=float,
        default=get_gate("contrast_search_50d_sec").threshold,
        help="wall-time bound of the 50-d contrast search suite "
        "(default: the registered gate threshold)",
    )
    parser.add_argument(
        "--min-scoring-speedup",
        type=float,
        default=get_gate("scoring_independent_speedup").threshold,
        help="required shared-engine speedup on the independent streaming "
        "suite (default: the registered gate threshold)",
    )
    args = parser.parse_args(argv)

    status = 0
    if args.only in (None, "contrast"):
        status |= run_contrast_benchmark(args.out_contrast, args.max_contrast_seconds)
    if args.only in (None, "scoring"):
        status |= run_scoring_benchmark(args.out_scoring, args.min_scoring_speedup)
    return status


if __name__ == "__main__":
    sys.exit(main())
