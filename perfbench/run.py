"""Run one workload of the whole-system benchmark and print its metrics.

    python3 perfbench/run.py --workload fit-wide --seed 1 --seconds 15 --trace 0

Run from the root of a checkout.  The last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``; the lines before it
give every metric by name with its unit and sample count.  ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` installs the layer wrappers of
``layers.py`` and reports the per-layer metrics instead.  Spans of a traced
run are written to ``.bench_work/traces/`` as Chrome trace-event JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import time
from statistics import fmean as mean
from typing import Dict, List, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("fit-wide", "rank-tall", "fit-ooc", "serve-mixed")
SETUP_GROUPS = 5  # groups of set-ups per batch run; setup_s is the median group mean
SEGMENTS = 3  # serve-mixed load segments, each on its own set-up

# name, unit; the meaning per workload is in BASELINE.md.  The fit and rank
# parts of latency_ms are printed as info lines: as separate gates they would
# repeat latency_ms, and rank-tall's 0.3 s fit moves with the host's speed
# more than any bound a regression check may use.
END_TO_END = (
    ("setup_s", "s"),
    ("latency_ms", "ms"),
    ("peak_rss_mb", "MB"),
)


def _self_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_batch(workload, seed: int, seconds: float, tracer, patcher, workdir: str) -> dict:
    from perfbench import layers
    from perfbench.stats import median

    setup_s: List[float] = []
    try:
        # A warm-up operation on a small fixed dataset pays one-off costs
        # (first process-pool start, page faults, lazy initialisation) so the
        # first measured operation does not.  It is neither set-up nor traced.
        workload.warmup(workdir)
        if tracer is not None:
            layers.install(tracer, patcher)
        # Set-up builds the datasets, each repetition from its own draw
        # (``workloads.data_seed``); repetition 0 runs last and its datasets
        # are the ones operated on.  setup_s is the median over SETUP_GROUPS
        # groups of a group's mean set-up time.  A traced run sets up once.
        group = workload.setup_group if tracer is None else 1
        for rep in reversed(range(SETUP_GROUPS * group if tracer is None else 1)):
            t0 = time.perf_counter()
            items = workload.setup(seed, rep, workdir)
            setup_s.append(time.perf_counter() - t0)
        setup_s = [mean(setup_s[i:i + group]) for i in range(0, len(setup_s), group)]
        if tracer is not None:
            tracer.phase = "measure"
        # Whole passes over the datasets, as many as fit in ``seconds`` (at
        # least one), so every dataset weighs the same in a run.
        ops: List[Tuple[int, object]] = []
        passes = 0
        start = time.perf_counter()
        elapsed = pass_s = 0.0
        while passes == 0 or elapsed + pass_s <= seconds:
            for index, item in enumerate(items):
                ops.append((index, workload.op(index, item, seed, workdir)))
            passes += 1
            pass_s = (time.perf_counter() - start) / passes
            elapsed = time.perf_counter() - start
    finally:
        patcher.uninstall()
    peak_rss = _self_rss_mb()

    problems: List[str] = []
    failed = 0
    for k, (index, op) in enumerate(ops):
        # The full check re-runs an independent reference path, which costs
        # as much as the operation; one operation per run gets it, on the
        # dataset the seed picks in rotation.
        found = workload.check(index, items[index], op, seed, full=k == seed % len(items))
        if found:
            failed += 1
            problems.extend(f"dataset {index}: {p}" for p in found)

    roc_auc = mean([workload.quality(items[index], op) for index, op in ops])
    if roc_auc < workload.auc_floor:
        problems.append(f"mean roc_auc {roc_auc:.4f} below the floor {workload.auc_floor}")

    return {
        "passes": passes,
        "attempted": len(ops),
        "failed": failed,
        "problems": problems,
        "values": {
            "setup_s": (median(setup_s), len(setup_s)),
            "latency_ms": (mean([op.total_s for _, op in ops]) * 1000.0, len(ops)),
            "peak_rss_mb": (peak_rss, 1),
        },
        "info": {
            "fit_s": mean([op.fit_s for _, op in ops]),
            "rank_s": mean([op.rank_s for _, op in ops]),
            "roc_auc": roc_auc,
        },
        "extra": {},
    }


def _tail(values: List[float], q: float) -> Tuple[float, int]:
    """``percentile(values, q)``, or NaN when too few samples lie beyond it."""
    from perfbench.stats import percentile

    try:
        return percentile(values, q)
    except ValueError:
        return float("nan"), len(values)


def _median(values: List[float]) -> float:
    from perfbench.stats import median

    return median(values) if values else float("nan")


def run_serve(workload, seed: int, seconds: float, tracer, patcher, workdir: str,
              trace: bool) -> dict:
    """``SEGMENTS`` load segments, each on its own freshly set-up model."""
    from perfbench import layers
    from perfbench.serve_load import run_load, traffic
    from perfbench.workloads import derive

    if tracer is not None:
        layers.install(tracer, patcher)
    setup_s: List[float] = []
    segments = []
    try:
        for rep in range(SEGMENTS):
            if tracer is not None:
                tracer.phase = "setup"
            child_trace = os.path.join(workdir, f"server-trace-{rep}.json") if trace else None
            t0 = time.perf_counter()
            state = workload.setup(seed, rep, workdir, child_trace)
            setup_s.append(time.perf_counter() - t0)
            try:
                if tracer is not None:
                    tracer.phase = "measure"
                mix = traffic(derive(seed, rep, 3), seconds / SEGMENTS, len(state["pool"]))
                state["results"], state["metrics"] = run_load(state["server"], state["pool"], mix)
                state["peak_rss_mb"] = state["server"].peak_rss_mb()
            finally:
                state["server"].stop()
            state["child_trace"] = child_trace
            segments.append(state)
    finally:
        patcher.uninstall()

    problems: List[str] = []
    point = {"latency_ms": [], "late_ms": [], "sent": 0, "failed": 0}
    bulk = {"latency_ms": [], "sent": 0, "failed": 0}
    aucs = []
    for state in segments:
        for merged, key in ((point, "point"), (bulk, "bulk")):
            stream = state["results"][key]
            for field in merged:
                merged[field] += stream[field]
        mismatched, found, auc = workload.check(
            state, state["results"]["point"]["served"] + state["results"]["bulk"]["served"]
        )
        point["failed"] += mismatched
        problems.extend(found)
        aucs.append(auc)
    attempted = point["sent"] + bulk["sent"]
    failed = point["failed"] + bulk["failed"]
    if failed:
        problems.append(f"{failed} of {attempted} requests failed or were wrong")
    if mean(aucs) < workload.auc_floor:
        problems.append(f"mean roc_auc {mean(aucs):.4f} below the floor {workload.auc_floor}")
    routes = [s["metrics"]["latency_ms_by_route"].get("POST /score", {}) for s in segments]
    # The point p99 has 12 samples beyond it and is set by a few collisions
    # with bulk requests; its spread across seeds on a two-core host (~0.3)
    # is wider than any bound a regression check may use, so it is reported
    # (``load.point_p99_ms``, like the bulk latency) but not gated.  Failed
    # requests have no latency; a run with too few left reports NaN tails.
    p99, n_points = _tail(point["latency_ms"], 99)
    return {
        "passes": 1,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "child_traces": [s["child_trace"] for s in segments if s["child_trace"]],
        "values": {
            "setup_s": (_median(setup_s), len(setup_s)),
            "latency_ms": (_median(point["latency_ms"]), n_points),
            "peak_rss_mb": (max(s["peak_rss_mb"] for s in segments), len(segments)),
        },
        "info": {
            "fit_s": mean([s["fit_s"] for s in segments]),
            "point_p99_ms": p99,
            "point_n": n_points,
            "bulk_p50_ms": _median(bulk["latency_ms"]),
            "bulk_n": len(bulk["latency_ms"]),
            "roc_auc": mean(aucs),
        },
        "extra": {
            "serving.batch_size_mean": mean(
                [s["metrics"]["batch_sizes"]["mean"] or 0.0 for s in segments]),
            "serving.server_p50_ms": mean([r.get("p50") or 0.0 for r in routes]),
            "serving.server_p99_ms": mean([r.get("p99") or 0.0 for r in routes]),
            "load.late_p99_ms": _tail(point["late_ms"], 99)[0],
            "load.sent": float(attempted),
            "load.point_p99_ms": p99,
            "load.bulk_p50_ms": _median(bulk["latency_ms"]),
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"error: no library source at {os.path.join(ROOT, 'src', 'repro')}; "
              "run the benchmark from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    from perfbench.layers import PER_LAYER, layer_metrics
    from perfbench.tracer import Patcher, Tracer
    from perfbench.workloads import BATCH, ServeMixed

    run_id = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work_root = os.path.join(ROOT, ".bench_work")
    workdir = os.path.join(work_root, f"run-{os.getpid()}")
    trace_dir = os.path.join(work_root, "traces")
    os.makedirs(workdir, exist_ok=True)
    tracer = Tracer(run_id) if args.trace else None
    patcher = Patcher()
    try:
        if args.workload == "serve-mixed":
            out = run_serve(ServeMixed(), args.seed, args.seconds, tracer, patcher, workdir,
                            bool(args.trace))
        else:
            out = run_batch(BATCH[args.workload], args.seed, args.seconds, tracer, patcher,
                            workdir)
        payloads = []
        if tracer is not None:
            payloads.append(tracer.payload(out["passes"]))
            for child_trace in out.get("child_traces", ()):
                with open(child_trace, encoding="utf-8") as handle:
                    payloads.append(json.load(handle))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for problem in out["problems"]:
        print(f"check failed: {problem}")
    for key, value in out["info"].items():
        if value == value:  # NaN: not defined on this workload
            print(f"info {key} = {value:.6g}")
    metrics: Dict[str, dict] = {}
    if tracer is None:
        for name, unit in END_TO_END:
            value, count = out["values"][name]
            metrics[name] = {"value": value, "unit": unit}
            print(f"{name} = {value:.6g} {unit} (n={count})")
    else:
        extra = dict(out["extra"], **{"trace.latency_ms": out["values"]["latency_ms"][0]})
        values = layer_metrics(payloads, out["passes"], extra)
        for name, unit, _source, moves in PER_LAYER:
            metrics[name] = {"value": values[name], "unit": unit}
            print(f"{name} = {values[name]:.6g} {unit}  [moves {moves}]")
        os.makedirs(trace_dir, exist_ok=True)
        with open(os.path.join(trace_dir, f"{run_id}.json"), "w", encoding="utf-8") as handle:
            json.dump({"traceEvents": [e for p in payloads for e in p["traceEvents"]],
                       "layers": [p["layers"] for p in payloads],
                       "metrics": values}, handle)
    print(json.dumps({
        "correct": not out["problems"] and out["failed"] == 0,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
