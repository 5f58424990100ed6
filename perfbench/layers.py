"""The per-layer metrics: which public callable each one wraps, and what it moves.

Wrappers are installed at the attribute the caller resolves.  A function the
caller imported by name is patched in the *caller's* module (for example
``repro.subspaces.contrast.student_t_two_tailed_pvalue_batch``, not
``repro.stats.tdist``); a method is patched on the class that defines it.

``PER_LAYER`` is the single list of per-layer metrics: name, unit, how the
value is derived from the trace, and the end-to-end metric (and workload) it
should move.  ``BENCHMARK.json`` lists the same names.
"""

from __future__ import annotations

import time
from typing import Dict, List, Tuple

from .stats import percentile
from .tracer import Patcher, Tracer, spanning

# name, unit, source, moves.  Sources: ("span", name) total time,
# ("self", name) self time, ("count", name) counter, ("max", name),
# ("p99", samples), ("ratio", num, den), ("extra", key) filled by the workload.
PER_LAYER: List[Tuple[str, str, tuple, str]] = [
    ("dataset.spill_s", "s", ("span", "dataset.spill"), "setup_s on fit-ooc"),
    ("dataset.fingerprint_s", "s", ("span", "dataset.fingerprint"), "setup_s on fit-ooc"),
    ("index.build_s", "s", ("span", "index.build"), "latency_ms on fit-ooc"),
    ("index.slice_s", "s", ("span", "index.slice"), "latency_ms on fit-ooc and fit-wide"),
    ("index.slice_calls", "count", ("count", "index.slice_calls"),
     "latency_ms on fit-ooc and fit-wide"),
    ("index.mask_cells", "count", ("count", "index.mask_cells"),
     "latency_ms on fit-ooc and fit-wide"),
    ("index.redraw_rounds", "count", ("count", "index.redraw_rounds"), "guards roc_auc"),
    ("index.degenerate_frac", "ratio", ("ratio", "index.degenerate", "index.slices"),
     "guards roc_auc"),
    ("stats.moments_s", "s", ("span", "stats.moments"), "latency_ms on fit-wide"),
    ("stats.welch_s", "s", ("span", "stats.welch"), "latency_ms on fit-wide"),
    ("stats.pvalue_s", "s", ("span", "stats.pvalue"), "latency_ms on fit-wide"),
    ("stats.pvalue_elems", "count", ("count", "stats.pvalue_elems"), "latency_ms on fit-wide"),
    ("subspaces.contrast_s", "s", ("span", "subspaces.contrast"), "latency_ms on fit-wide"),
    ("subspaces.contrast_self_s", "s", ("self", "subspaces.contrast"), "latency_ms on fit-wide"),
    ("subspaces.candidates", "count", ("count", "subspaces.candidates"), "latency_ms on fit-wide"),
    ("subspaces.levels", "count", ("count", "subspaces.levels"), "latency_ms on fit-wide"),
    ("subspaces.apriori_s", "s", ("span", "subspaces.apriori"), "latency_ms on fit-wide"),
    ("subspaces.prune_s", "s", ("span", "subspaces.prune"), "latency_ms on fit-wide"),
    ("neighbors.knn_s", "s", ("span", "neighbors.knn"),
     "latency_ms on rank-tall and serve-mixed"),
    ("neighbors.knn_self_s", "s", ("self", "neighbors.knn"),
     "latency_ms on rank-tall and serve-mixed"),
    ("neighbors.knn_calls", "count", ("count", "neighbors.knn_calls"), "latency_ms on rank-tall"),
    ("neighbors.topk_s", "s", ("span", "neighbors.topk"),
     "latency_ms on rank-tall and serve-mixed"),
    ("neighbors.query_s", "s", ("span", "neighbors.query"), "latency_ms on serve-mixed"),
    ("neighbors.distance_cells", "count", ("count", "neighbors.distance_cells"),
     "latency_ms on rank-tall and serve-mixed"),
    ("neighbors.cache_mb", "MB", ("max", "neighbors.cache_mb"), "peak_rss_mb"),
    ("outliers.score_s", "s", ("span", "outliers.score"), "latency_ms on rank-tall"),
    ("outliers.density_self_s", "s", ("self", "outliers.score"), "latency_ms on rank-tall"),
    ("outliers.independent_s", "s", ("span", "outliers.independent"),
     "latency_ms on serve-mixed"),
    ("outliers.independent_self_s", "s", ("self", "outliers.independent"),
     "latency_ms on serve-mixed"),
    ("outliers.aggregate_s", "s", ("span", "outliers.aggregate"),
     "latency_ms on serve-mixed"),
    ("pipeline.fit_s", "s", ("span", "pipeline.fit"),
     "latency_ms on the batch workloads, setup_s on serve-mixed"),
    ("pipeline.rank_s", "s", ("span", "pipeline.rank"), "latency_ms on fit-wide and rank-tall"),
    ("pipeline.save_s", "s", ("span", "pipeline.save"), "setup_s on serve-mixed"),
    ("pipeline.load_s", "s", ("span", "pipeline.load"), "setup_s on serve-mixed"),
    ("parallel.map_s", "s", ("span", "parallel.map"), "latency_ms on fit-ooc"),
    ("parallel.map_calls", "count", ("count", "parallel.map_calls"), "latency_ms on fit-ooc"),
    ("parallel.map_items", "count", ("count", "parallel.map_items"), "latency_ms on fit-ooc"),
    ("parallel.writer_wait_p99_ms", "ms", ("p99", "parallel.writer_wait_ms"),
     "load.point_p99_ms on serve-mixed"),
    ("serving.score_s", "s", ("span", "serving.score"), "latency_ms on serve-mixed"),
    ("serving.score_calls", "count", ("count", "serving.score_calls"),
     "latency_ms on serve-mixed"),
    ("serving.batch_size_mean", "count", ("extra", "serving.batch_size_mean"),
     "latency_ms on serve-mixed"),
    ("serving.server_p50_ms", "ms", ("extra", "serving.server_p50_ms"),
     "latency_ms on serve-mixed"),
    ("serving.server_p99_ms", "ms", ("extra", "serving.server_p99_ms"),
     "load.point_p99_ms on serve-mixed"),
    ("load.late_p99_ms", "ms", ("extra", "load.late_p99_ms"), "validates serve-mixed"),
    ("load.sent", "count", ("extra", "load.sent"), "validates serve-mixed"),
    ("load.point_p99_ms", "ms", ("extra", "load.point_p99_ms"),
     "the point tail on serve-mixed (not gated)"),
    ("load.bulk_p50_ms", "ms", ("extra", "load.bulk_p50_ms"),
     "the bulk stream on serve-mixed (not gated)"),
    ("trace.latency_ms", "ms", ("extra", "trace.latency_ms"),
     "latency_ms, traced: the difference is the tracing overhead"),
]


def install(tracer: Tracer, patcher: Patcher) -> None:
    """Install every layer wrapper; ``patcher.uninstall()`` removes them all."""
    import repro.outliers.lof as lof_mod
    import repro.outliers.ranking as ranking_mod
    import repro.pipeline.pipeline as pipeline_mod
    import repro.subspaces.contrast as contrast_mod
    import repro.subspaces.hics as hics_mod
    from repro.dataset.dataset import Dataset
    from repro.index.slicing import SliceSampler
    from repro.index.sorted_index import SortedDatabaseIndex
    from repro.neighbors import engine as engine_mod
    from repro.outliers.lof import LOFScorer
    from repro.outliers.ranking import SubspaceOutlierRanker
    from repro.parallel.backends import (
        ProcessBackend,
        SerialBackend,
        SingleWriterExecutor,
        ThreadBackend,
    )
    from repro.pipeline.pipeline import SubspaceOutlierPipeline
    from repro.serving.registry import ModelVersion
    from repro.subspaces.contrast import ContrastEstimator

    def wrap(owner, attr, name, after=None):
        patcher.wrap(owner, attr, spanning(tracer, name, after))

    def after_slice(t, args, kwargs, batch):
        t.count("index.slice_calls")
        t.count("index.mask_cells", batch.selected.size)
        t.count("index.redraw_rounds", batch.n_redraw_rounds)
        t.count("index.slices", batch.n_slices)
        t.count("index.degenerate", batch.n_degenerate)

    def after_contrast(t, args, kwargs, result):
        t.count("subspaces.levels")
        t.count("subspaces.candidates", len(result))

    def after_topk(t, args, kwargs, result):
        t.count("neighbors.distance_cells", args[0].size)

    def after_knn(t, args, kwargs, result):
        t.count("neighbors.knn_calls")
        t.observe_max("neighbors.cache_mb", args[0].cache_bytes / 2**20)

    def after_map(t, args, kwargs, result):
        t.count("parallel.map_calls")
        t.count("parallel.map_items", len(result))

    wrap(Dataset, "to_npy", "dataset.spill")
    wrap(Dataset, "fingerprint", "dataset.fingerprint")
    wrap(contrast_mod, "array_fingerprint", "dataset.fingerprint")
    wrap(SortedDatabaseIndex, "build_all", "index.build")
    wrap(SliceSampler, "sample_slice_batch", "index.slice", after_slice)
    wrap(contrast_mod, "sample_moments_batch", "stats.moments")
    wrap(contrast_mod, "welch_t_statistic_batch", "stats.welch")
    wrap(contrast_mod, "welch_satterthwaite_df_batch", "stats.welch")
    wrap(contrast_mod, "student_t_two_tailed_pvalue_batch", "stats.pvalue",
         lambda t, args, kwargs, result: t.count("stats.pvalue_elems", result.size))
    wrap(ContrastEstimator, "contrast_many", "subspaces.contrast", after_contrast)
    wrap(hics_mod, "generate_candidates", "subspaces.apriori")
    wrap(hics_mod, "apply_cutoff", "subspaces.apriori")
    wrap(hics_mod, "prune_redundant_subspaces", "subspaces.prune")
    wrap(engine_mod.SharedNeighborEngine, "kneighbors", "neighbors.knn", after_knn)
    wrap(engine_mod.SharedNeighborEngine, "query_distances", "neighbors.query")
    wrap(engine_mod, "top_k_smallest", "neighbors.topk", after_topk)
    wrap(engine_mod, "merge_top_k", "neighbors.topk")
    wrap(lof_mod, "top_k_smallest", "neighbors.topk", after_topk)
    wrap(LOFScorer, "score_batch", "outliers.score")
    wrap(LOFScorer, "score_samples_independent", "outliers.independent")
    wrap(ranking_mod, "aggregate_scores", "outliers.aggregate")
    wrap(pipeline_mod, "aggregate_scores", "outliers.aggregate")
    wrap(SubspaceOutlierPipeline, "fit", "pipeline.fit")
    wrap(SubspaceOutlierRanker, "rank", "pipeline.rank")
    wrap(SubspaceOutlierPipeline, "save", "pipeline.save")
    wrap(SubspaceOutlierPipeline, "load", "pipeline.load")
    for backend in (SerialBackend, ThreadBackend, ProcessBackend):
        wrap(backend, "map", "parallel.map", after_map)
    wrap(ModelVersion, "score", "serving.score",
         lambda t, args, kwargs, result: t.count("serving.score_calls"))

    def make_submit(submit):
        # Queue wait on the single writer thread: from submit to task start.
        def wrapper(self, func, *args, **kwargs):
            submitted = time.perf_counter()

            def timed(*a, **kw):
                tracer.sample("parallel.writer_wait_ms",
                              (time.perf_counter() - submitted) * 1000.0)
                return func(*a, **kw)

            return submit(self, timed, *args, **kwargs)

        return wrapper

    patcher.wrap(SingleWriterExecutor, "submit", make_submit)


def layer_metrics(tracers: List[dict], passes: int, extra: Dict[str, float]) -> Dict[str, float]:
    """Per-layer metric values from dumped tracer payloads (one per process)."""
    spans: Dict[str, List[float]] = {}
    counters: Dict[str, float] = {}
    maxima: Dict[str, float] = {}
    samples: Dict[str, List[float]] = {}
    for payload in tracers:
        for name, entry in payload["layers"].items():
            acc = spans.setdefault(name, [0.0, 0.0])
            acc[0] += entry["total_s"]
            acc[1] += entry["self_s"]
        for name, value in payload["counters"].items():
            counters[name] = counters.get(name, 0.0) + value
        for name, value in payload["maxima"].items():
            maxima[name] = max(maxima.get(name, value), value)
        for name, values in payload["samples"].items():
            samples.setdefault(name, []).extend(values)
    values: Dict[str, float] = {}
    for name, _unit, source, _moves in PER_LAYER:
        kind = source[0]
        if kind == "span":
            value = spans.get(source[1], [0.0, 0.0])[0]
        elif kind == "self":
            value = spans.get(source[1], [0.0, 0.0])[1]
        elif kind == "count":
            value = counters.get(source[1], 0.0)
        elif kind == "max":
            value = maxima.get(source[1], 0.0)
        elif kind == "ratio":
            den = counters.get(source[2], 0.0)
            value = counters.get(source[1], 0.0) / den if den else 0.0
        elif kind == "p99":
            # No samples: the layer did not run (0, like every other metric
            # here).  Too few beyond the p99 to read it: NaN.
            found = samples.get(source[1], [])
            try:
                value = percentile(found, 99)[0] if found else 0.0
            except ValueError:
                value = float("nan")
        else:
            value = extra.get(source[1], 0.0)
        values[name] = value
    return values
