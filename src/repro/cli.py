"""Command line front end: ``repro-hics`` / ``python -m repro.cli``.

Sub-commands
------------
``rank``      Rank the objects of a CSV dataset (or a named built-in dataset)
              with a chosen method or registry spec and print the top outliers.
``fit``       Fit a pipeline on a reference dataset and save the fitted model.
``score``     Score new objects against a previously fitted (saved) model.
``serve``     Serve a fitted model over HTTP: micro-batched ``/score``,
              versioned hot reload, ``/healthz`` and ``/metrics``.
``contrast``  Print the highest-contrast subspaces HiCS finds in a dataset.
``compare``   Run several methods on a labelled dataset and print an AUC table.
``bench``     Run the paper's figure/ablation experiment suite (sharded,
              cached, manifest-stamped artifacts under ``artifacts/``).
``report``    Consolidated benchmark reporting: collect bench/lint/figure
              artifacts into an append-only run history, render markdown or
              HTML trend reports, gate CI on regressions.
``datasets``  List the built-in datasets.
``registry``  List the registered searchers, scorers and aggregators.

Every one-shot command owns its pipeline through a context manager, so
worker pools, shared-memory planes, contrast caches and warm scoring engines
are released deterministically instead of at interpreter teardown (the
RPR501 lifecycle lint rule pins this).
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
from typing import Iterator, List, Optional

from .dataset import available_datasets, load_csv, load_dataset
from .evaluation.experiments import evaluate_method_on_dataset
from .evaluation.reporting import format_comparison_table
from .exceptions import ReproError
from .experiments import (
    DEFAULT_ARTIFACTS_DIR,
    PROFILES,
    ArtifactCache,
    available_experiments,
    check_artifact,
    expand_cells,
    format_artifact,
    get_experiment,
    resolve_profile,
    run_suite,
)
from .experiments.runner import artifact_path
from .pipeline.config import METHOD_NAMES, PipelineConfig, make_method_pipeline
from .pipeline.pipeline import SubspaceOutlierPipeline
from .registry import (
    available_aggregators,
    available_scorers,
    available_searchers,
    describe_component,
    get_scorer,
    get_searcher,
)
from .subspaces.hics import HiCS

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """Build the argument parser (exposed separately for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro-hics",
        description="HiCS: high contrast subspaces for density-based outlier ranking",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    def add_dataset_arguments(sub: argparse.ArgumentParser) -> None:
        group = sub.add_mutually_exclusive_group(required=True)
        group.add_argument("--csv", help="path to a CSV dataset (see repro.dataset.io)")
        group.add_argument(
            "--dataset", help="name of a built-in dataset (see the 'datasets' command)"
        )
        sub.add_argument("--seed", type=int, default=0, help="random seed (default 0)")

    def add_method_arguments(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("--method", default="HiCS", choices=sorted(METHOD_NAMES))
        sub.add_argument(
            "--spec",
            help="registry spec string, e.g. 'hics(alpha=0.1)+lof(min_pts=10)'; overrides --method",
        )
        sub.add_argument("--min-pts", type=int, default=10, help="LOF MinPts parameter")
        sub.add_argument(
            "--hics-subsample",
            type=int,
            default=None,
            help="seeded-subsample contrast mode: estimate each subspace's "
            "contrast over this many deterministically drawn reference rows "
            "instead of the full database (default: full database)",
        )
        add_parallel_arguments(sub)
        add_engine_arguments(sub)

    def add_parallel_arguments(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "--backend",
            default=os.environ.get("REPRO_BACKEND"),  # repro-lint: disable=RPR104 -- backend choice is a pure throughput knob: results are bit-for-bit identical under every backend (engine golden tests)
            help="execution backend for the contrast search: serial, thread, "
            "process, or a spec like 'process(n_jobs=4,start_method=spawn)'; "
            "results are identical for any backend (default: $REPRO_BACKEND "
            "or serial)",
        )
        sub.add_argument(
            "--storage",
            default=None,
            help="index storage: 'memory' (default) or a spec like "
            "'memmap(chunk_rows=65536)' for out-of-core index builds over "
            "memmap-backed data; results are identical for any storage mode",
        )
        sub.add_argument(
            "--scratch-dir",
            default=None,
            help="existing parent directory for out-of-core scratch spills "
            "(default: the system temporary directory); requires a memmap "
            "--storage",
        )

    def add_engine_arguments(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "--scoring-engine",
            default="shared",
            choices=["shared", "per-subspace"],
            help="scoring engine: 'shared' (default) computes one distance pass "
            "for all fitted subspaces, and an exact pruned kNN search on tall "
            "data; 'per-subspace' is the bit-for-bit identical reference path",
        )

    rank = subparsers.add_parser("rank", help="rank the objects of a dataset")
    add_dataset_arguments(rank)
    add_method_arguments(rank)
    rank.add_argument("--top", type=int, default=10, help="number of top outliers to print")

    fit = subparsers.add_parser(
        "fit", help="fit a pipeline on a reference dataset and save the model"
    )
    add_dataset_arguments(fit)
    add_method_arguments(fit)
    fit.add_argument("--out", required=True, help="path of the fitted model file (.npz)")

    serve = subparsers.add_parser(
        "serve",
        help="serve a fitted model over HTTP (fit once, score millions)",
        description=(
            "Start the online scoring service on a fitted model written by "
            "'fit'.  Concurrent single-point POST /score requests are "
            "micro-batched into one warm engine pass; POST /admin/reload (or "
            "--watch-interval) hot-swaps the model atomically without "
            "dropping in-flight requests; GET /healthz and GET /metrics "
            "report queue depth, batch sizes and latency histograms."
        ),
    )
    serve.add_argument(
        "--model",
        required=True,
        help="fitted model file written by 'fit', or a registry directory "
        "holding versioned *.npz models (the lexicographically last one "
        "is served)",
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind address (default 127.0.0.1)")
    serve.add_argument(
        "--port", type=int, default=8765, help="TCP port (default 8765; 0 = ephemeral)"
    )
    serve.add_argument(
        "--max-batch-size",
        type=int,
        default=64,
        help="largest micro-batch one engine pass may coalesce (default 64)",
    )
    serve.add_argument(
        "--max-batch-wait-ms",
        type=float,
        default=0.0,
        help="extra milliseconds to hold the first request of a batch for "
        "followers; 0 (default) is adaptive-only batching — requests "
        "arriving while a batch is being scored form the next batch",
    )
    serve.add_argument(
        "--watch-interval",
        type=float,
        default=0.0,
        help="poll the model path every N seconds and hot-reload when it "
        "changes (default 0 = reload only via POST /admin/reload)",
    )
    add_engine_arguments(serve)

    score = subparsers.add_parser(
        "score", help="score new objects against a fitted (saved) model"
    )
    add_dataset_arguments(score)
    score.add_argument("--model", required=True, help="model file written by 'fit'")
    score.add_argument("--top", type=int, default=10, help="number of top outliers to print")
    score.add_argument(
        "--independent",
        action="store_true",
        help="score each object on its own against the reference (a burst of "
        "near-duplicate anomalies in one batch cannot mask itself; cheap "
        "under the shared engine's asymmetric query mode)",
    )
    add_engine_arguments(score)

    contrast = subparsers.add_parser("contrast", help="print the highest contrast subspaces")
    add_dataset_arguments(contrast)
    contrast.add_argument("--iterations", type=int, default=50, help="Monte Carlo iterations M")
    contrast.add_argument("--alpha", type=float, default=0.1, help="slice size alpha")
    contrast.add_argument("--top", type=int, default=10, help="number of subspaces to print")
    contrast.add_argument(
        "--deviation", default="welch", choices=["welch", "ks"], help="statistical test"
    )
    add_parallel_arguments(contrast)

    compare = subparsers.add_parser("compare", help="compare methods on a labelled dataset")
    add_dataset_arguments(compare)
    compare.add_argument(
        "--methods",
        nargs="+",
        default=["LOF", "HiCS", "RANDSUB"],
        choices=sorted(METHOD_NAMES),
    )
    compare.add_argument(
        "--specs",
        nargs="*",
        default=[],
        help="additional registry spec strings to compare alongside --methods",
    )
    compare.add_argument("--min-pts", type=int, default=10)
    add_parallel_arguments(compare)
    add_engine_arguments(compare)

    bench = subparsers.add_parser(
        "bench",
        help="run the paper experiment suite (figures 2-11 + ablations)",
        description=(
            "Run the registered paper experiments through the sharded, cached "
            "experiment runner and write manifest-stamped JSON artifacts.  A "
            "re-run with identical parameters serves finished cells from the "
            "content-addressed cache and reproduces the result rows byte for "
            "byte."
        ),
    )
    bench.add_argument(
        "--profile",
        default="ci",
        choices=list(PROFILES),
        help="grid scale: 'ci' (seconds, default), 'quick' (laptop), 'full' (paper)",
    )
    bench.add_argument(
        "--only",
        nargs="+",
        metavar="SPEC",
        help="run only the named experiments (e.g. --only fig05 fig07)",
    )
    bench.add_argument(
        "--backend",
        default=os.environ.get("REPRO_BACKEND"),  # repro-lint: disable=RPR104 -- backend choice is a pure throughput knob: results are bit-for-bit identical under every backend (engine golden tests)
        help="execution backend for uncached cells, e.g. "
        "'process(n_jobs=4,start_method=spawn)'; one persistent worker pool "
        "serves the whole suite; result metrics are identical for any "
        "backend (timing-sensitive runtime figures always execute serially "
        "so measured seconds stay clean) (default: $REPRO_BACKEND or serial)",
    )
    bench.add_argument(
        "--no-cache",
        action="store_true",
        help="bypass the artifact cache (every cell recomputes)",
    )
    bench.add_argument(
        "--list",
        action="store_true",
        dest="list_specs",
        help="list the registered experiments and exit",
    )
    bench.add_argument(
        "--artifacts",
        default=DEFAULT_ARTIFACTS_DIR,
        help="artifact/cache directory (default: artifacts/)",
    )
    bench.add_argument("--seed", type=int, default=0, help="base seed (default 0)")
    bench.add_argument(
        "--check",
        action="store_true",
        help="also run each experiment's registered shape check",
    )
    bench.add_argument(
        "--tables",
        action="store_true",
        help="print the figure tables of every artifact",
    )

    lint = subparsers.add_parser(
        "lint",
        help="run the determinism & parallel-safety static analysis",
        description=(
            "AST-based lint of the repository's determinism and "
            "parallel-safety contracts (seeded RNGs, complete cache keys, "
            "picklable worker payloads, read-only shared memory, closed "
            "pools).  Exits non-zero when any non-suppressed finding "
            "remains; suppress individual sites with "
            "'# repro-lint: disable=RPR101 -- <justification>'."
        ),
    )
    lint.add_argument(
        "paths",
        nargs="*",
        help="files or directories to lint (default: the repro package sources)",
    )
    lint.add_argument(
        "--select",
        action="append",
        metavar="CODES",
        help="only report these rule codes/prefixes (e.g. RPR1,RPR501); repeatable",
    )
    lint.add_argument(
        "--ignore",
        action="append",
        metavar="CODES",
        help="drop these rule codes/prefixes; repeatable",
    )
    lint.add_argument(
        "--format",
        dest="output_format",
        default="text",
        choices=["text", "json"],
        help="output format (json includes suppressed findings and a summary)",
    )
    lint.add_argument(
        "--output",
        help="also write the report to this file (useful for CI artifacts)",
    )
    lint.add_argument(
        "--list-rules",
        action="store_true",
        help="list the registered rules and exit",
    )

    report = subparsers.add_parser(
        "report",
        help="consolidate benchmark artifacts into trend reports",
        description=(
            "Reporting layer over the benchmark suites: 'collect' ingests "
            "BENCH_*.json / perf-smoke / figure-suite / lint artifacts into "
            "an append-only history.jsonl keyed by (suite, git sha, "
            "timestamp); 'render' produces a markdown or self-contained HTML "
            "report with per-gate pass/fail tables, deltas and trend "
            "sparklines; 'check' exits 1 when a gate fails or a gated metric "
            "regressed past its tolerance."
        ),
    )
    report_commands = report.add_subparsers(dest="report_command", required=True)

    def add_history_argument(sub: argparse.ArgumentParser, *, required: bool) -> None:
        sub.add_argument(
            "--history",
            required=required,
            default=None,
            help="append-only history.jsonl store (one RunRecord per line)",
        )

    collect = report_commands.add_parser(
        "collect",
        help="ingest benchmark artifacts into the run history",
        description=(
            "Normalise benchmark payload files (or directories, scanned "
            "recursively for *.json) into run records and append them to the "
            "history.  Unrecognised JSON files are skipped with a note; "
            "re-collecting an already recorded run is a no-op."
        ),
    )
    collect.add_argument("paths", nargs="+", help="payload files or directories")
    add_history_argument(collect, required=True)
    collect.add_argument(
        "--git-sha",
        default=None,
        help="record runs under this sha (default: $GITHUB_SHA or git rev-parse)",
    )
    collect.add_argument(
        "--timestamp",
        default=None,
        help="record runs under this ISO-8601 timestamp (default: now, UTC)",
    )

    render = report_commands.add_parser(
        "render",
        help="render the run history as markdown or HTML",
        description=(
            "Render a consolidated report: one pass/fail table per suite "
            "with deltas vs the previous run, regression call-outs, and (in "
            "HTML) an inline SVG sparkline per gate metric once a suite has "
            "two or more runs.  Positional payload files are collected "
            "in-memory first, so a report can be rendered without a history "
            "file."
        ),
    )
    render.add_argument(
        "paths", nargs="*", help="payload files/directories to include ad hoc"
    )
    add_history_argument(render, required=False)
    render.add_argument(
        "--format",
        dest="report_format",
        default="md",
        choices=["md", "html"],
        help="output format (default md)",
    )
    render.add_argument("--out", help="write to this file instead of stdout")
    render.add_argument(
        "--tolerance",
        type=float,
        default=None,
        help="override every gate's regression tolerance (default: per-gate registry value)",
    )

    check = report_commands.add_parser(
        "check",
        help="exit 1 on a failing gate or an out-of-tolerance regression",
        description=(
            "The CI regression gate: load the history (plus any ad-hoc "
            "payload files), diff each suite's latest run against its "
            "previous one, and exit 1 when any gate fails outright or a "
            "gated metric worsened past its tolerance."
        ),
    )
    check.add_argument(
        "paths", nargs="*", help="payload files/directories to include ad hoc"
    )
    add_history_argument(check, required=False)
    check.add_argument(
        "--tolerance",
        type=float,
        default=None,
        help="override every gate's regression tolerance (default: per-gate registry value)",
    )

    subparsers.add_parser("datasets", help="list the built-in datasets")
    subparsers.add_parser(
        "registry", help="list registered searchers, scorers and aggregators"
    )
    return parser


def _load(args: argparse.Namespace):
    if args.csv:
        return load_csv(args.csv)
    return load_dataset(args.dataset, random_state=args.seed)


def _print_top(result, top: int) -> None:
    print(f"{'rank':>4}  {'object':>8}  {'score':>10}")
    for rank, obj in enumerate(result.top(top), start=1):
        print(f"{rank:>4}  {obj:>8}  {result.scores[obj]:>10.4f}")


@contextlib.contextmanager
def _owned_pipeline(pipeline) -> Iterator[object]:
    """Deterministic lifecycle for any pipeline flavour the factories build.

    ``SubspaceOutlierPipeline`` is a context manager of its own; front ends
    without a ``close`` (the PCA reducers) simply have nothing to release.
    """
    try:
        yield pipeline
    finally:
        closer = getattr(pipeline, "close", None)
        if callable(closer):
            closer()


def _resolve_method_pipeline(args: argparse.Namespace):
    """Build the pipeline for the shared --method/--spec/--min-pts arguments."""
    method = args.spec if args.spec else args.method
    config = PipelineConfig(
        min_pts=args.min_pts,
        hics_subsample=getattr(args, "hics_subsample", None),
        random_state=args.seed,
        backend=args.backend,
        scoring_engine=args.scoring_engine,
        storage=getattr(args, "storage", None),
        scratch_dir=getattr(args, "scratch_dir", None),
    )
    return method, make_method_pipeline(method, config)


def _command_rank(args: argparse.Namespace) -> int:
    dataset = _load(args)
    method, pipeline = _resolve_method_pipeline(args)
    with _owned_pipeline(pipeline):
        result = (
            pipeline.fit_rank(dataset)
            if hasattr(pipeline, "fit_rank")
            else pipeline.rank(dataset.data)
        )
    print(f"method: {method}   dataset: {dataset.name}   objects: {dataset.n_objects}")
    _print_top(result, args.top)
    return 0


def _command_fit(args: argparse.Namespace) -> int:
    dataset = _load(args)
    method, pipeline = _resolve_method_pipeline(args)
    if not isinstance(pipeline, SubspaceOutlierPipeline):
        print(
            f"error: method {method!r} does not produce a fittable subspace pipeline",
            file=sys.stderr,
        )
        return 2
    with pipeline:
        pipeline.fit(dataset)
        pipeline.save(args.out)
        note = " (full-space fallback)" if pipeline.fallback_full_space_ else ""
        print(
            f"fitted {method} on {dataset.name!r} "
            f"({dataset.n_objects} objects, {dataset.n_dims} dims); "
            f"{len(pipeline.subspaces_)} subspaces{note} -> {args.out}"
        )
    return 0


def _command_score(args: argparse.Namespace) -> int:
    dataset = _load(args)
    with SubspaceOutlierPipeline.load(args.model) as pipeline:
        # Serve-time override: the engine is a throughput knob, not part of the
        # fitted model, so the scoring host may pick a different one than the
        # machine that ran fit.
        pipeline.engine = pipeline.ranker.engine = args.scoring_engine
        result = pipeline.rank(dataset, independent=args.independent)
    print(
        f"model: {args.model}   method: {result.method}   "
        f"new objects: {dataset.n_objects}"
    )
    _print_top(result, args.top)
    return 0


def _command_serve(args: argparse.Namespace) -> int:
    import asyncio

    from .serving import ModelRegistry, ScoringServer

    registry = ModelRegistry(args.model, scoring_engine=args.scoring_engine)
    server = ScoringServer(
        registry,
        host=args.host,
        port=args.port,
        max_batch_size=args.max_batch_size,
        max_batch_wait_ms=args.max_batch_wait_ms,
        watch_interval=args.watch_interval,
    )

    async def _run() -> None:
        await server.start()
        model = registry.current
        print(
            f"serving {model.path} (version {model.version}, "
            f"{model.n_dims} dims) on http://{server.host}:{server.port} — "
            f"POST /score, POST /score/batch, GET /healthz, GET /metrics, "
            f"POST /admin/reload",
            flush=True,
        )
        try:
            await server.wait_closed()
        finally:
            await server.stop()

    try:
        asyncio.run(_run())
    except KeyboardInterrupt:
        pass
    return 0


def _command_contrast(args: argparse.Namespace) -> int:
    dataset = _load(args)
    searcher = HiCS(
        n_iterations=args.iterations,
        alpha=args.alpha,
        deviation=args.deviation,
        random_state=args.seed,
        backend=args.backend,
        storage=args.storage,
        scratch_dir=args.scratch_dir,
    )
    with contextlib.closing(searcher):
        scored = searcher.search(dataset.data)[: args.top]
    print(f"dataset: {dataset.name}   dims: {dataset.n_dims}   objects: {dataset.n_objects}")
    print(f"{'contrast':>10}  subspace")
    for item in scored:
        names = [dataset.attribute_names[a] for a in item.subspace.attributes]
        print(f"{item.score:>10.4f}  {names}")
    return 0


def _command_compare(args: argparse.Namespace) -> int:
    dataset = _load(args)
    config = PipelineConfig(
        min_pts=args.min_pts,
        random_state=args.seed,
        backend=args.backend,
        scoring_engine=args.scoring_engine,
        storage=args.storage,
        scratch_dir=args.scratch_dir,
    )
    methods = list(args.methods) + list(args.specs)
    results = [evaluate_method_on_dataset(m, dataset, config) for m in methods]
    print(format_comparison_table(results, value="auc"))
    print()
    print(format_comparison_table(results, value="runtime_sec", percent=False, precision=2))
    return 0


def _command_bench(args: argparse.Namespace) -> int:
    if args.list_specs:
        print(f"{'name':<22} {'figure':<22} {'ci':>4} {'quick':>6} {'full':>5}  title")
        for name in available_experiments():
            spec = get_experiment(name)
            counts = {
                profile: len(expand_cells(resolve_profile(spec, profile)))
                for profile in PROFILES
            }
            print(
                f"{spec.name:<22} {spec.figure:<22} "
                f"{counts['ci']:>4} {counts['quick']:>6} {counts['full']:>5}  "
                f"{spec.title}"
            )
        return 0

    names = args.only if args.only else None
    cache = (
        None
        if args.no_cache
        else ArtifactCache(os.path.join(args.artifacts, "cache"))
    )
    failures: List[str] = []

    def progress(name: str, artifact: dict) -> None:
        manifest = artifact["manifest"]
        line = (
            f"{name:<22} cells={manifest['n_cells']:<4} "
            f"hits={manifest['cache_hits']:<4} misses={manifest['cache_misses']:<4} "
            f"{manifest['elapsed_sec']:6.2f}s  -> {artifact_path(artifact, args.artifacts)}"
        )
        print(line, flush=True)
        if args.tables:
            print(format_artifact(artifact))
        if args.check:
            try:
                check_artifact(name, artifact)
            except AssertionError as exc:
                failures.append(name)
                print(f"  CHECK FAILED: {exc}", file=sys.stderr)

    artifacts = run_suite(
        names,
        profile=args.profile,
        cache=cache,
        backend=args.backend,
        base_seed=args.seed,
        artifacts_dir=args.artifacts,
        progress=progress,
    )
    # Static-analysis trajectory: lint the library sources that produced this
    # run and record the counts, so a determinism-contract regression shows
    # up in the bench summary next to the numbers it could invalidate.
    from .lint import lint_paths

    lint_report = lint_paths(_default_lint_paths())
    summary = {
        "profile": args.profile,
        "base_seed": args.seed,
        "lint_findings": len(lint_report.active),
        "lint_suppressed": len(lint_report.suppressed),
        "n_experiments": len(artifacts),
        "n_cells": sum(a["manifest"]["n_cells"] for a in artifacts.values()),
        "cache_hits": sum(a["manifest"]["cache_hits"] for a in artifacts.values()),
        "cache_misses": sum(a["manifest"]["cache_misses"] for a in artifacts.values()),
        "elapsed_sec": sum(a["manifest"]["elapsed_sec"] for a in artifacts.values()),
        "experiments": {
            name: artifact_path(artifact, args.artifacts)
            for name, artifact in artifacts.items()
        },
    }
    summary_path = os.path.join(args.artifacts, args.profile, "summary.json")
    os.makedirs(os.path.dirname(summary_path), exist_ok=True)
    import json

    with open(summary_path, "w", encoding="utf-8") as handle:
        json.dump(summary, handle, indent=2, sort_keys=True)
        handle.write("\n")
    hit_rate = summary["cache_hits"] / summary["n_cells"] if summary["n_cells"] else 0.0
    print(
        f"suite: {summary['n_experiments']} experiments, {summary['n_cells']} cells "
        f"({hit_rate:.0%} cached), {summary['elapsed_sec']:.1f}s, "
        f"lint findings: {summary['lint_findings']} -> {summary_path}"
    )
    if failures:
        print(f"error: {len(failures)} check(s) failed: {failures}", file=sys.stderr)
        return 1
    return 0


def _default_lint_paths() -> List[str]:
    """Prefer the source tree when run from a checkout, else the installed package."""
    if os.path.isdir(os.path.join("src", "repro")):
        return [os.path.join("src", "repro")]
    return [os.path.dirname(os.path.abspath(__file__))]


def _command_lint(args: argparse.Namespace) -> int:
    from .lint import available_rules, lint_paths

    if args.list_rules:
        print(f"{'code':<8} {'scope':<8} {'name':<26} summary")
        for code, rule in available_rules().items():
            print(f"{code:<8} {rule.scope:<8} {rule.name:<26} {rule.summary}")
        return 0
    paths = args.paths or _default_lint_paths()
    try:
        report = lint_paths(paths, select=args.select, ignore=args.ignore)
    except (FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    rendered = (
        report.format_json() if args.output_format == "json" else report.format_text()
    )
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(rendered)
            handle.write("\n")
    print(rendered)
    return report.exit_code


def _iter_payload_files(paths: List[str]) -> Iterator[str]:
    """Expand files/directories into candidate JSON payload paths."""
    for path in paths:
        if os.path.isdir(path):
            for root, _dirs, files in os.walk(path):
                for name in sorted(files):
                    if name.endswith(".json"):
                        yield os.path.join(root, name)
        else:
            yield path


def _collect_records(
    paths: List[str], git_sha: Optional[str], timestamp: Optional[str]
):
    """Ingest every recognisable payload under ``paths`` into RunRecords."""
    from .reporting import SchemaError, ingest_file

    records, skipped = [], []
    for path in _iter_payload_files(paths):
        if not os.path.exists(path):
            raise ReproError(f"no such payload file: {path}")
        try:
            records.append(ingest_file(path, git_sha=git_sha, timestamp=timestamp))
        except SchemaError as exc:
            skipped.append((path, str(exc)))
    return records, skipped


def _report_history_records(args: argparse.Namespace) -> list:
    """History records plus any ad-hoc payloads for render/check."""
    from .reporting import load_history

    records = load_history(args.history) if args.history else []
    if args.paths:
        adhoc, skipped = _collect_records(args.paths, None, None)
        for path, reason in skipped:
            print(f"note: skipped {path}: {reason}", file=sys.stderr)
        records.extend(adhoc)
    return records


def _command_report(args: argparse.Namespace) -> int:
    from .reporting import (
        HistoryStore,
        detect_regressions,
        render_html,
        render_markdown,
    )

    if args.report_command == "collect":
        records, skipped = _collect_records(args.paths, args.git_sha, args.timestamp)
        for path, reason in skipped:
            print(f"note: skipped {path}: {reason}", file=sys.stderr)
        if not records:
            print("error: no recognisable benchmark payloads found", file=sys.stderr)
            return 2
        store = HistoryStore(args.history)
        appended = store.extend(records)
        print(
            f"collected {len(records)} record(s) "
            f"({appended} new, {len(records) - appended} already recorded, "
            f"{len(skipped)} skipped) -> {args.history}"
        )
        return 0

    records = _report_history_records(args)
    if args.report_command == "render":
        if not records and not args.history:
            print("error: nothing to render (no --history, no payloads)", file=sys.stderr)
            return 2
        rendered = (
            render_html(records, tolerance=args.tolerance)
            if args.report_format == "html"
            else render_markdown(records, tolerance=args.tolerance)
        )
        if args.out:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(rendered)
                handle.write("\n")
            print(f"wrote {args.out}")
        else:
            print(rendered)
        return 0

    # check: the CI regression gate.
    if not records:
        print("error: nothing to check (no --history, no payloads)", file=sys.stderr)
        return 2
    callouts = detect_regressions(records, tolerance=args.tolerance)
    failures = [c for c in callouts if c.kind == "gate_failure"]
    regressions = [c for c in callouts if c.kind == "regression"]
    for callout in callouts:
        print(callout.message, file=sys.stderr)
    n_suites = len({record.suite for record in records})
    if failures or regressions:
        print(
            f"FAIL: {len(failures)} failing gate(s), "
            f"{len(regressions)} regression(s) across {n_suites} suite(s)",
            file=sys.stderr,
        )
        return 1
    print(f"ok: all gates passing across {n_suites} suite(s), no regressions")
    return 0


def _command_datasets(_args: argparse.Namespace) -> int:
    for name in available_datasets():
        print(name)
    return 0


def _command_registry(_args: argparse.Namespace) -> int:
    print("searchers:")
    for name in available_searchers():
        print(f"  {name}{describe_component(get_searcher(name))}")
    print("scorers:")
    for name in available_scorers():
        print(f"  {name}{describe_component(get_scorer(name))}")
    print("aggregators:")
    print("  " + ", ".join(available_aggregators()))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns the process exit code.

    Library errors caused by user input (unknown components, malformed specs
    or model files, bad parameters) are reported as a one-line message on
    stderr with exit code 2 instead of a traceback.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "rank": _command_rank,
        "fit": _command_fit,
        "score": _command_score,
        "serve": _command_serve,
        "contrast": _command_contrast,
        "compare": _command_compare,
        "bench": _command_bench,
        "report": _command_report,
        "lint": _command_lint,
        "datasets": _command_datasets,
        "registry": _command_registry,
    }
    try:
        return handlers[args.command](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Output piped into a pager/head that closed early — not an error.
        # Detach stdout so the interpreter's shutdown flush cannot re-raise.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
