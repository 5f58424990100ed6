"""BENCH_scale gate: the 100k-row suite must stay sub-quadratic in memory.

One end-to-end pass over an ``n = 100,000``, ``d = 10`` synthetic dataset
that would be impossible with dense ``n x n`` assembly (the full distance
matrix alone is 80 GB):

* **fit** — HiCS subspace search with the seeded-subsample Monte Carlo
  contrast (``subsample_size`` rows per subspace instead of the full
  database), so the search cost scales with the subsample.
* **rank** — exact LOF over the best subspace through the shared engine,
  which answers kNN on tall data with its pruned leaf search: no ``O(n^2)``
  work, and no more than one ``leaf x n`` block alive at a time.
* **exactness** — a small-``n`` cross-check that the pruned-search ranking
  is bit-for-bit identical to the per-subspace brute-force path, so the
  scale numbers above are for the *same* algorithm, not an approximation
  drift.

``--profile 1m`` runs the out-of-core cell instead: an ``n = 1,000,000``,
``d = 10`` dataset persisted with :meth:`Dataset.to_npy` and reopened as a
read-only memmap view (:meth:`Dataset.from_npy`), searched by HiCS with
``storage="memmap(chunk_rows=65536)"`` (chunked argsort-merge rank columns
spilled to scratch), then ranked by exact LOF with the default scorer,
``SubspaceOutlierRanker(LOFScorer(min_pts=10))``, whose engine runs the
pruned leaf search.  Its exactness phase proves the memmap search
bit-identical to the in-memory search on a small fixture, and the chunked
fingerprint identical to the in-memory digest, so the 1M numbers are for the
*same* algorithm.  The ``scale_1m`` gate suite bounds total wall time and
peak RSS (978 MB — the point of the exercise: the run must never page the
whole plane into memory).

The run fails (non-zero exit) when total wall time or peak RSS exceeds the
gates (declared in :mod:`repro.reporting.gates`; the CLI flags override the
registered bars), and always writes a ``BENCH_scale.json`` payload with
per-phase wall times, the observed peak and the evaluated gate rows for
trend tracking through ``repro-hics report``.

Run from the repository root::

    PYTHONPATH=src python benchmarks/scale_bench.py [--objects 100000] [--out BENCH_scale.json]
    PYTHONPATH=src python benchmarks/scale_bench.py --profile 1m
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import sys
import tempfile
import time

import numpy as np

from repro.dataset import Dataset, generate_synthetic_dataset
from repro.experiments import environment_manifest
from repro.neighbors import engine as engine_module
from repro.outliers import LOFScorer, SubspaceOutlierRanker
from repro.reporting import evaluate_suite, get_gate
from repro.subspaces.hics import HiCS


def peak_rss_mb() -> float:
    """Lifetime peak resident set of this process in MiB (Linux: KiB units)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed(phases: dict, name: str, fn):
    start = time.perf_counter()
    result = fn()
    phases[name] = round(time.perf_counter() - start, 3)
    print(f"{name}: {phases[name]:.1f}s  (peak rss {peak_rss_mb():.0f} MB)", flush=True)
    return result


def exactness_check(rng: np.random.Generator) -> None:
    """Pruned-search ranking must equal the per-subspace brute-force path bit for bit."""
    from repro.types import Subspace

    data = rng.normal(size=(1500, 10))
    data[100] = data[101]  # duplicate rows exercise the tie-break across leaves
    subspaces = [Subspace((0, 1)), Subspace((2, 3, 4))]
    # 1500 rows take the dense kNN route; with its height limit patched to 0
    # the shared engine runs the pruned leaf search the 100k rank runs.  Data
    # past the real limit would make the brute-force reference hold a 90 MB
    # matrix, which counts toward the peak RSS gate.  (unittest.mock would
    # add its own imports, about 4 MB, to that peak.)
    results = {}
    dense_max_rows, engine_module._DENSE_MAX_ROWS = engine_module._DENSE_MAX_ROWS, 0
    try:
        for engine in ("shared", "per-subspace"):
            ranker = SubspaceOutlierRanker(
                LOFScorer(min_pts=10, algorithm="brute"), engine=engine
            )
            results[engine] = ranker.rank(data, subspaces).scores
    finally:
        engine_module._DENSE_MAX_ROWS = dense_max_rows
    if not np.array_equal(results["shared"], results["per-subspace"]):
        raise SystemExit("FAIL: pruned-search ranking diverged from the per-subspace path")


def memmap_exactness_check() -> None:
    """A memmap-backed search must equal the in-memory search bit for bit."""
    reference = generate_synthetic_dataset(
        n_objects=1500,
        n_dims=8,
        n_relevant_subspaces=2,
        subspace_dims=(2, 3),
        outliers_per_subspace=10,
        random_state=3,
    )
    baseline = HiCS(
        n_iterations=10, candidate_cutoff=20, max_output_subspaces=5, random_state=0
    ).search(reference.data)
    store = tempfile.mkdtemp(prefix="scale1m-check-")
    try:
        reference.to_npy(store)
        mapped = Dataset.from_npy(store, mmap=True)
        if mapped.fingerprint() != reference.fingerprint():
            raise SystemExit(
                "FAIL: chunked memmap fingerprint diverged from the in-memory digest"
            )
        # chunk_rows straddles row boundaries
        mm = HiCS(
            n_iterations=10,
            candidate_cutoff=20,
            max_output_subspaces=5,
            random_state=0,
            storage="memmap(chunk_rows=997)",
        ).search(mapped.data)
    finally:
        shutil.rmtree(store, ignore_errors=True)
    if [(s.subspace, s.score) for s in mm] != [(s.subspace, s.score) for s in baseline]:
        raise SystemExit("FAIL: memmap-backed search diverged from the in-memory search")


def run_1m(args, phases: dict) -> dict:
    """The out-of-core cell: memmap dataset -> memmap HiCS -> exact LOF."""
    timed(phases, "exactness", memmap_exactness_check)

    dataset = timed(
        phases,
        "generate",
        lambda: generate_synthetic_dataset(
            n_objects=args.objects,
            n_dims=args.dims,
            n_relevant_subspaces=2,
            subspace_dims=(2, 3),
            outliers_per_subspace=20,
            random_state=7,
        ),
    )
    in_memory_fingerprint = dataset.fingerprint()

    store = tempfile.mkdtemp(prefix="scale1m-data-")
    scratch = tempfile.mkdtemp(prefix="scale1m-scratch-")
    try:
        timed(phases, "spill", lambda: dataset.to_npy(store))
        del dataset  # from here on the plane lives on disk, not in RAM
        mapped = timed(phases, "attach", lambda: Dataset.from_npy(store, mmap=True))
        if not mapped.is_memmap:
            raise SystemExit("FAIL: from_npy(mmap=True) did not return a memmap view")
        if timed(phases, "fingerprint", mapped.fingerprint) != in_memory_fingerprint:
            raise SystemExit(
                "FAIL: chunked memmap fingerprint diverged from the in-memory digest"
            )
        data = mapped.data

        scored = timed(
            phases,
            "fit",
            lambda: HiCS(
                n_iterations=20,
                candidate_cutoff=40,
                max_output_subspaces=1,
                subsample_size=min(1000, args.objects),
                random_state=0,
                storage=f"memmap(chunk_rows={args.chunk_rows})",
                scratch_dir=scratch,
            ).search(data),
        )
        best = scored[0].subspace
        print(f"fit: best subspace {best.attributes}", flush=True)

        ranking = timed(
            phases,
            "rank",
            lambda: SubspaceOutlierRanker(LOFScorer(min_pts=10)).rank(data, [best]),
        )
        if ranking.scores.shape != (args.objects,) or not np.all(np.isfinite(ranking.scores)):
            raise SystemExit("FAIL: pruned-search ranking produced malformed scores")
    finally:
        shutil.rmtree(store, ignore_errors=True)
        shutil.rmtree(scratch, ignore_errors=True)

    return {
        "subsample_size": min(1000, args.objects),
        "chunk_rows": args.chunk_rows,
        "storage": f"memmap(chunk_rows={args.chunk_rows})",
    }


def run_100k(args, phases: dict) -> dict:
    rng = np.random.default_rng(0)

    timed(phases, "exactness", lambda: exactness_check(rng))

    dataset = timed(
        phases,
        "generate",
        lambda: generate_synthetic_dataset(
            n_objects=args.objects,
            n_dims=args.dims,
            n_relevant_subspaces=2,
            subspace_dims=(2, 3),
            outliers_per_subspace=20,
            random_state=7,
        ),
    )
    data = dataset.data

    scored = timed(
        phases,
        "fit",
        lambda: HiCS(
            n_iterations=20,
            candidate_cutoff=40,
            max_output_subspaces=1,
            subsample_size=min(1000, args.objects),
            random_state=0,
        ).search(data),
    )
    best = [s.subspace for s in scored[:1]]
    print(f"fit: best subspace {best[0].attributes}", flush=True)

    ranking = timed(
        phases,
        "rank",
        lambda: SubspaceOutlierRanker(
            LOFScorer(min_pts=10, algorithm="brute"), engine="shared"
        ).rank(data, best),
    )
    if ranking.scores.shape != (args.objects,) or not np.all(np.isfinite(ranking.scores)):
        raise SystemExit("FAIL: pruned-search ranking produced malformed scores")

    return {"subsample_size": min(1000, args.objects)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--profile",
        choices=("100k", "1m"),
        default="100k",
        help="'100k': the in-memory suite (default); '1m': the out-of-core "
        "memmap cell gated by the scale_1m suite",
    )
    parser.add_argument(
        "--objects", type=int, default=None,
        help="row count (default: 100000 or 1000000 per profile)",
    )
    parser.add_argument("--dims", type=int, default=10)
    parser.add_argument(
        "--chunk-rows", type=int, default=65536,
        help="memmap chunk size for the 1m profile's index storage spec",
    )
    parser.add_argument("--out", default="BENCH_scale.json")
    parser.add_argument(
        "--max-seconds",
        type=float,
        default=None,
        help="gate on total wall time of all phases "
        "(default: the profile's registered gate threshold)",
    )
    parser.add_argument(
        "--max-rss-mb",
        type=float,
        default=None,
        help="gate on lifetime peak RSS (the dense n x n matrix alone needs "
        "~80 GB; default: the profile's registered gate threshold)",
    )
    args = parser.parse_args(argv)

    suite = "scale" if args.profile == "100k" else "scale_1m"
    if args.objects is None:
        args.objects = 100_000 if args.profile == "100k" else 1_000_000
    if args.max_seconds is None:
        args.max_seconds = get_gate(f"{suite}_total_sec").threshold
    if args.max_rss_mb is None:
        args.max_rss_mb = get_gate(f"{suite}_peak_rss_mb").threshold

    phases: dict = {}
    extras = (run_100k if args.profile == "100k" else run_1m)(args, phases)

    total = round(sum(phases.values()), 3)
    peak = round(peak_rss_mb(), 1)
    payload = {
        "benchmark": suite,
        "n_objects": args.objects,
        "n_dims": args.dims,
        "phases_sec": phases,
        "total_sec": total,
        "peak_rss_mb": peak,
        **extras,
        **environment_manifest(),
    }
    # Thresholds live in the gate registry; the CLI flags override the
    # registered bars and are recorded in the evaluated gate rows.
    gates = evaluate_suite(
        suite,
        payload,
        thresholds={
            f"{suite}_total_sec": args.max_seconds,
            f"{suite}_peak_rss_mb": args.max_rss_mb,
        },
    )
    payload["gates"] = [gate.to_dict() for gate in gates]
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
    print(f"total {total:.1f}s  peak rss {peak:.0f} MB  -> {args.out}", flush=True)

    status = 0
    for gate in gates:
        if not gate.passed:
            print(
                f"FAIL: gate {gate.name}: {gate.metric} = {gate.value} exceeds "
                f"threshold {gate.threshold}",
                file=sys.stderr,
            )
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
