"""Fit once, score a stream: the serving-path API with persistence.

Demonstrates the estimator-protocol split the production deployment relies
on: the Monte-Carlo subspace search runs **once** against a reference
dataset, the fitted pipeline is saved to disk, and a separate "serving
process" loads the model and scores incoming batches of new objects without
ever repeating the search.

Since the shared-neighborhood scoring engine, the serving process also keeps
per-dimension distance blocks and reference neighbour lists warm across
batches, so even ``independent=True`` scoring — every object judged on its
own against the reference, immune to batch self-masking — costs an
incremental neighbourhood update per object instead of a full scoring pass.
The per-subspace reference path produces bit-for-bit identical scores; the
engine is purely a throughput knob.

Run with::

    python examples/fit_once_score_stream.py
"""

from __future__ import annotations

import os
import tempfile
import time

import numpy as np

from repro import (
    HiCS,
    LOFScorer,
    SubspaceOutlierPipeline,
    generate_synthetic_dataset,
    make_pipeline_from_spec,
)


def main() -> None:
    # ----------------------------------------------------- offline: training
    reference = generate_synthetic_dataset(
        n_objects=500, n_dims=15, n_relevant_subspaces=3, random_state=0
    )
    pipeline = SubspaceOutlierPipeline(
        # backend selects the execution backend for the contrast search: one
        # persistent worker pool serves every apriori level of the fit, and
        # scores are bit-for-bit identical to serial ("serial", "thread(...)"
        # and any process start method behave the same).
        searcher=HiCS(n_iterations=40, random_state=0, backend="process(n_jobs=2)"),
        scorer=LOFScorer(min_pts=10),
        engine="shared",  # the default; "per-subspace" scores identically
    )
    started = time.perf_counter()
    pipeline.fit(reference)
    fit_seconds = time.perf_counter() - started
    print(f"fitted on {reference.n_objects} reference objects in {fit_seconds:.2f}s; "
          f"{len(pipeline.subspaces_)} subspaces retained")

    model_path = os.path.join(tempfile.mkdtemp(), "hics_model.npz")
    pipeline.save(model_path)
    print(f"model saved to {model_path}")

    # ----------------------------------------------------- online: serving
    serving = SubspaceOutlierPipeline.load(model_path)
    rng = np.random.default_rng(42)
    for batch_id in range(3):
        # A batch of "incoming" objects: mostly inliers, one gross outlier.
        batch = rng.uniform(0.25, 0.75, size=(50, reference.n_dims))
        batch[-1] = 0.999
        started = time.perf_counter()
        scores = serving.score_samples(batch)
        score_ms = (time.perf_counter() - started) * 1000.0
        flagged = int(np.argmax(scores))
        print(f"batch {batch_id}: scored {len(batch)} objects jointly in "
              f"{score_ms:.1f} ms, most suspicious object = {flagged} "
              f"(score {scores[flagged]:.3f})")

    # ------------------------------------- online: independent (streaming)
    # Joint scoring lets a batch of near-duplicate anomalies mask itself by
    # forming its own dense cluster; independent=True scores each object as
    # if it arrived alone.  The engine's asymmetric query mode answers this
    # from cached reference blocks + neighbour lists, so the second batch on
    # is dramatically cheaper than the per-object reference loop.
    attack = np.tile(rng.uniform(0.9, 0.95, size=(1, reference.n_dims)), (10, 1))
    joint = serving.score_samples(attack)
    serving.score_samples(attack, independent=True)  # warm the engine caches
    started = time.perf_counter()
    independent = serving.score_samples(attack, independent=True)
    independent_ms = (time.perf_counter() - started) * 1000.0
    print(f"duplicate-burst masking: joint max score {joint.max():.3f} vs "
          f"independent max score {independent.max():.3f} "
          f"({independent_ms:.1f} ms warm for {len(attack)} objects)")

    # A real serving host closes the pipeline when it retires the model —
    # that drops the warm engine caches deterministically (``repro-hics
    # serve`` does exactly this on every hot reload).
    serving.close()

    # The same pipeline is also reachable via a registry spec string; the
    # engine segment is part of the grammar.
    same = make_pipeline_from_spec(
        "hics(n_iterations=40, random_state=0)+lof(min_pts=10)+shared"
    )
    same.fit(reference)
    check = rng.uniform(size=(5, reference.n_dims))
    assert np.array_equal(same.score_samples(check), pipeline.score_samples(check))
    print("spec-built pipeline reproduces the scores of the hand-built one")
    same.close()
    pipeline.close()


if __name__ == "__main__":
    main()
