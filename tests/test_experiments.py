"""Tests for the experiment orchestration subsystem (:mod:`repro.experiments`)."""

from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np
import pytest

from repro.evaluation.experiments import ExperimentResult
from repro.evaluation.reporting import series_from_rows
from repro.evaluation.sweep import sweep_points_from_rows
from repro.exceptions import ParameterError
from repro.experiments import (
    ArtifactCache,
    Cell,
    DatasetSpec,
    ExperimentSpec,
    MethodSpec,
    SweepAxis,
    available_experiments,
    build_dataset,
    canonical_json,
    cell_key,
    check_artifact,
    expand_cells,
    format_artifact,
    get_experiment,
    resolve_profile,
    run_experiment,
    strip_volatile,
    write_artifact,
)
from repro.pipeline import PipelineConfig


def tiny_spec(**overrides) -> ExperimentSpec:
    """A fast evaluate-task spec used by the runner/cache tests."""
    fields = dict(
        name="tiny",
        figure="test",
        title="tiny test experiment",
        datasets=(
            DatasetSpec(
                label="d5",
                kind="synthetic",
                params={
                    "n_objects": 60,
                    "n_dims": 5,
                    "n_relevant_subspaces": 1,
                    "subspace_dims": [2],
                    "outliers_per_subspace": 3,
                    "random_state": 0,
                },
            ),
        ),
        methods=(MethodSpec(label="LOF", method="LOF"),),
        config={"min_pts": 5, "max_subspaces": 5, "hics_iterations": 5, "hics_cutoff": 5},
    )
    fields.update(overrides)
    return ExperimentSpec(**fields)


class TestSpecExpansion:
    def test_expansion_is_deterministic(self):
        spec = get_experiment("fig04")
        resolved = resolve_profile(spec, "ci")
        first = [c.to_dict() for c in expand_cells(resolved)]
        second = [c.to_dict() for c in expand_cells(resolved)]
        assert first == second
        # ... and survives a JSON round trip (cells are shipped to workers).
        assert json.loads(json.dumps(first)) == first

    def test_cell_roundtrip(self):
        cells = expand_cells(resolve_profile(get_experiment("fig11"), "ci"))
        for cell in cells:
            assert Cell.from_dict(cell.to_dict()) == cell

    def test_grid_order_datasets_outer_methods_inner(self):
        spec = tiny_spec(
            datasets=(
                DatasetSpec(label="a", kind="registry", params={"name": "glass"}),
                DatasetSpec(label="b", kind="registry", params={"name": "glass"}),
            ),
            methods=(MethodSpec("m1", "LOF"), MethodSpec("m2", "HiCS")),
        )
        labels = [(c.dataset.label, c.method_label) for c in expand_cells(spec)]
        assert labels == [("a", "m1"), ("a", "m2"), ("b", "m1"), ("b", "m2")]

    def test_repetitions_derive_distinct_seeds(self):
        spec = tiny_spec(repetitions=3)
        cells = expand_cells(spec, base_seed=7)
        assert [c.seed for c in cells] == [7, 8, 9]
        assert [c.config["random_state"] for c in cells] == [7, 8, 9]

    def test_sweep_placeholder_substitution(self):
        spec = tiny_spec(
            methods=(MethodSpec(label="hics", method="hics(alpha={value})+lof(min_pts=5)"),),
            sweep=SweepAxis(name="alpha", values=(0.1, 0.2)),
        )
        methods = [c.method for c in expand_cells(spec)]
        assert methods == ["hics(alpha=0.1)+lof(min_pts=5)", "hics(alpha=0.2)+lof(min_pts=5)"]

    def test_sweep_into_config_field(self):
        spec = tiny_spec(sweep=SweepAxis(name="M", values=(5, 9), config_field="hics_iterations"))
        cells = expand_cells(spec)
        assert [c.config["hics_iterations"] for c in cells] == [5, 9]

    def test_ignored_sweep_value_is_rejected(self):
        spec = tiny_spec(sweep=SweepAxis(name="x", values=(1, 2)))
        with pytest.raises(ParameterError, match="ignored"):
            expand_cells(spec)

    def test_placeholder_without_sweep_is_rejected(self):
        spec = tiny_spec(methods=(MethodSpec(label="m", method="hics(alpha={value})"),))
        with pytest.raises(ParameterError, match="placeholder"):
            expand_cells(spec)

    def test_unknown_config_field_is_rejected(self):
        spec = tiny_spec(config={"no_such_field": 1})
        with pytest.raises(ParameterError, match="no_such_field"):
            expand_cells(spec)


class TestProfiles:
    def test_unknown_profile_rejected(self):
        with pytest.raises(ParameterError, match="unknown profile"):
            resolve_profile(get_experiment("fig04"), "huge")

    def test_unknown_override_field_rejected(self):
        with pytest.raises(ParameterError, match="unknown fields"):
            tiny_spec(profiles={"ci": {"bogus": 1}})

    def test_ci_profile_shrinks_fig04(self):
        spec = get_experiment("fig04")
        assert len(expand_cells(resolve_profile(spec, "ci"))) < len(
            expand_cells(resolve_profile(spec, "quick"))
        )

    def test_profile_config_overlays_base(self):
        spec = tiny_spec(profiles={"ci": {"config": {"min_pts": 3}}})
        resolved = resolve_profile(spec, "ci")
        assert resolved.config["min_pts"] == 3
        assert resolved.config["max_subspaces"] == 5  # base value kept

    def test_unlisted_profile_keeps_base_grid(self):
        spec = tiny_spec()
        assert resolve_profile(spec, "full") == spec

    def test_every_registered_spec_has_a_ci_grid(self):
        # The acceptance contract: `bench --profile ci` runs everything fast.
        for name in available_experiments():
            cells = expand_cells(resolve_profile(get_experiment(name), "ci"))
            assert 0 < len(cells) <= 20, name


class TestCellKeys:
    def setup_method(self):
        self.spec = tiny_spec()
        self.cell = expand_cells(self.spec)[0]
        self.fingerprint = build_dataset(self.cell.dataset).fingerprint()

    def test_key_is_stable(self):
        assert cell_key(self.cell, self.fingerprint) == cell_key(self.cell, self.fingerprint)

    def test_param_change_changes_key(self):
        changed = expand_cells(tiny_spec(config={**self.spec.config, "min_pts": 6}))[0]
        assert cell_key(changed, self.fingerprint) != cell_key(self.cell, self.fingerprint)

    def test_seed_change_changes_key(self):
        reseeded = expand_cells(self.spec, base_seed=1)[0]
        assert cell_key(reseeded, self.fingerprint) != cell_key(self.cell, self.fingerprint)

    def test_dataset_content_changes_key(self):
        assert cell_key(self.cell, "0" * 40) != cell_key(self.cell, self.fingerprint)

    def test_throughput_knobs_do_not_change_key(self):
        # The backend / scoring engine are bit-for-bit equivalent; a cached
        # suite must survive changing them.
        fast = expand_cells(
            tiny_spec(
                config={
                    **self.spec.config,
                    "backend": "process(n_jobs=4)",
                    "scoring_engine": "per-subspace",
                }
            )
        )[0]
        assert cell_key(fast, self.fingerprint) == cell_key(self.cell, self.fingerprint)

    def test_experiment_name_does_not_change_key(self):
        renamed = expand_cells(tiny_spec(name="other"))[0]
        assert cell_key(renamed, self.fingerprint) == cell_key(self.cell, self.fingerprint)


class TestArtifactCache:
    def test_miss_then_hit(self, tmp_path):
        cache = ArtifactCache(str(tmp_path))
        assert cache.get("ab" * 32) is None
        cache.put("ab" * 32, {"rows": [{"x": 1}]})
        payload = cache.get("ab" * 32)
        assert payload["rows"] == [{"x": 1}]
        assert cache.stats() == {"hits": 1, "misses": 1}

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ArtifactCache(str(tmp_path))
        key = "cd" * 32
        cache.put(key, {"rows": []})
        with open(cache._path(key), "w") as handle:
            handle.write("{truncated")
        assert cache.get(key) is None

    def test_schema_mismatch_is_a_miss(self, tmp_path):
        cache = ArtifactCache(str(tmp_path))
        key = "ef" * 32
        cache.put(key, {"rows": []})
        path = Path(cache._path(key))
        payload = json.loads(path.read_text())
        payload["schema"] = -1
        path.write_text(json.dumps(payload))
        assert cache.get(key) is None


class TestRunner:
    def test_run_experiment_produces_rows_and_manifest(self, tmp_path):
        artifact = run_experiment(tiny_spec(), artifacts_dir=str(tmp_path))
        assert len(artifact["rows"]) == 1
        row = artifact["rows"][0]
        assert row["dataset"] == "d5" and row["method"] == "LOF"
        assert 0.0 <= row["auc"] <= 1.0
        manifest = artifact["manifest"]
        assert manifest["n_cells"] == 1 and manifest["library_version"]
        path = os.path.join(str(tmp_path), "ci", "tiny.json")
        assert json.loads(Path(path).read_text())["experiment"] == "tiny"

    def test_warm_rerun_is_bit_identical_and_fully_cached(self, tmp_path):
        cache = ArtifactCache(str(tmp_path / "cache"))
        spec = tiny_spec(repetitions=2)
        cold = run_experiment(spec, cache=cache)
        assert cold["manifest"]["cache_misses"] == 2
        warm = run_experiment(spec, cache=cache)
        assert warm["manifest"]["cache_hits"] == 2
        assert warm["manifest"]["cache_misses"] == 0
        assert canonical_json(strip_volatile(warm)) == canonical_json(strip_volatile(cold))
        # Byte identity of the written artifacts, manifest excluded.
        assert canonical_json(warm["rows"]) == canonical_json(cold["rows"])

    def test_param_change_recomputes(self, tmp_path):
        cache = ArtifactCache(str(tmp_path / "cache"))
        run_experiment(tiny_spec(), cache=cache)
        changed = tiny_spec(config={**tiny_spec().config, "min_pts": 4})
        artifact = run_experiment(changed, cache=cache)
        assert artifact["manifest"]["cache_misses"] == 1
        assert artifact["manifest"]["cache_hits"] == 0

    def test_n_jobs_sharding_is_result_invariant(self):
        spec = tiny_spec(repetitions=3)
        serial = run_experiment(spec, backend="serial")
        sharded = run_experiment(spec, backend="process(n_jobs=3)")
        assert sharded["manifest"]["n_jobs"] == 3
        strip = lambda rows: [  # noqa: E731 - timing differs across processes
            {k: v for k, v in row.items() if k != "runtime_sec"} for row in rows
        ]
        assert strip(serial["rows"]) == strip(sharded["rows"])

    def test_timing_sensitive_spec_always_executes_serially(self):
        # The measured runtimes are the result for the runtime figures; the
        # runner must ignore the parallel backend for them.
        spec = tiny_spec(timing_sensitive=True, repetitions=2)
        artifact = run_experiment(spec, backend="process(n_jobs=4)")
        assert artifact["manifest"]["n_jobs"] == 1
        assert artifact["manifest"]["backend"] == "serial"
        assert len(artifact["rows"]) == 2

    def test_max_dims_skips_cell_with_reason(self):
        spec = tiny_spec(methods=(MethodSpec(label="RIS", method="RIS", max_dims=3),))
        artifact = run_experiment(spec)
        assert artifact["rows"][0]["skipped"] is True
        assert "max_dims" in artifact["rows"][0]["reason"]

    def test_skip_serves_from_cache_under_each_experiments_labels(self, tmp_path):
        # The cached payload carries no identity: an identical cell of a
        # different experiment must resurface under its own labels.
        cache = ArtifactCache(str(tmp_path / "cache"))
        first = run_experiment(tiny_spec(repetitions=1), cache=cache)
        renamed = tiny_spec(name="tiny2", methods=(MethodSpec(label="other-label", method="LOF"),))
        second = run_experiment(renamed, cache=cache)
        assert second["manifest"]["cache_hits"] == 1
        assert second["rows"][0]["method"] == "other-label"
        assert second["rows"][0]["auc"] == first["rows"][0]["auc"]

    def test_unknown_experiment_name_errors(self):
        with pytest.raises(ParameterError, match="unknown experiment"):
            run_experiment("no_such_fig")

    def test_format_artifact_renders_tables(self):
        artifact = run_experiment(tiny_spec())
        text = format_artifact(artifact)
        assert "tiny test experiment" in text
        assert "LOF" in text


class TestPaperSuiteRegistry:
    def test_all_paper_specs_registered(self):
        names = available_experiments()
        for expected in [f"fig{i:02d}" for i in range(2, 12)]:
            assert expected in names
        assert {
            "ablation_aggregation",
            "ablation_deviation",
            "ablation_pruning",
            "ablation_scorers",
        } <= set(names)

    def test_check_artifact_unknown_name_errors(self):
        with pytest.raises(ParameterError, match="unknown experiment"):
            check_artifact("no_such_fig", {})

    def test_fig02_ci_end_to_end_with_check(self, tmp_path):
        artifact = run_experiment("fig02", profile="ci", artifacts_dir=str(tmp_path))
        check_artifact("fig02", artifact)
        written = json.loads(Path(write_artifact(artifact, str(tmp_path))).read_text())
        assert written["figure"] == "figure-2"

    def test_fig02_hics_search_task_ranks_correlated_pair(self):
        # The end-to-end subspace-search claim of Figure 2: HiCS on the A++B
        # concatenation puts the correlated pair at (or near) the top.
        artifact = run_experiment("fig02_hics", profile="ci")
        check_artifact("fig02_hics", artifact)
        subspaces = [tuple(row["subspace"]) for row in artifact["rows"]]
        assert (2, 3) in subspaces
        # Scores are descending in rank order.
        scores = [row["score"] for row in sorted(artifact["rows"], key=lambda r: r["rank"])]
        assert scores == sorted(scores, reverse=True)


class TestFingerprints:
    def test_dataset_fingerprint_tracks_content(self):
        spec = tiny_spec().datasets[0]
        assert build_dataset(spec).fingerprint() == build_dataset(spec).fingerprint()
        other = DatasetSpec(
            label=spec.label, kind="synthetic", params={**spec.params, "random_state": 9}
        )
        assert build_dataset(other).fingerprint() != build_dataset(spec).fingerprint()

    def test_labels_participate_in_fingerprint(self):
        dataset = build_dataset(tiny_spec().datasets[0])
        fingerprint = dataset.fingerprint()
        dataset.labels[0] = 1 - dataset.labels[0]
        assert dataset.fingerprint() != fingerprint

    def test_config_fingerprint_stability(self):
        assert PipelineConfig().fingerprint() == PipelineConfig().fingerprint()
        assert PipelineConfig().fingerprint() != PipelineConfig(hics_alpha=0.2).fingerprint()
        # Key order inside `extra` must not matter.
        first = PipelineConfig(extra={"a": 1, "b": 2}).fingerprint()
        second = PipelineConfig(extra={"b": 2, "a": 1}).fingerprint()
        assert first == second


class TestEvaluationGridHelpers:
    def test_experiment_result_roundtrip(self):
        result = ExperimentResult(
            method="LOF", dataset="glass", auc=0.75, runtime_sec=0.5,
            metadata={"n_subspaces": np.int64(3), "scores": np.asarray([1.0])},
        )
        payload = json.loads(json.dumps(result.to_dict()))
        rebuilt = ExperimentResult.from_dict(payload)
        assert rebuilt.method == "LOF" and rebuilt.auc == 0.75
        assert payload["metadata"]["n_subspaces"] == 3
        assert payload["metadata"]["scores"] == [1.0]

    def test_series_from_rows_averages_repetitions(self):
        rows = [
            {"method": "A", "dataset": "10", "auc": 0.6},
            {"method": "A", "dataset": "10", "auc": 0.8},
            {"method": "A", "dataset": "20", "auc": 0.9},
            {"method": "B", "dataset": "10", "auc": 0.5},
            {"skipped": True, "method": "B"},
        ]
        series = series_from_rows(rows, x="dataset", y="auc", by="method")
        assert series["A"] == {"10": pytest.approx(0.7), "20": 0.9}
        assert series["B"] == {"10": 0.5}

    def test_sweep_points_from_rows(self):
        rows = [
            {"sweep_value": 10, "auc": 0.8, "runtime_sec": 1.0},
            {"sweep_value": 10, "auc": 0.6, "runtime_sec": 3.0},
            {"sweep_value": 5, "auc": 0.9, "runtime_sec": 0.5},
            {"no_sweep": True},
        ]
        points = sweep_points_from_rows(rows)
        assert [p.value for p in points] == [5, 10]
        assert points[1].auc_mean == pytest.approx(0.7)
        assert points[1].runtime_mean == pytest.approx(2.0)
