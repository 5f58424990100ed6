"""Tests for the consolidated benchmark reporting subsystem.

Covers the four layers end to end: the gate registry (metric-path
resolution, directions, overrides, suite evaluation), the run-record schema
(round-trip over every checked-in ``BENCH_*.json`` shape plus the lint and
summary shapes), the append-only history store (idempotent collection,
per-gate series), regression detection over a synthetic three-run history,
the markdown/HTML renderers, and the ``repro-hics report`` CLI exit codes —
including the contract that ``report check`` exits 1 on a doctored
regression.
"""

import copy
import json
import os

import pytest

from repro.cli import main
from repro.exceptions import ParameterError
from repro.reporting import (
    MISSING,
    GateEvaluationError,
    GateResult,
    GateSpec,
    HistoryStore,
    RunRecord,
    SchemaError,
    available_gates,
    available_suites,
    detect_regressions,
    evaluate_gate,
    evaluate_suite,
    gates_for_suite,
    get_gate,
    ingest_file,
    ingest_payload,
    load_history,
    register_gate,
    render_html,
    render_markdown,
    resolve_metric,
)

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Every checked-in benchmark payload and the suite its gates belong to.
BENCH_FILES = {
    "BENCH_contrast.json": "contrast",
    "BENCH_scoring.json": "scoring",
    "BENCH_serving.json": "serving",
    "BENCH_scale.json": "scale",
    "BENCH_scale_1m.json": "scale_1m",
}

STAMP = "2026-08-08T00:00:00+00:00"


def bench_path(name):
    return os.path.join(REPO_ROOT, name)


def load_bench(name):
    with open(bench_path(name), encoding="utf-8") as handle:
        return json.load(handle)


# ------------------------------------------------------------------ registry


class TestGateRegistry:
    def test_every_legacy_threshold_is_registered(self):
        names = set(available_gates())
        assert {
            "contrast_search_50d_sec",
            "contrast_amortisation_spawn",
            "contrast_amortisation_fork",
            "scoring_independent_speedup",
            "serving_speedup",
            "serving_p50_ms",
            "serving_p99_ms",
            "scale_total_sec",
            "scale_peak_rss_mb",
            "smoke_parallel_speedup",
            "figures_warm_hit_rate",
            "lint_active_findings",
        } <= names

    def test_suites_cover_every_artifact_flavour(self):
        assert {
            "contrast",
            "scoring",
            "serving",
            "scale",
            "perf-smoke-contrast",
            "perf-smoke-scoring",
            "perf-smoke-parallel",
            "figure-suite",
            "lint",
            "figure-summary",
        } <= set(available_suites())

    def test_duplicate_registration_is_an_error(self):
        spec = get_gate("serving_speedup")
        with pytest.raises(ParameterError, match="already registered"):
            register_gate(spec)
        # overwrite=True replaces in place (and keeps the registry unchanged
        # when re-registering the identical spec).
        assert register_gate(spec, overwrite=True) is spec

    def test_unknown_gate_is_an_error(self):
        with pytest.raises(ParameterError, match="unknown gate"):
            get_gate("no_such_gate")

    def test_spec_validation(self):
        with pytest.raises(ParameterError, match="direction"):
            GateSpec(name="g", suite="s", metric="m", direction="sideways")
        with pytest.raises(ParameterError, match="needs a threshold"):
            GateSpec(name="g", suite="s", metric="m", direction="min")
        with pytest.raises(ParameterError, match="tolerance"):
            GateSpec(
                name="g", suite="s", metric="m", direction="bool", tolerance=-1.0
            )

    def test_resolve_metric_paths(self):
        payload = {
            "a": {"b": 1.5},
            "rows": [{"name": "x", "v": 1}, {"name": "y", "v": 2}],
        }
        assert resolve_metric(payload, "a.b") == 1.5
        assert resolve_metric(payload, "rows[1].v") == 2
        assert resolve_metric(payload, "rows[name=y].v") == 2
        assert resolve_metric(payload, "a.missing") is MISSING
        assert resolve_metric(payload, "rows[name=z].v") is MISSING
        assert resolve_metric(payload, "rows[7].v") is MISSING

    def test_evaluate_gate_directions_and_override(self):
        spec = get_gate("serving_p50_ms")  # max 36.9
        ok = evaluate_gate(spec, {"acceptance": {"measured_p50_ms": 20.0}})
        assert ok.passed and ok.threshold == 36.9
        tight = evaluate_gate(
            spec, {"acceptance": {"measured_p50_ms": 20.0}}, threshold=10.0
        )
        assert not tight.passed
        assert tight.threshold == 10.0  # the bar actually used is recorded

    def test_evaluate_gate_missing_metric(self):
        strict = get_gate("serving_p50_ms")
        with pytest.raises(GateEvaluationError, match="does not resolve"):
            evaluate_gate(strict, {})
        lenient = get_gate("smoke_parallel_speedup")  # skip_if_missing
        result = evaluate_gate(lenient, {})
        assert result.skipped and result.passed and result.value is None

    def test_evaluate_gate_non_numeric_metric(self):
        spec = get_gate("scale_total_sec")
        with pytest.raises(GateEvaluationError, match="non-numeric"):
            evaluate_gate(spec, {"total_sec": "fast"})

    def test_evaluate_suite_rejects_unknowns(self):
        with pytest.raises(ParameterError, match="no gates registered"):
            evaluate_suite("no-such-suite", {})
        with pytest.raises(ParameterError, match="unknown gates"):
            evaluate_suite(
                "scale",
                {"total_sec": 1.0, "peak_rss_mb": 1.0},
                thresholds={"renamed_gate": 1.0},
            )


# ------------------------------------------------------- parity with legacy


class TestRegistryParity:
    @pytest.mark.parametrize("name,suite", sorted(BENCH_FILES.items()))
    def test_embedded_gates_match_fresh_evaluation(self, name, suite):
        """The rows the harness embedded == re-evaluating the payload now.

        This is the byte-identical pass/fail contract: rebasing the scripts
        onto the registry must not change any decision on the checked-in
        payloads (the harness ran with default thresholds, so a fresh
        evaluation reproduces every row exactly).
        """
        payload = load_bench(name)
        embedded = [GateResult.from_dict(row) for row in payload["gates"]]
        fresh = evaluate_suite(suite, payload)
        assert [g.to_dict() for g in embedded] == [g.to_dict() for g in fresh]
        assert all(gate.passed for gate in embedded), name

    def test_serving_acceptance_booleans_agree_with_gates(self):
        payload = load_bench("BENCH_serving.json")
        by_name = {row["name"]: row["passed"] for row in payload["gates"]}
        acceptance = payload["acceptance"]
        assert acceptance["meets_speedup"] == by_name["serving_speedup"]
        assert acceptance["meets_p50"] == by_name["serving_p50_ms"]
        assert acceptance["meets_p99"] == by_name["serving_p99_ms"]

    def test_scripts_default_to_registered_thresholds(self):
        # The argparse defaults read from the registry; spot-check the bars
        # the legacy scripts used to hard-code.
        assert get_gate("contrast_search_50d_sec").threshold == 0.41
        assert get_gate("serving_speedup").threshold == 2.0
        assert get_gate("serving_p50_ms").threshold == 36.9
        assert get_gate("serving_p99_ms").threshold == 55.1
        assert get_gate("scale_total_sec").threshold == 8.2
        assert get_gate("scale_peak_rss_mb").threshold == 142.0
        assert get_gate("scale_1m_total_sec").threshold == 81.0
        assert get_gate("scale_1m_peak_rss_mb").threshold == 978.0
        assert get_gate("figures_warm_hit_rate").threshold == 0.9


# -------------------------------------------------------------------- schema


class TestSchema:
    @pytest.mark.parametrize("name,suite", sorted(BENCH_FILES.items()))
    def test_round_trip_every_checked_in_payload(self, name, suite):
        record = ingest_file(bench_path(name), git_sha="abc123", timestamp=STAMP)
        assert record.suite == suite
        assert record.source == name
        assert record.git_sha == "abc123"
        assert record.timestamp == STAMP
        assert record.environment["python"]
        assert record.environment["numpy"]
        assert record.gates and record.passed
        # every gate value is surfaced as a flat metric keyed by gate name
        assert set(record.metrics) == {gate.name for gate in record.gates}
        again = RunRecord.from_dict(record.to_dict())
        assert again.to_dict() == record.to_dict()
        assert again.key() == (suite, "abc123", STAMP)

    def test_required_bench_keys_enforced(self):
        payload = load_bench("BENCH_scale.json")
        del payload["gates"]
        with pytest.raises(SchemaError, match="'gates'"):
            ingest_payload(payload, source="BENCH_scale.json")

    def test_unknown_benchmark_name_rejected(self):
        payload = load_bench("BENCH_scale.json")
        payload["benchmark"] = "mystery"
        with pytest.raises(SchemaError, match="unknown benchmark"):
            ingest_payload(payload)

    def test_unrecognised_shape_rejected(self):
        with pytest.raises(SchemaError, match="unrecognised payload shape"):
            ingest_payload({"hello": "world"})

    def test_lint_findings_shape(self):
        payload = {
            "tool": "repro-hics lint",
            "summary": {"active": 0, "suppressed": 3},
            "python": "3.12",
        }
        record = ingest_payload(payload, git_sha="abc", timestamp=STAMP)
        assert record.suite == "lint"
        assert record.passed
        payload["summary"]["active"] = 2
        assert not ingest_payload(payload, git_sha="abc", timestamp=STAMP).passed

    def test_bench_summary_shape(self):
        payload = {
            "experiments": ["fig04"],
            "cache_hits": 10,
            "cache_misses": 0,
            "lint_findings": 0,
        }
        record = ingest_payload(payload, git_sha="abc", timestamp=STAMP)
        assert record.suite == "figure-summary"
        assert record.passed


# ------------------------------------------------------------------- history


class TestHistoryStore:
    def test_append_is_idempotent(self, tmp_path):
        path = str(tmp_path / "history.jsonl")
        store = HistoryStore(path)
        record = ingest_file(
            bench_path("BENCH_scale.json"), git_sha="abc", timestamp=STAMP
        )
        assert store.append(record) is True
        assert store.append(record) is False
        assert store.extend([record]) == 0
        assert len(load_history(path)) == 1

    def test_series_is_chronological(self, tmp_path):
        path = str(tmp_path / "history.jsonl")
        store = HistoryStore(path)
        for day, sha in ((2, "b"), (1, "a"), (3, "c")):
            record = ingest_file(
                bench_path("BENCH_scale.json"),
                git_sha=sha,
                timestamp=f"2026-08-0{day}T00:00:00+00:00",
            )
            store.append(record)
        series = store.series("scale", "scale_total_sec")
        assert [stamp[8:10] for stamp, _ in series] == ["01", "02", "03"]
        assert store.suites() == ["scale"]

    def test_corrupt_line_raises(self, tmp_path):
        path = tmp_path / "history.jsonl"
        path.write_text("{not json}\n")
        with pytest.raises(SchemaError, match="corrupt history line"):
            load_history(str(path))


# ---------------------------------------------------------------- regression


def synthetic_record(value, *, timestamp, passed=None, threshold=200.0):
    """A one-gate 'max' suite run (latency-style: lower is better)."""
    gate = GateResult(
        name="synthetic_latency",
        suite="synthetic",
        metric="latency_ms",
        direction="max",
        threshold=threshold,
        value=value,
        passed=(value <= threshold) if passed is None else passed,
    )
    return RunRecord(
        suite="synthetic",
        benchmark="synthetic",
        source="synthetic.json",
        git_sha="s" * 8,
        timestamp=timestamp,
        environment={},
        metrics={gate.name: gate.value},
        gates=[gate],
    )


class TestRegressionDetection:
    def test_three_run_history(self):
        # improvement -> within tolerance -> out-of-tolerance regression
        runs = [
            synthetic_record(100.0, timestamp="2026-08-01T00:00:00+00:00"),
            synthetic_record(98.0, timestamp="2026-08-02T00:00:00+00:00"),
            synthetic_record(99.0, timestamp="2026-08-03T00:00:00+00:00"),
        ]
        # latest vs previous: 98 -> 99 is ~1%, inside the 5% default
        assert detect_regressions(runs) == []
        runs.append(synthetic_record(150.0, timestamp="2026-08-04T00:00:00+00:00"))
        callouts = detect_regressions(runs)
        assert [c.kind for c in callouts] == ["regression"]
        assert callouts[0].gate == "synthetic_latency"
        assert callouts[0].previous == 99.0 and callouts[0].value == 150.0
        # the gate still passes: only the tolerance tripped
        assert "worsened" in callouts[0].message

    def test_tolerance_override(self):
        runs = [
            synthetic_record(100.0, timestamp="2026-08-01T00:00:00+00:00"),
            synthetic_record(106.0, timestamp="2026-08-02T00:00:00+00:00"),
        ]
        assert detect_regressions(runs, tolerance=0.10) == []
        assert [c.kind for c in detect_regressions(runs, tolerance=0.01)] == [
            "regression"
        ]

    def test_hard_failure_beats_tolerance(self):
        runs = [
            synthetic_record(100.0, timestamp="2026-08-01T00:00:00+00:00"),
            synthetic_record(250.0, timestamp="2026-08-02T00:00:00+00:00"),
        ]
        callouts = detect_regressions(runs)
        assert [c.kind for c in callouts] == ["gate_failure"]
        assert "FAILED" in callouts[0].message

    def test_only_latest_run_is_gated(self):
        # an old failure followed by a recovery must not fail the report
        runs = [
            synthetic_record(250.0, timestamp="2026-08-01T00:00:00+00:00"),
            synthetic_record(60.0, timestamp="2026-08-02T00:00:00+00:00"),
        ]
        callouts = detect_regressions(runs)
        # 250 -> 60 is an *improvement* for a max gate; nothing to report
        assert callouts == []


# ------------------------------------------------------------------- render


class TestRender:
    def all_records(self):
        return [
            ingest_file(bench_path(name), git_sha="abc123def456", timestamp=STAMP)
            for name in sorted(BENCH_FILES)
        ]

    def test_markdown_one_row_per_gate(self):
        records = self.all_records()
        report = render_markdown(records)
        assert report.startswith("# Benchmark report")
        n_gates = sum(len(record.gates) for record in records)
        for record in records:
            assert f"## `{record.suite}`" in report
            for gate in record.gates:
                assert f"| {gate.name} |" in report
        assert f"{n_gates} gates" in report
        assert "FAIL" not in report
        assert "Regression call-outs" not in report

    def test_markdown_flags_failures(self):
        runs = [synthetic_record(250.0, timestamp=STAMP)]
        report = render_markdown(runs)
        assert "**FAIL**" in report and "Regression call-outs" in report

    def test_markdown_empty_history(self):
        assert "No runs collected yet" in render_markdown([])

    def test_html_sparklines_need_two_runs(self):
        one = [synthetic_record(100.0, timestamp="2026-08-01T00:00:00+00:00")]
        page = render_html(one)
        assert "<svg" not in page
        two = one + [synthetic_record(102.0, timestamp="2026-08-02T00:00:00+00:00")]
        page = render_html(two)
        assert page.count("<svg") == 1
        assert "polyline" in page and "#2da44e" in page

    def test_html_is_self_contained(self):
        page = render_html(self.all_records())
        assert page.startswith("<!DOCTYPE html>")
        assert "<style>" in page
        assert "http://" not in page and "https://" not in page  # no external deps
        for token in ("<table>", "class=\"pass\""):
            assert token in page


# ----------------------------------------------------------------------- cli


class TestReportCli:
    def collect(self, history, *paths, timestamp=STAMP):
        return main(
            [
                "report",
                "collect",
                *paths,
                "--history",
                history,
                "--git-sha",
                "abc123",
                "--timestamp",
                timestamp,
            ]
        )

    def test_collect_render_check_happy_path(self, tmp_path, capsys):
        history = str(tmp_path / "history.jsonl")
        paths = [bench_path(name) for name in sorted(BENCH_FILES)]
        assert self.collect(history, *paths) == 0
        out = capsys.readouterr().out
        assert "collected 5 record(s) (5 new, 0 already recorded, 0 skipped)" in out

        # idempotent re-collection
        assert self.collect(history, *paths) == 0
        assert "(0 new, 5 already recorded" in capsys.readouterr().out

        out_md = str(tmp_path / "report.md")
        assert main(["report", "render", "--history", history, "--out", out_md]) == 0
        with open(out_md, encoding="utf-8") as handle:
            report = handle.read()
        assert "| serving_p50_ms |" in report

        assert main(["report", "check", "--history", history]) == 0
        assert "ok: all gates passing" in capsys.readouterr().out

    def test_collect_directory_and_skips(self, tmp_path, capsys):
        incoming = tmp_path / "incoming" / "scale-bench"
        incoming.mkdir(parents=True)
        with open(bench_path("BENCH_scale.json"), encoding="utf-8") as handle:
            (incoming / "BENCH_scale.json").write_text(handle.read())
        # an unrelated artifact in the same directory tree is skipped, not fatal
        (incoming / "coverage.json").write_text('{"lines": 97}')
        history = str(tmp_path / "history.jsonl")
        assert self.collect(history, str(tmp_path / "incoming")) == 0
        captured = capsys.readouterr()
        assert "(1 new, 0 already recorded, 1 skipped)" in captured.out
        assert "coverage.json" in captured.err

    def test_collect_nothing_recognisable_exits_2(self, tmp_path, capsys):
        empty = tmp_path / "incoming"
        empty.mkdir()
        history = str(tmp_path / "history.jsonl")
        assert self.collect(history, str(empty)) == 2
        assert "no recognisable benchmark payloads" in capsys.readouterr().err

    def test_render_without_input_exits_2(self, capsys):
        assert main(["report", "render"]) == 2
        assert "nothing to render" in capsys.readouterr().err

    def test_check_fails_on_doctored_regression(self, tmp_path, capsys):
        history = str(tmp_path / "history.jsonl")
        assert self.collect(history, bench_path("BENCH_serving.json")) == 0

        # Second run: p50 worsened 10x but still under the 150 ms bar.
        doctored = load_bench("BENCH_serving.json")
        p50 = doctored["acceptance"]["measured_p50_ms"]
        worse = round(min(p50 * 10.0, 140.0), 3)
        doctored["acceptance"]["measured_p50_ms"] = worse
        for row in doctored["gates"]:
            if row["name"] == "serving_p50_ms":
                row["value"] = worse
        path = tmp_path / "BENCH_serving.json"
        path.write_text(json.dumps(doctored))
        assert (
            self.collect(history, str(path), timestamp="2026-08-09T00:00:00+00:00")
            == 0
        )
        capsys.readouterr()

        assert main(["report", "check", "--history", history]) == 1
        err = capsys.readouterr().err
        assert "serving/serving_p50_ms" in err and "worsened" in err
        assert "FAIL: 0 failing gate(s), 1 regression(s)" in err

        # a generous tolerance lets the same history pass again
        assert (
            main(["report", "check", "--history", history, "--tolerance", "50"]) == 0
        )

    def test_check_fails_on_doctored_gate_failure(self, tmp_path, capsys):
        doctored = load_bench("BENCH_scale.json")
        doctored["total_sec"] = 9999.0
        for row in doctored["gates"]:
            if row["name"] == "scale_total_sec":
                row["value"] = 9999.0
                row["passed"] = False
        path = tmp_path / "BENCH_scale.json"
        path.write_text(json.dumps(doctored))
        history = str(tmp_path / "history.jsonl")
        assert self.collect(history, str(path)) == 0
        capsys.readouterr()
        assert main(["report", "check", "--history", history]) == 1
        err = capsys.readouterr().err
        assert "scale/scale_total_sec: FAILED" in err
        assert "1 failing gate(s)" in err

    def test_check_without_input_exits_2(self, capsys):
        assert main(["report", "check"]) == 2
        assert "nothing to check" in capsys.readouterr().err

    def test_render_adhoc_payloads_without_history(self, tmp_path, capsys):
        paths = [bench_path(name) for name in sorted(BENCH_FILES)]
        assert main(["report", "render", *paths]) == 0
        out = capsys.readouterr().out
        assert "# Benchmark report" in out
        assert "5 suites" in out

    def test_copy_of_payload_keeps_gate_rows_intact(self, tmp_path):
        # guard against the collector mutating payloads it ingests
        payload = load_bench("BENCH_serving.json")
        snapshot = copy.deepcopy(payload)
        ingest_payload(payload, git_sha="abc", timestamp=STAMP)
        assert payload == snapshot
