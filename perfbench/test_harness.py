"""Tests of the benchmark harness's own logic (not of the library).

Run with ``PYTHONPATH=src python -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np
import pytest

from perfbench.layers import PER_LAYER, install, layer_metrics
from perfbench.run import END_TO_END, ROOT, WORKLOADS
from perfbench.serve_load import traffic
from perfbench.stats import open_loop_schedule, percentile
from perfbench.tracer import Patcher, Span, Tracer, layer_totals, self_times


def _span(span_id, name, start, end, parent=None, phase="measure"):
    return Span(span_id, name, start, end, parent, 0, phase)


class TestSelfTime:
    def test_nested_and_overlapping_children(self):
        spans = [
            _span(1, "fit", 0.0, 10.0),
            _span(2, "slice", 1.0, 4.0, parent=1),
            _span(3, "moments", 3.0, 6.0, parent=1),
            _span(4, "pvalue", 2.0, 3.0, parent=2),
            # A child outliving its parent only covers the parent's interval.
            _span(5, "prune", 9.0, 12.0, parent=1),
        ]
        own = self_times(spans)
        assert own[1] == pytest.approx(10.0 - 5.0 - 1.0)
        assert own[2] == pytest.approx(2.0)
        assert own[3] == pytest.approx(3.0)
        assert own[4] == pytest.approx(1.0)
        assert own[5] == pytest.approx(3.0)

    def test_same_name_nesting_counts_once_and_passes_divide_measured_spans(self):
        spans = [
            _span(1, "knn", 0.0, 4.0),
            _span(2, "knn", 1.0, 2.0, parent=1),
            _span(3, "spill", 0.0, 3.0, phase="setup"),
        ]
        totals = layer_totals(spans, passes=2)
        assert totals["knn"][0] == pytest.approx(2.0)
        assert totals["knn"][1] == pytest.approx((3.0 + 1.0) / 2)
        assert totals["spill"] == pytest.approx((3.0, 3.0))

    def test_tracer_records_parent_links(self):
        tracer = Tracer("t")
        tracer.call("outer", lambda: tracer.call("inner", lambda: 1, (), {}), (), {})
        inner, outer = tracer.spans
        assert inner.parent == outer.span_id and outer.parent is None
        assert tracer.to_chrome()[0]["ph"] == "X"


class TestPatcher:
    def test_uninstall_restores_every_patched_attribute(self):
        from repro.pipeline.pipeline import SubspaceOutlierPipeline

        tracer, patcher = Tracer("t"), Patcher()
        install(tracer, patcher)
        originals = patcher.patched
        assert len(originals) >= 30
        for owner, name, raw in originals:
            assert vars(owner)[name] is not raw
        assert isinstance(vars(SubspaceOutlierPipeline)["load"], classmethod)
        patcher.uninstall()
        for owner, name, raw in originals:
            assert vars(owner)[name] is raw

    def test_wrapped_call_is_traced_and_unwrapped_call_is_not(self):
        import repro.subspaces.hics as hics_mod
        from repro.types import ScoredSubspace, Subspace

        scored = [ScoredSubspace(Subspace((0, 1)), 0.5), ScoredSubspace(Subspace((0, 1, 2)), 0.7)]
        tracer, patcher = Tracer("t"), Patcher()
        install(tracer, patcher)
        try:
            traced = hics_mod.prune_redundant_subspaces(scored)
        finally:
            patcher.uninstall()
        assert [s.name for s in tracer.spans] == ["subspaces.prune"]
        assert hics_mod.prune_redundant_subspaces(scored) == traced
        assert len(tracer.spans) == 1

    def test_metric_lists_match_benchmark_json(self):
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
            contract = json.load(handle)
        assert [(m["name"], m["unit"]) for m in contract["per_layer"]] == [
            (name, unit) for name, unit, _source, _moves in PER_LAYER
        ]
        assert [(m["name"], m["unit"]) for m in contract["end_to_end"]] == list(END_TO_END)
        assert [w["name"] for w in contract["workloads"]] == list(WORKLOADS)


class TestPercentile:
    def test_reports_value_and_sample_count(self):
        assert percentile(list(range(1, 1001)), 99) == (990.0, 1000)
        assert percentile(list(range(20)), 50) == (9.0, 20)

    @pytest.mark.parametrize("n, q", [(999, 99), (19, 50), (0, 50)])
    def test_refuses_fewer_than_ten_samples_beyond(self, n, q):
        with pytest.raises(ValueError, match="at least 10"):
            percentile(list(range(n)), q)

    def test_layer_p99_reads_zero_when_unused_and_nan_when_too_short(self):
        payload = Tracer("t").payload()
        assert layer_metrics([payload], 1, {})["parallel.writer_wait_p99_ms"] == 0.0
        payload["samples"]["parallel.writer_wait_ms"] = [1.0] * 50
        assert math.isnan(layer_metrics([payload], 1, {})["parallel.writer_wait_p99_ms"])


class TestOpenLoopSchedule:
    def test_identical_for_a_seed(self):
        assert np.array_equal(open_loop_schedule(7, 80.0, 15), open_loop_schedule(7, 80.0, 15))
        first, second = traffic(7, 15, 128), traffic(7, 15, 128)
        assert all(np.array_equal(first[k], second[k]) for k in first)

    def test_differs_across_seeds_and_has_a_fixed_count(self):
        a, b = open_loop_schedule(7, 80.0, 15), open_loop_schedule(8, 80.0, 15)
        assert not np.array_equal(a, b)
        assert a.size == b.size == 1200
        assert np.all(np.diff(a) >= 0) and 0.0 <= a[0] and a[-1] < 15.0
