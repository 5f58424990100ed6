"""Gate registry: every benchmark pass/fail threshold, declared in one place.

Before this module, each benchmark harness hard-coded its own acceptance
logic: ``run_all.py`` compared speedups inline, ``serving_load.py`` carried
latency bounds in argparse defaults, ``scale_bench.py`` owned its RSS limit,
``perf_smoke.py`` and ``check_figure_suite.py`` each re-implemented the same
"measured vs required" comparisons.  Changing a threshold meant hunting
through five scripts; the CI report had no way to enumerate what is gated.

This registry mirrors the component registry in :mod:`repro.registry`: a
:class:`GateSpec` declares *where* a metric lives in a benchmark payload
(a dotted path such as ``"acceptance.measured_speedup"`` with optional
``[index]`` / ``[key=value]`` list selectors), *which direction* is good
(``min`` — at least the threshold, ``max`` — at most, ``bool`` — must be
truthy), the *threshold* itself, and the relative *tolerance* the report
renderer uses for regression call-outs.  Benchmark scripts evaluate their
suite with :func:`evaluate_suite` and embed the resulting
:class:`GateResult` rows in their payload under the ``"gates"`` key; the
reporting collector (:mod:`repro.reporting.schema`) ingests those rows so a
gate added here shows up in the CI trend report automatically.

Runtime-configurable thresholds (CLI flags, host-dependent bars) default to
the registered value and may be overridden per evaluation — the override is
recorded in the result, so the payload always documents the bar it was
actually held to.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Mapping, Optional, Union

from ..exceptions import ParameterError, ReproError

__all__ = [
    "GateSpec",
    "GateResult",
    "GateEvaluationError",
    "register_gate",
    "get_gate",
    "available_gates",
    "gates_for_suite",
    "available_suites",
    "resolve_metric",
    "evaluate_gate",
    "evaluate_suite",
    "MISSING",
]


class GateEvaluationError(ReproError):
    """Raised when a payload cannot satisfy a gate's metric path."""


class _Missing:
    """Sentinel for a metric path that does not resolve in a payload."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<missing>"


MISSING = _Missing()

#: ``a.b[0].c`` / ``a[key=value].b`` path segments.
_SEGMENT = re.compile(r"([A-Za-z0-9_-]+)((?:\[[^\]]+\])*)$")
_SELECTOR = re.compile(r"\[([^\]]+)\]")


@dataclass(frozen=True)
class GateSpec:
    """Declaration of one benchmark gate.

    Parameters
    ----------
    name:
        Globally unique gate identifier (``suite_metric`` style).
    suite:
        The benchmark suite the gate belongs to (``contrast``, ``scoring``,
        ``serving``, ``scale``, ``perf-smoke-*``, ``figure-suite``, ``lint``).
    metric:
        Dotted path into the benchmark payload.  Supports ``[N]`` integer
        indexing and ``[key=value]`` selection inside lists, e.g.
        ``"suites[suite=fig5_50d].speedup"``.
    direction:
        ``"min"`` — the value must be at least the threshold, ``"max"`` — at
        most the threshold, ``"bool"`` — the value must be truthy (the
        threshold is ignored).
    threshold:
        The registered default bar.  ``None`` only for ``bool`` gates.
    tolerance:
        Relative worsening of the metric vs the previous run that the report
        flags as a regression even while the gate still passes
        (0.05 == 5%).  ``bool`` metrics regress on any True -> False flip.
    skip_if_missing:
        When True, a missing/None metric marks the gate *skipped* (counts as
        a pass) instead of raising — for host-dependent targets such as the
        spawn start method or multi-core parallel smoke.
    description:
        One line for the report and ``report render`` output.
    """

    name: str
    suite: str
    metric: str
    direction: str
    threshold: Optional[float] = None
    tolerance: float = 0.05
    skip_if_missing: bool = False
    description: str = ""

    def __post_init__(self) -> None:
        if self.direction not in ("min", "max", "bool"):
            raise ParameterError(
                f"gate {self.name!r}: direction must be 'min', 'max' or 'bool', "
                f"got {self.direction!r}"
            )
        if self.direction != "bool" and self.threshold is None:
            raise ParameterError(
                f"gate {self.name!r}: a {self.direction!r} gate needs a threshold"
            )
        if self.tolerance < 0:
            raise ParameterError(f"gate {self.name!r}: tolerance must be >= 0")


@dataclass
class GateResult:
    """Outcome of evaluating one :class:`GateSpec` against a payload."""

    name: str
    suite: str
    metric: str
    direction: str
    threshold: Optional[float]
    value: Union[float, bool, None]
    passed: bool
    skipped: bool = False

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "suite": self.suite,
            "metric": self.metric,
            "direction": self.direction,
            "threshold": self.threshold,
            "value": self.value,
            "passed": self.passed,
            "skipped": self.skipped,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "GateResult":
        try:
            return cls(
                name=str(payload["name"]),
                suite=str(payload["suite"]),
                metric=str(payload["metric"]),
                direction=str(payload["direction"]),
                threshold=payload.get("threshold"),
                value=payload.get("value"),
                passed=bool(payload["passed"]),
                skipped=bool(payload.get("skipped", False)),
            )
        except KeyError as exc:
            raise GateEvaluationError(
                f"gate-result dict is missing required key {exc.args[0]!r}"
            ) from exc


# Name -> spec.  Mirrors repro.registry: registration is explicit, duplicate
# names are an error, and the listing order is insertion order.
_GATES: Dict[str, GateSpec] = {}


def register_gate(spec: GateSpec, *, overwrite: bool = False) -> GateSpec:
    """Register a gate; returns the spec so declarations can be assigned."""
    if not overwrite and spec.name in _GATES:
        raise ParameterError(
            f"gate name {spec.name!r} is already registered; "
            f"pass overwrite=True to replace it"
        )
    _GATES[spec.name] = spec
    return spec


def get_gate(name: str) -> GateSpec:
    try:
        return _GATES[name]
    except KeyError:
        raise ParameterError(
            f"unknown gate {name!r}; registered: {', '.join(sorted(_GATES))}"
        ) from None


def available_gates() -> List[str]:
    return list(_GATES)


def gates_for_suite(suite: str) -> List[GateSpec]:
    return [spec for spec in _GATES.values() if spec.suite == suite]


def available_suites() -> List[str]:
    seen: Dict[str, None] = {}
    for spec in _GATES.values():
        seen.setdefault(spec.suite, None)
    return list(seen)


def _iter_segments(path: str) -> Iterator[str]:
    for segment in path.split("."):
        if not segment:
            raise GateEvaluationError(f"malformed metric path {path!r}")
        yield segment


def resolve_metric(payload: Any, path: str) -> Any:
    """Resolve a dotted metric path; returns :data:`MISSING` when absent.

    ``"a.b"`` walks mappings; ``"a[0]"`` indexes lists; ``"a[key=value]"``
    selects the first list element whose ``key`` field stringifies to
    ``value`` (how per-suite rows are addressed without relying on order).
    """
    node = payload
    for segment in _iter_segments(path):
        match = _SEGMENT.match(segment)
        if match is None:
            raise GateEvaluationError(f"malformed metric path segment {segment!r}")
        key, selectors = match.group(1), match.group(2)
        if not isinstance(node, Mapping) or key not in node:
            return MISSING
        node = node[key]
        for selector in _SELECTOR.findall(selectors):
            if not isinstance(node, list):
                return MISSING
            if "=" in selector:
                field_name, _, wanted = selector.partition("=")
                for element in node:
                    if (
                        isinstance(element, Mapping)
                        and str(element.get(field_name)) == wanted
                    ):
                        node = element
                        break
                else:
                    return MISSING
            else:
                try:
                    node = node[int(selector)]
                except (ValueError, IndexError):
                    return MISSING
    return node


def evaluate_gate(
    spec: GateSpec, payload: Mapping[str, Any], *, threshold: Optional[float] = None
) -> GateResult:
    """Evaluate one gate against a benchmark payload.

    ``threshold`` overrides the registered default (a CLI flag or a
    host-dependent bar); the value actually used is recorded in the result.
    """
    bar = spec.threshold if threshold is None else threshold
    value = resolve_metric(payload, spec.metric)
    if value is MISSING or value is None:
        if spec.skip_if_missing:
            return GateResult(
                name=spec.name,
                suite=spec.suite,
                metric=spec.metric,
                direction=spec.direction,
                threshold=bar,
                value=None,
                passed=True,
                skipped=True,
            )
        raise GateEvaluationError(
            f"gate {spec.name!r}: metric path {spec.metric!r} does not resolve "
            f"in the payload"
        )
    if spec.direction == "bool":
        passed = bool(value)
    else:
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise GateEvaluationError(
                f"gate {spec.name!r}: metric {spec.metric!r} resolved to "
                f"non-numeric {value!r}"
            )
        assert bar is not None  # __post_init__ guarantees it for min/max
        passed = value >= bar if spec.direction == "min" else value <= bar
    return GateResult(
        name=spec.name,
        suite=spec.suite,
        metric=spec.metric,
        direction=spec.direction,
        threshold=bar,
        value=value,
        passed=passed,
    )


def evaluate_suite(
    suite: str,
    payload: Mapping[str, Any],
    *,
    thresholds: Optional[Mapping[str, float]] = None,
) -> List[GateResult]:
    """Evaluate every gate registered for ``suite`` against ``payload``.

    ``thresholds`` maps gate names to override bars; unknown names are an
    error so a renamed gate cannot silently lose its override.
    """
    specs = gates_for_suite(suite)
    if not specs:
        raise ParameterError(
            f"no gates registered for suite {suite!r}; "
            f"registered suites: {', '.join(available_suites())}"
        )
    overrides = dict(thresholds or {})
    known = {spec.name for spec in specs}
    unknown = set(overrides) - known
    if unknown:
        raise ParameterError(
            f"threshold overrides for unknown gates: {sorted(unknown)}"
        )
    return [
        evaluate_gate(spec, payload, threshold=overrides.get(spec.name))
        for spec in specs
    ]


# --------------------------------------------------------------------------
# The registered gates.  These declarations are the single source of truth
# for every benchmark threshold in the repository: the benchmark scripts
# read their argparse defaults from here and evaluate through
# evaluate_suite(), so editing a bar below changes the script, the payload
# and the CI report together.
# --------------------------------------------------------------------------

# BENCH_contrast.json (benchmarks/run_all.py, contrast family)
register_gate(GateSpec(
    name="contrast_search_50d_sec",
    suite="contrast",
    metric="suites[suite=fig5_50d].wall_time_sec",
    direction="max",
    threshold=0.41,  # slowest best-of-three run on a shared 2-core x86-64 host (0.354 s) + 15%
    tolerance=0.15,
    description="50-d contrast search suite wall time (s)",
))
register_gate(GateSpec(
    name="contrast_tall_sec",
    suite="contrast",
    metric="tall.wall_time_sec",
    direction="max",
    threshold=1.75,  # slowest of three runs on a shared 2-core x86-64 host (1.519 s) + 15%
    tolerance=0.15,
    description="every subspace of a 150,000x6 dataset, serial, in memory, wall time (s)",
))
register_gate(GateSpec(
    name="contrast_amortisation_spawn",
    suite="contrast",
    metric="parallel.strategies[start_method=spawn].persistent_vs_per_level",
    direction="min",
    threshold=1.1,
    tolerance=0.15,
    skip_if_missing=True,
    description="persistent pool vs per-level pools under spawn (startup amortised)",
))
register_gate(GateSpec(
    name="contrast_amortisation_fork",
    suite="contrast",
    metric="parallel.strategies[start_method=fork].persistent_vs_per_level",
    direction="min",
    threshold=0.9,
    tolerance=0.15,
    skip_if_missing=True,
    description="persistent pool must not lose to per-level pools under fork",
))
register_gate(GateSpec(
    name="contrast_parallel_identical",
    suite="contrast",
    metric="acceptance.parallel_results_identical",
    direction="bool",
    description="every parallel strategy reproduces the serial search bit for bit",
))

# BENCH_scoring.json (benchmarks/run_all.py, scoring family)
register_gate(GateSpec(
    name="scoring_rank_speedup",
    suite="scoring",
    metric="suites[suite=rank_multisubspace].speedup",
    direction="min",
    threshold=1.0,
    tolerance=0.15,
    description="shared engine must not regress one-shot multi-subspace ranking",
))
register_gate(GateSpec(
    name="scoring_joint_speedup",
    suite="scoring",
    metric="suites[suite=stream_joint].speedup",
    direction="min",
    threshold=1.0,
    tolerance=0.15,
    description="shared engine must not regress joint streaming scoring",
))
register_gate(GateSpec(
    name="scoring_independent_speedup",
    suite="scoring",
    metric="suites[suite=stream_independent].speedup",
    direction="min",
    threshold=3.0,
    tolerance=0.25,
    description="shared engine speedup on independent streaming (the serving path)",
))
register_gate(GateSpec(
    name="scoring_rank_traced_peak_mb",
    suite="scoring",
    metric="rank_traced_peak_mb",
    direction="max",
    threshold=1.75,  # largest of three runs (1.52 MB, each run alike) + 15%
    tolerance=0.15,
    description="tracemalloc peak of one shared multi-subspace rank (MiB)",
))
register_gate(GateSpec(
    name="scoring_engines_identical",
    suite="scoring",
    metric="acceptance.all_engines_identical",
    direction="bool",
    description="shared and per-subspace engines agree bit for bit on every suite",
))

# BENCH_serving.json (benchmarks/serving_load.py)
register_gate(GateSpec(
    name="serving_speedup",
    suite="serving",
    metric="acceptance.measured_speedup",
    direction="min",
    threshold=2.0,
    tolerance=0.15,
    description="micro-batched throughput over the naive per-request configuration",
))
register_gate(GateSpec(
    name="serving_p50_ms",
    suite="serving",
    metric="acceptance.measured_p50_ms",
    direction="max",
    threshold=36.9,
    tolerance=0.25,
    description="batched p50 request latency bound (ms)",
))
register_gate(GateSpec(
    name="serving_p99_ms",
    suite="serving",
    metric="acceptance.measured_p99_ms",
    direction="max",
    threshold=55.1,
    tolerance=0.25,
    description="batched p99 request latency bound (ms)",
))
register_gate(GateSpec(
    name="serving_bit_identical",
    suite="serving",
    metric="acceptance.all_scores_bit_identical",
    direction="bool",
    description="every served score equals the offline independent-scoring reference",
))
register_gate(GateSpec(
    name="serving_micro_batching",
    suite="serving",
    metric="acceptance.micro_batching_observed",
    direction="bool",
    description="at least one request was coalesced into a micro-batch",
))

# BENCH_scale.json (benchmarks/scale_bench.py)
register_gate(GateSpec(
    name="scale_total_sec",
    suite="scale",
    metric="total_sec",
    direction="max",
    # 3x the slowest of three runs (2.15-2.72 s, rank 1.4-1.6 s) on a shared
    # 2-vCPU Linux VM.
    threshold=8.2,
    tolerance=0.25,
    description="100k-row suite total wall time (s)",
))
register_gate(GateSpec(
    name="scale_peak_rss_mb",
    suite="scale",
    metric="peak_rss_mb",
    direction="max",
    # 1.5x the peak of the same three runs (94.4 MB each).
    threshold=142.0,
    tolerance=0.15,
    description="100k-row suite lifetime peak RSS (MiB)",
))

# BENCH_scale.json (benchmarks/scale_bench.py --profile 1m): out-of-core cell.
register_gate(GateSpec(
    name="scale_1m_total_sec",
    suite="scale_1m",
    metric="total_sec",
    direction="max",
    # 3x the slowest of three runs (26.5-27.0 s, exact rank 21.7-22.1 s) on a
    # shared 2-vCPU Linux VM.
    threshold=81.0,
    tolerance=0.25,
    description="1M-row memmap suite total wall time (s)",
))
register_gate(GateSpec(
    name="scale_1m_peak_rss_mb",
    suite="scale_1m",
    metric="peak_rss_mb",
    direction="max",
    # 1.5x the peak of the same three runs (652.0 MB).
    threshold=978.0,
    tolerance=0.15,
    description="1M-row memmap suite lifetime peak RSS (MiB)",
))

# benchmarks/perf_smoke.py — per-target CI smoke payloads.
register_gate(GateSpec(
    name="smoke_contrast_sec",
    suite="perf-smoke-contrast",
    metric="wall_time_sec",
    direction="max",
    threshold=0.056,  # slowest best-of-three run on a shared 2-core x86-64 host (0.0446 s) + 25%
    tolerance=0.25,
    description="one contrast level on the smoke fixture, wall time (s)",
))
register_gate(GateSpec(
    name="smoke_scoring_joint_speedup",
    suite="perf-smoke-scoring",
    metric="joint_speedup",
    direction="min",
    threshold=1.0,
    tolerance=0.25,
    description="shared engine must not lose the joint ranking smoke",
))
register_gate(GateSpec(
    name="smoke_scoring_independent_speedup",
    suite="perf-smoke-scoring",
    metric="independent_speedup",
    direction="min",
    threshold=3.0,
    tolerance=0.25,
    description="shared engine independent-streaming smoke speedup",
))
register_gate(GateSpec(
    name="smoke_scoring_rank_traced_peak_mb",
    suite="perf-smoke-scoring",
    metric="rank_traced_peak_mb",
    direction="max",
    threshold=1.04,  # largest of three runs (0.904 MB, each run alike) + 15%
    tolerance=0.15,
    description="smoke fixture: tracemalloc peak of one shared rank (MiB)",
))
register_gate(GateSpec(
    name="smoke_scoring_identical",
    suite="perf-smoke-scoring",
    metric="engines_identical",
    direction="bool",
    description="smoke fixture: shared and per-subspace scores identical",
))
register_gate(GateSpec(
    name="smoke_parallel_speedup",
    suite="perf-smoke-parallel",
    metric="speedup",
    direction="min",
    threshold=1.5,  # the script relaxes to 1.2 on 2-3 core hosts
    tolerance=0.25,
    skip_if_missing=True,
    description="persistent-pool search speedup over serial (skipped on 1 core)",
))
register_gate(GateSpec(
    name="smoke_parallel_identical",
    suite="perf-smoke-parallel",
    metric="results_identical",
    direction="bool",
    skip_if_missing=True,
    description="parallel search reproduces the serial result bit for bit",
))

# benchmarks/check_figure_suite.py — cold vs warm figure-suite comparison.
register_gate(GateSpec(
    name="figures_artifacts_present",
    suite="figure-suite",
    metric="all_artifacts_present",
    direction="bool",
    description="every registered experiment produced an artifact in both runs",
))
register_gate(GateSpec(
    name="figures_warm_hit_rate",
    suite="figure-suite",
    metric="warm_hit_rate",
    direction="min",
    threshold=0.9,
    tolerance=0.05,
    description="warm re-run artifact-cache hit rate",
))
register_gate(GateSpec(
    name="figures_warm_faster",
    suite="figure-suite",
    metric="warm_faster",
    direction="bool",
    description="warm re-run completed faster than the cold run",
))
register_gate(GateSpec(
    name="figures_artifacts_identical",
    suite="figure-suite",
    metric="artifacts_identical",
    direction="bool",
    description="cold and warm artifacts byte-identical beyond volatile fields",
))

# lint-findings.json (repro-hics lint --format json) and the bench summary.
register_gate(GateSpec(
    name="lint_active_findings",
    suite="lint",
    metric="summary.active",
    direction="max",
    threshold=0.0,
    tolerance=0.0,
    description="non-suppressed determinism/parallel-safety findings in src/",
))
register_gate(GateSpec(
    name="bench_lint_findings",
    suite="figure-summary",
    metric="lint_findings",
    direction="max",
    threshold=0.0,
    tolerance=0.0,
    description="lint findings recorded in the bench-suite summary",
))
