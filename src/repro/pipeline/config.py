"""Declarative pipeline configuration and method factories.

The benchmark harness refers to methods by the names the paper uses in its
figures (``"HiCS"``, ``"Enclus"``, ``"RIS"``, ``"RANDSUB"``, ``"LOF"``,
``"PCALOF1"``, ``"PCALOF2"``).  :func:`make_method_pipeline` builds a ready
object for each of them so that experiment definitions stay declarative.

Every method name resolves through the component registry
(:mod:`repro.registry`): the name is translated into a
:class:`~repro.registry.PipelineSpec` with the shared
:class:`PipelineConfig` parameters injected, and the registry constructs the
components.  Arbitrary registry spec strings such as
``"hics(alpha=0.1)+lof(min_pts=10)"`` are accepted wherever a method name is.
"""

from __future__ import annotations

import hashlib
import inspect
import json
from dataclasses import asdict, dataclass, field, fields
from typing import Dict, Optional, Tuple, Union

from ..baselines.pca import PCAReducer
from ..exceptions import ParameterError
from ..parallel import fold_n_jobs
from ..registry import (
    ComponentSpec,
    PipelineSpec,
    get_scorer,
    get_searcher,
    make_pipeline_from_spec,
    parse_spec,
)
from .pipeline import SubspaceOutlierPipeline

__all__ = ["PipelineConfig", "make_default_pipeline", "make_method_pipeline", "METHOD_NAMES"]

#: Names of all methods the evaluation compares (as used in the paper's figures).
METHOD_NAMES: Tuple[str, ...] = (
    "LOF",
    "HiCS",
    "HiCS_WT",
    "HiCS_KS",
    "Enclus",
    "RIS",
    "RANDSUB",
    "PCALOF1",
    "PCALOF2",
)


@dataclass(frozen=True)
class PipelineConfig:
    """Shared experiment parameters (Section V protocol).

    Attributes
    ----------
    min_pts:
        LOF neighbourhood size; identical for all methods to ensure
        comparability.
    max_subspaces:
        Only the best ``max_subspaces`` subspaces of every search method are
        used for the ranking (paper: 100).
    hics_iterations:
        Monte Carlo iterations ``M`` (paper default 50).
    hics_alpha:
        Slice size ``alpha`` (paper default 0.1).
    hics_cutoff:
        Candidate cutoff (paper default 400).
    hics_subsample:
        ``None`` (default) estimates contrasts over the full database; an
        integer enables the seeded-subsample contrast mode (see
        :class:`~repro.subspaces.contrast.ContrastEstimator`), whose Monte
        Carlo cost scales with the subsample instead of the database size.
        Changes the estimated contrasts (it is an approximation), so it is a
        *result* field for caching purposes.
    random_state:
        Seed forwarded to the stochastic methods.
    backend:
        Execution-backend spec string (``"serial"``, ``"thread"``,
        ``"process(n_jobs=4, start_method=spawn)"``), forwarded to every
        component whose constructor accepts ``backend``; ``None`` means
        serial.  Purely a throughput knob — results are independent of it.
        A config dict that still carries the retired ``n_jobs`` loads
        through :func:`~repro.parallel.fold_n_jobs`.
    scoring_engine:
        Scoring engine of the ranking step: ``"shared"`` (default) shares one
        distance pass across all fitted subspaces, ``"per-subspace"`` is the
        bit-for-bit-identical reference path.  Like ``backend``, purely a
        throughput knob.
    storage:
        Index storage spec string forwarded to components that accept it
        (``None`` → in-memory, ``"memmap(chunk_rows=65536)"`` → out-of-core
        index builds; see :class:`~repro.dataset.memmap.StorageSpec`).
        Purely a memory/throughput knob — results are bit-for-bit identical
        across storage modes.
    scratch_dir:
        Parent directory for out-of-core scratch spills (must already
        exist); ``None`` uses the system temporary directory.  Only
        meaningful together with a memmap ``storage``.
    extra:
        Free-form per-method overrides.
    """

    min_pts: int = 10
    max_subspaces: int = 100
    hics_iterations: int = 50
    hics_alpha: float = 0.1
    hics_cutoff: int = 400
    hics_subsample: Optional[int] = None
    random_state: Optional[int] = 0
    backend: Optional[str] = None
    scoring_engine: str = "shared"
    storage: Optional[str] = None
    scratch_dir: Optional[str] = None
    extra: Dict[str, object] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        """Plain-dictionary (JSON-ready) representation."""
        return asdict(self)

    def fingerprint(self) -> str:
        """Stable SHA256 content hash of the configuration.

        Computed over the canonical JSON form of :meth:`to_dict` (sorted keys,
        no whitespace), so two configs fingerprint identically exactly when
        every field — including ``extra`` — compares equal under JSON
        semantics.  Non-JSON values in ``extra`` are hashed by their ``repr``.
        Use it to tag results with the exact configuration that produced
        them.  (The experiment artifact cache keys cells by a *reduced* form
        of the config instead — it deliberately ignores the throughput knobs
        ``backend``/``scoring_engine``/``storage``/``scratch_dir``, which
        cannot change results; see :mod:`repro.experiments.cache`.)
        """
        payload = json.dumps(
            self.to_dict(), sort_keys=True, separators=(",", ":"), default=repr
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> PipelineConfig:
        """Rebuild a config from :meth:`to_dict` output; rejects unknown keys.

        A retired ``n_jobs`` entry is folded into ``backend``
        (:func:`~repro.parallel.fold_n_jobs`); retired ``n_shards`` (row
        shards) and ``memory_budget_mb`` (the scoring engine's former buffer
        budget) entries, which never changed a result, are dropped.
        """
        if not isinstance(payload, dict):
            raise ParameterError(
                f"config payload must be a mapping, got {type(payload).__name__}"
            )
        payload = fold_n_jobs(payload)
        for retired in ("n_shards", "memory_budget_mb"):
            payload.pop(retired, None)
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ParameterError(f"unknown PipelineConfig keys: {unknown}")
        return cls(**payload)


def make_default_pipeline(config: Optional[PipelineConfig] = None) -> SubspaceOutlierPipeline:
    """The paper's default configuration: HiCS_WT + LOF, average aggregation."""
    return make_method_pipeline("HiCS", config)


def _method_spec(key: str, config: PipelineConfig) -> PipelineSpec:
    """Translate a paper method name into a registry spec with config injected."""
    scorer = ComponentSpec("lof", {"min_pts": config.min_pts})
    hics_params = {
        "n_iterations": config.hics_iterations,
        "alpha": config.hics_alpha,
        "candidate_cutoff": config.hics_cutoff,
        "max_output_subspaces": config.max_subspaces,
        "random_state": config.random_state,
        "backend": config.backend,
        "subsample_size": config.hics_subsample,
        "storage": config.storage,
        "scratch_dir": config.scratch_dir,
    }
    searchers = {
        "lof": ComponentSpec("fullspace"),
        "fullspace": ComponentSpec("fullspace"),
        "full-space": ComponentSpec("fullspace"),
        "hics": ComponentSpec("hics", {**hics_params, "deviation": "welch"}),
        "hics_wt": ComponentSpec("hics", {**hics_params, "deviation": "welch"}),
        "hics-wt": ComponentSpec("hics", {**hics_params, "deviation": "welch"}),
        "hics_ks": ComponentSpec("hics", {**hics_params, "deviation": "ks"}),
        "hics-ks": ComponentSpec("hics", {**hics_params, "deviation": "ks"}),
        "enclus": ComponentSpec("enclus", {"max_output_subspaces": config.max_subspaces}),
        "ris": ComponentSpec(
            "ris", {"min_pts": config.min_pts, "max_output_subspaces": config.max_subspaces}
        ),
        "randsub": ComponentSpec(
            "random_subspaces",
            {"n_subspaces": config.max_subspaces, "random_state": config.random_state},
        ),
        "pcalof1": ComponentSpec("pca", {"strategy": "half"}),
        "pcalof2": ComponentSpec("pca", {"strategy": "fixed", "n_components": 10}),
    }
    if key not in searchers:
        raise ParameterError(
            f"unknown method {key!r}; expected one of {METHOD_NAMES} or a registry "
            f"spec string like 'hics(alpha=0.1)+lof(min_pts=10)'"
        )
    return PipelineSpec(searcher=searchers[key], scorer=scorer)


def _inject_config_defaults(spec: PipelineSpec, config: PipelineConfig) -> PipelineSpec:
    """Apply the shared config parameters to spec components that accept them.

    ``min_pts``, ``random_state``, ``backend``, ``storage`` and
    ``scratch_dir`` are the config knobs the CLI exposes (``--min-pts`` /
    ``--seed`` / ``--backend`` / ...); they are injected into every component
    whose constructor accepts them, unless the spec already pins the
    parameter.  A spec without a scorer gets LOF with the config's
    ``min_pts``.
    """
    shared = {
        "min_pts": config.min_pts,
        "random_state": config.random_state,
        "backend": config.backend,
        "storage": config.storage,
        "scratch_dir": config.scratch_dir,
    }

    def merged(component: ComponentSpec, cls: type) -> ComponentSpec:
        accepted = inspect.signature(cls.__init__).parameters
        extra = {
            key: value
            for key, value in shared.items()
            if key in accepted and key not in component.params
        }
        if not extra:
            return component
        return ComponentSpec(component.name, {**component.params, **extra})

    searcher = merged(spec.searcher, get_searcher(spec.searcher.name))
    scorer = spec.scorer if spec.scorer is not None else ComponentSpec("lof")
    scorer = merged(scorer, get_scorer(scorer.name))
    return PipelineSpec(
        searcher=searcher,
        scorer=scorer,
        aggregation=spec.aggregation,
        engine=spec.engine,
    )


def make_method_pipeline(
    method: str, config: Optional[PipelineConfig] = None
) -> Union[SubspaceOutlierPipeline, PCAReducer]:
    """Build the ranking pipeline for a named method or registry spec string.

    ``method`` is either one of :data:`METHOD_NAMES` (the shared
    :class:`PipelineConfig` parameters are injected) or a registry spec string
    such as ``"hics(alpha=0.2)+knn(k=5)+max"``.  For specs, the config's
    ``max_subspaces`` is applied to the pipeline and its ``min_pts`` /
    ``random_state`` are injected into components that accept them and do not
    pin them in the spec; all other component parameters come from the spec
    verbatim.

    Returns either a :class:`SubspaceOutlierPipeline` (for LOF and all subspace
    searchers) or a :class:`PCAReducer` (for the two PCA strategies, which
    transform the data instead of selecting axis-parallel subspaces).  Both
    expose a method producing a :class:`~repro.types.RankingResult`
    (``fit_rank`` / ``rank``); the evaluation harness dispatches on that.
    """
    if not isinstance(method, str) or not method.strip():
        raise ParameterError("method must be a non-empty string")
    config = config or PipelineConfig()
    key = method.strip().lower()
    if "+" in method or "(" in method:
        spec = _inject_config_defaults(parse_spec(method), config)
    else:
        try:
            spec = _method_spec(key, config)
        except ParameterError as method_error:
            # Not a paper method name — accept a bare registered searcher or
            # scorer name ("random_subspaces", "knn", ...) as a one-component
            # spec; parse_spec maps a lone scorer to full-space scoring.
            try:
                get_searcher(key)
            except ParameterError:
                try:
                    get_scorer(key)
                except ParameterError:
                    # the unknown-method error lists both options
                    raise method_error from None
            spec = _inject_config_defaults(parse_spec(method), config)
    return make_pipeline_from_spec(
        spec,
        max_subspaces=config.max_subspaces,
        engine=config.scoring_engine,
        backend=config.backend,
    )
