"""Component registry: pluggable searchers, scorers and aggregators.

The paper's decoupling of subspace search (step 1) from outlier ranking
(step 2) means any searcher can be combined with any scorer.  This module
makes that combination *declarative*: components register themselves under a
short name, and a pipeline is described by a **spec string** such as ::

    "hics(alpha=0.1)+lof(min_pts=10)"
    "random_subspaces(n_subspaces=50)+knn(k=5)+max"

i.e. ``searcher[(params)] + scorer[(params)] [+ aggregation]``.  New
components are added with the :func:`register_searcher`,
:func:`register_scorer` and :func:`register_aggregator` decorators — no edits
to :mod:`repro.pipeline.config` required::

    from repro import register_scorer
    from repro.outliers.base import OutlierScorer

    @register_scorer("my_score")
    class MyScorer(OutlierScorer):
        ...

The registry also provides the parameter introspection used by the pipeline
persistence layer (:meth:`SubspaceOutlierPipeline.to_dict` / ``save``): a
registered component is serialised as its registry name plus the JSON
representation of its constructor parameters.
"""

from __future__ import annotations

import ast
import inspect
import json
import re
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple, Type, Union

from .exceptions import ParameterError, ReproError
from .neighbors.engine import ENGINE_MODES, LEGACY_ENGINE_MODES
from .outliers.aggregation import (
    available_aggregations,
    get_aggregation,
    register_aggregation,
)
from .parallel import fold_n_jobs
from .utils.validation import check_component_name

__all__ = [
    "ComponentSpec",
    "PipelineSpec",
    "register_searcher",
    "register_scorer",
    "register_aggregator",
    "get_searcher",
    "get_scorer",
    "get_aggregator",
    "available_searchers",
    "available_scorers",
    "available_aggregators",
    "make_searcher",
    "make_scorer",
    "parse_component_spec",
    "parse_spec",
    "make_pipeline_from_spec",
    "component_to_dict",
    "component_from_dict",
    "describe_component",
]

# Canonical name -> component class.  Aliases live in separate tables so that
# the reverse lookup used by serialisation is unambiguous.
_SEARCHERS: Dict[str, type] = {}
_SEARCHER_ALIASES: Dict[str, str] = {}
_SCORERS: Dict[str, type] = {}
_SCORER_ALIASES: Dict[str, str] = {}


def _normalise_name(name: str) -> str:
    return check_component_name(name)


def _register(
    table: Dict[str, type],
    aliases: Dict[str, str],
    name: str,
    cls: Optional[type],
    *,
    overwrite: bool = False,
    kind: str = "component",
):
    key = _normalise_name(name)

    def decorator(target: type) -> type:
        if not inspect.isclass(target):
            raise ParameterError(f"{kind} {name!r} must be registered with a class")
        if not overwrite and (key in table or key in aliases):
            raise ParameterError(
                f"{kind} name {name!r} is already registered; pass overwrite=True to replace it"
            )
        aliases.pop(key, None)
        table[key] = target
        return target

    return decorator if cls is None else decorator(cls)


def register_searcher(name: str, cls: Optional[type] = None, *, overwrite: bool = False):
    """Register a :class:`~repro.subspaces.base.SubspaceSearcher` class.

    Usable as a decorator (``@register_searcher("my_search")``) or as a plain
    call (``register_searcher("my_search", MySearcher)``).  Classes that are
    not ``SubspaceSearcher`` subclasses may also be registered (e.g. the PCA
    reducer); :func:`make_pipeline_from_spec` then treats them as complete
    ranking front ends constructed with the scorer.
    """
    return _register(
        _SEARCHERS, _SEARCHER_ALIASES, name, cls, overwrite=overwrite, kind="searcher"
    )


def register_scorer(name: str, cls: Optional[type] = None, *, overwrite: bool = False):
    """Register an :class:`~repro.outliers.base.OutlierScorer` class."""
    return _register(_SCORERS, _SCORER_ALIASES, name, cls, overwrite=overwrite, kind="scorer")


def register_aggregator(
    name: str, func: Optional[Callable] = None, *, overwrite: bool = False
):
    """Register a score aggregation function (decorator or plain call).

    The function receives the stacked per-subspace score matrix of shape
    ``(n_subspaces, n_objects)`` and returns one score per object; it becomes
    resolvable by name everywhere strings are accepted (pipeline
    ``aggregation=``, spec strings, CLI).
    """

    def decorator(target: Callable) -> Callable:
        register_aggregation(name, target, overwrite=overwrite)
        return target

    return decorator if func is None else decorator(func)


def _register_alias(aliases: Dict[str, str], table: Dict[str, type], name: str, target: str):
    key = _normalise_name(name)
    canonical = _normalise_name(target)
    if canonical not in table:
        raise ParameterError(f"alias target {target!r} is not registered")
    aliases[key] = canonical


def _resolve(
    table: Dict[str, type], aliases: Dict[str, str], name: str, kind: str
) -> Tuple[str, type]:
    key = _normalise_name(name)
    key = aliases.get(key, key)
    if key not in table:
        raise ParameterError(
            f"unknown {kind} {name!r}; available: {', '.join(sorted(table))}"
        )
    return key, table[key]


def get_searcher(name: str) -> type:
    """Resolve a searcher name (or alias) to its registered class."""
    return _resolve(_SEARCHERS, _SEARCHER_ALIASES, name, "searcher")[1]


def get_scorer(name: str) -> type:
    """Resolve a scorer name (or alias) to its registered class."""
    return _resolve(_SCORERS, _SCORER_ALIASES, name, "scorer")[1]


def get_aggregator(name: str) -> Callable:
    """Resolve an aggregation name to its registered function."""
    return get_aggregation(name)


def available_searchers() -> Tuple[str, ...]:
    """Canonical names of all registered searchers, sorted."""
    return tuple(sorted(_SEARCHERS))


def available_scorers() -> Tuple[str, ...]:
    """Canonical names of all registered scorers, sorted."""
    return tuple(sorted(_SCORERS))


def available_aggregators() -> Tuple[str, ...]:
    """Names of all registered aggregations (including aliases), sorted."""
    return available_aggregations()


#: Retired constructor parameters, dropped when a saved payload or a spec
#: string still names them: ``(kind, name) -> {parameter: accepted values}``.
#: HiCS's ``engine`` chose between the batch contrast engine and a scalar
#: per-iteration reference that produced the same contrasts bit for bit.
_RETIRED_PARAMS: Dict[Tuple[str, str], Dict[str, Tuple[object, ...]]] = {
    ("searcher", "hics"): {"engine": ("batch", "scalar")},
}


def _construct(cls: type, params: Dict[str, object], name: str, kind: str):
    retired = _RETIRED_PARAMS.get((kind, name), {})
    params = {
        key: value
        for key, value in params.items()
        if not (key in retired and value in retired[key])
    }
    accepted = inspect.signature(cls.__init__).parameters
    if "n_jobs" in params and "backend" in accepted and "n_jobs" not in accepted:
        # The retired n_jobs sugar of a component that takes a backend.
        params = fold_n_jobs(params)
    try:
        return cls(**params)
    except ReproError:
        raise  # already a precise library error (e.g. ParameterError on a bad value)
    except TypeError as exc:
        signature = describe_component(cls)
        raise ParameterError(
            f"invalid parameters for {kind} {name!r}: {exc}; signature: {name}{signature}"
        ) from exc
    except Exception as exc:
        # User-supplied spec params can crash arbitrary constructor code
        # (e.g. an int where a string was expected); surface it as a
        # parameter error instead of a raw traceback.
        raise ParameterError(
            f"invalid parameters for {kind} {name!r}: {type(exc).__name__}: {exc}"
        ) from exc


def make_searcher(name: str, **params):
    """Instantiate a registered searcher with keyword parameters."""
    key, cls = _resolve(_SEARCHERS, _SEARCHER_ALIASES, name, "searcher")
    return _construct(cls, params, key, "searcher")


def make_scorer(name: str, **params):
    """Instantiate a registered scorer with keyword parameters."""
    key, cls = _resolve(_SCORERS, _SCORER_ALIASES, name, "scorer")
    return _construct(cls, params, key, "scorer")


# --------------------------------------------------------------------- specs


@dataclass(frozen=True)
class ComponentSpec:
    """A component reference: registry name plus constructor parameters."""

    name: str
    params: Dict[str, object] = field(default_factory=dict)

    def render(self) -> str:
        """Render back into spec-string form (``name(key=value, ...)``)."""
        if not self.params:
            return self.name
        rendered = ", ".join(f"{k}={v!r}" for k, v in self.params.items())
        return f"{self.name}({rendered})"


@dataclass(frozen=True)
class PipelineSpec:
    """A parsed pipeline spec: searcher + optional scorer/aggregation/engine."""

    searcher: ComponentSpec
    scorer: Optional[ComponentSpec] = None
    aggregation: Optional[str] = None
    engine: Optional[ComponentSpec] = None

    def render(self) -> str:
        parts = [self.searcher.render()]
        if self.scorer is not None:
            parts.append(self.scorer.render())
        if self.aggregation is not None:
            parts.append(self.aggregation)
        if self.engine is not None:
            parts.append(self.engine.render())
        return "+".join(parts)


def _split_top_level(text: str, separator: str) -> list:
    """Split on ``separator`` outside parenthesised groups and string literals."""
    parts, current, depth = [], [], 0
    quote = None
    escaped = False
    for char in text:
        if quote is not None:
            current.append(char)
            if escaped:
                escaped = False
            elif char == "\\":
                escaped = True
            elif char == quote:
                quote = None
            continue
        if char in "'\"":
            quote = char
            current.append(char)
            continue
        if char in "([":
            depth += 1
        elif char in ")]":
            depth -= 1
            if depth < 0:
                raise ParameterError(f"unbalanced parentheses in spec {text!r}")
        if char == separator and depth == 0:
            parts.append("".join(current))
            current = []
        else:
            current.append(char)
    if quote is not None:
        raise ParameterError(f"unterminated string literal in spec {text!r}")
    if depth != 0:
        raise ParameterError(f"unbalanced parentheses in spec {text!r}")
    parts.append("".join(current))
    return parts


#: Bare words that mean a Python constant, so lowercase ``true``/``false``/
#: ``none`` never degrade to (truthy) strings and silently flip boolean params.
_BARE_CONSTANTS = {"true": True, "false": False, "none": None}


def _literal(node: ast.expr, text: str) -> object:
    try:
        return ast.literal_eval(node)
    except ValueError:
        # Allow bare words as strings for CLI ergonomics: deviation=welch.
        if isinstance(node, ast.Name):
            lowered = node.id.lower()
            if lowered in _BARE_CONSTANTS:
                return _BARE_CONSTANTS[lowered]
            return node.id
        # Allow one level of call syntax as a string value, so execution
        # backends read naturally: hics(backend=process(n_jobs=4)).  The
        # value is re-parsed by the backend registry, which reports precise
        # errors for unknown names or parameters.
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and not node.args
        ):
            try:
                return ast.unparse(node)
            except Exception:  # pragma: no cover - unparse cannot fail here
                pass
        raise ParameterError(f"unsupported parameter value in spec {text!r}") from None


def parse_component_spec(text: str) -> ComponentSpec:
    """Parse ``"name"`` or ``"name(key=value, ...)"`` into a :class:`ComponentSpec`.

    Values are Python literals (numbers, strings, tuples, ``None``, booleans);
    bare words are accepted as strings, so ``hics(deviation=welch)`` and
    ``hics(deviation='welch')`` are equivalent.
    """
    if not isinstance(text, str) or not text.strip():
        raise ParameterError("component spec must be a non-empty string")
    stripped = text.strip()
    match = re.fullmatch(r"([A-Za-z_][\w.-]*)\s*(?:\((.*)\))?", stripped, flags=re.DOTALL)
    if match is None:
        raise ParameterError(
            f"invalid component spec {text!r}; expected 'name' or 'name(key=value, ...)'"
        )
    name, arg_text = match.group(1), match.group(2)
    params: Dict[str, object] = {}
    if arg_text and arg_text.strip():
        try:
            call = ast.parse(f"_({arg_text})", mode="eval").body
        except SyntaxError as exc:
            raise ParameterError(f"invalid parameter list in spec {text!r}: {exc.msg}") from exc
        if not isinstance(call, ast.Call) or call.args or not isinstance(call.func, ast.Name):
            # The func check rejects chained groups like "name(a=1)(b=2)",
            # which would otherwise silently drop all but the last group.
            raise ParameterError(
                f"component parameters must be keyword arguments, got {text!r}"
            )
        for keyword in call.keywords:
            if keyword.arg is None:
                raise ParameterError(f"'**' is not allowed in spec {text!r}")
            params[keyword.arg] = _literal(keyword.value, text)
    return ComponentSpec(name=_normalise_name(name), params=params)


#: Spec-grammar names selecting the scoring engine (4th, optional segment),
#: including the ``per_subspace`` spelling and retired names that map to a
#: survivor.
_ENGINE_NAMES = ENGINE_MODES + ("per_subspace",) + tuple(LEGACY_ENGINE_MODES)


def _extract_engine_spec(parts: list) -> Tuple[list, Optional[ComponentSpec]]:
    """Pull the (at most one) engine segment out of a split spec string."""
    remaining = [parts[0]]
    engine: Optional[ComponentSpec] = None
    for part in parts[1:]:
        try:
            component = parse_component_spec(part)
        except ParameterError:
            remaining.append(part)
            continue
        if component.name not in _ENGINE_NAMES:
            remaining.append(part)
            continue
        if engine is not None:
            raise ParameterError(
                f"duplicate scoring engine in spec: {engine.render()!r} and {part!r}"
            )
        # The retired ``memory_budget_mb`` sized the engine's former n x n
        # buffer and never changed a score: it is accepted and dropped.
        unknown = sorted(set(component.params) - {"memory_budget_mb"})
        if unknown:
            raise ParameterError(
                f"unknown engine parameter(s) {unknown} in spec segment {part!r}; "
                f"an engine segment takes no parameters"
            )
        engine = ComponentSpec(component.name)
    return remaining, engine


def parse_spec(text: str) -> PipelineSpec:
    """Parse a full pipeline spec string.

    Grammar: ``searcher[(params)] [+ scorer[(params)] [+ aggregation]]
    [+ engine]``, e.g. ``"hics(alpha=0.1)+lof(min_pts=10)"`` or
    ``"hics+lof+average+per-subspace"``.  The scorer defaults
    to LOF and the aggregation to ``"average"`` when omitted; a two-part spec
    whose second segment is a bare aggregation name rather than a scorer
    (``"hics+max"``) is accepted as searcher + aggregation.  The engine
    segment (``shared`` or ``per-subspace``) selects the scoring engine and
    may appear after any other segment; the retired ``streaming`` segment
    is still accepted and selects ``shared``, and so is a retired engine
    parameter, which is dropped.
    """
    if not isinstance(text, str) or not text.strip():
        raise ParameterError("pipeline spec must be a non-empty string")
    parts = [p.strip() for p in _split_top_level(text.strip(), "+")]
    if len(parts) < 1 or any(not p for p in parts):
        raise ParameterError(
            f"invalid pipeline spec {text!r}; expected "
            f"'searcher[+scorer[+aggregation]][+engine]'"
        )
    parts, engine = _extract_engine_spec(parts)
    if len(parts) > 3:
        raise ParameterError(
            f"invalid pipeline spec {text!r}; expected "
            f"'searcher[+scorer[+aggregation]][+engine]'"
        )
    searcher = parse_component_spec(parts[0])
    scorer = None
    aggregation = None
    if len(parts) == 3:
        scorer = parse_component_spec(parts[1])
        aggregation = _normalise_name(parts[2])
        get_aggregation(aggregation)  # fail fast on unknown aggregations
    elif len(parts) == 2:
        second = parse_component_spec(parts[1])
        is_scorer = second.name in _SCORERS or second.name in _SCORER_ALIASES
        if not is_scorer and not second.params:
            try:
                get_aggregation(second.name)
            except ParameterError:
                scorer = second  # unknown either way; report it as a scorer
            else:
                aggregation = second.name
        else:
            scorer = second
    if scorer is None:
        # Ergonomics: a spec whose only component names a scorer
        # ("lof(min_pts=8)") means full-space scoring with that scorer.
        is_searcher = searcher.name in _SEARCHERS or searcher.name in _SEARCHER_ALIASES
        is_scorer = searcher.name in _SCORERS or searcher.name in _SCORER_ALIASES
        if not is_searcher and is_scorer:
            scorer, searcher = searcher, ComponentSpec("fullspace")
    return PipelineSpec(
        searcher=searcher, scorer=scorer, aggregation=aggregation, engine=engine
    )


def make_pipeline_from_spec(
    spec: Union[str, PipelineSpec],
    *,
    aggregation: Optional[str] = None,
    max_subspaces: int = 100,
    engine: Optional[str] = None,
    backend: Optional[str] = None,
):
    """Build a ready pipeline from a spec string (or parsed spec).

    Returns a :class:`~repro.pipeline.pipeline.SubspaceOutlierPipeline` for
    ordinary searchers.  Registered front ends that are not
    :class:`~repro.subspaces.base.SubspaceSearcher` subclasses (the PCA
    reducers) are constructed with the scorer and returned directly.

    An aggregation or scoring engine named in the spec wins over the
    ``aggregation`` / ``engine`` keywords.
    """
    from .pipeline.pipeline import SubspaceOutlierPipeline
    from .subspaces.base import SubspaceSearcher

    parsed = parse_spec(spec) if isinstance(spec, str) else spec
    searcher_spec = parsed.searcher
    scorer_spec = parsed.scorer if parsed.scorer is not None else ComponentSpec("lof")
    scorer = make_scorer(scorer_spec.name, **scorer_spec.params)
    searcher_key, searcher_cls = _resolve(
        _SEARCHERS, _SEARCHER_ALIASES, searcher_spec.name, "searcher"
    )
    if parsed.engine is not None:
        engine = parsed.engine.name
    if not issubclass(searcher_cls, SubspaceSearcher):
        if parsed.aggregation is not None:
            raise ParameterError(
                f"aggregation {parsed.aggregation!r} has no effect with the "
                f"{searcher_key!r} front end, which does not aggregate subspace scores"
            )
        if parsed.engine is not None:
            raise ParameterError(
                f"scoring engine {parsed.engine.render()!r} has no effect with the "
                f"{searcher_key!r} front end, which does not score subspaces"
            )
        params = dict(searcher_spec.params)
        params["scorer"] = scorer
        return _construct(searcher_cls, params, searcher_key, "searcher")
    searcher = _construct(searcher_cls, searcher_spec.params, searcher_key, "searcher")
    return SubspaceOutlierPipeline(
        searcher=searcher,
        scorer=scorer,
        aggregation=parsed.aggregation or aggregation or "average",
        max_subspaces=max_subspaces,
        engine=engine if engine is not None else "shared",
        backend=backend,
    )


# ----------------------------------------------------------- serialisation


def _component_name(obj: object, table: Dict[str, type], kind: str) -> str:
    for name, cls in table.items():
        if type(obj) is cls:
            return name
    raise ParameterError(
        f"{type(obj).__name__} is not a registered {kind}; register it with "
        f"register_{kind}() before serialising"
    )


def component_params(obj: object) -> Dict[str, object]:
    """Reconstruct the constructor parameters of a component instance.

    Relies on the library-wide convention that every constructor parameter is
    stored as an instance attribute of the same name.  A parameter without a
    matching attribute raises :class:`ParameterError` — silently skipping it
    would make a saved pipeline reload with default parameters and produce
    different scores without any warning.
    """
    signature = inspect.signature(type(obj).__init__)
    params: Dict[str, object] = {}
    for name, parameter in signature.parameters.items():
        if name == "self" or parameter.kind in (
            inspect.Parameter.VAR_POSITIONAL,
            inspect.Parameter.VAR_KEYWORD,
        ):
            continue
        if not hasattr(obj, name):
            raise ParameterError(
                f"{type(obj).__name__} does not store constructor parameter "
                f"{name!r} as an attribute of the same name, so it cannot be "
                f"serialised faithfully; store it under self.{name}"
            )
        params[name] = getattr(obj, name)
    return params


def component_to_dict(obj: object, kind: str) -> Dict[str, object]:
    """Serialise a registered component into ``{"name": ..., "params": ...}``.

    Raises :class:`ParameterError` when the component type is unregistered or
    a parameter is not JSON-serialisable (e.g. a callable deviation function
    or a live random generator) — such pipelines must be rebuilt in code.
    """
    if kind not in ("searcher", "scorer"):
        raise ParameterError(f"kind must be 'searcher' or 'scorer', got {kind!r}")
    table = _SEARCHERS if kind == "searcher" else _SCORERS
    name = _component_name(obj, table, kind)
    params = component_params(obj)
    if kind == "searcher":
        # The PCA front ends hold their scorer as a constructor parameter; it
        # is serialised separately as the pipeline's scorer.
        params.pop("scorer", None)
    try:
        params = json.loads(json.dumps(params))
    except TypeError as exc:
        raise ParameterError(
            f"{kind} {name!r} has a non-JSON-serialisable parameter: {exc}"
        ) from exc
    return {"name": name, "params": params}


def component_from_dict(payload: Dict[str, object], kind: str):
    """Rebuild a component from its :func:`component_to_dict` payload."""
    if not isinstance(payload, dict) or "name" not in payload:
        raise ParameterError(f"invalid {kind} payload: {payload!r}")
    params = payload.get("params", {})
    if not isinstance(params, dict):
        raise ParameterError(f"{kind} params must be a mapping, got {type(params).__name__}")
    if kind == "searcher":
        return make_searcher(payload["name"], **params)
    if kind == "scorer":
        return make_scorer(payload["name"], **params)
    raise ParameterError(f"kind must be 'searcher' or 'scorer', got {kind!r}")


def describe_component(cls: type) -> str:
    """Human-readable default-parameter summary, e.g. ``(min_pts=10)``."""
    signature = inspect.signature(cls.__init__)
    rendered = []
    for name, parameter in signature.parameters.items():
        if name in ("self", "scorer") or parameter.kind in (
            inspect.Parameter.VAR_POSITIONAL,
            inspect.Parameter.VAR_KEYWORD,
        ):
            continue
        if parameter.default is inspect.Parameter.empty:
            rendered.append(name)
        else:
            rendered.append(f"{name}={parameter.default!r}")
    return "(" + ", ".join(rendered) + ")"


# ------------------------------------------------------------- built-ins


def _register_builtins() -> None:
    from .baselines.enclus import EnclusSearcher
    from .baselines.fullspace import FullSpaceSearcher
    from .baselines.pca import PCAReducer
    from .baselines.random_subspaces import RandomSubspaceSearcher
    from .baselines.ris import RISSearcher
    from .outliers.adaptive_density import AdaptiveDensityScorer
    from .outliers.knn_score import KNNDistanceScorer
    from .outliers.lof import LOFScorer
    from .outliers.orca import ORCAScorer
    from .subspaces.hics import HiCS

    register_searcher("hics", HiCS)
    register_searcher("enclus", EnclusSearcher)
    register_searcher("ris", RISSearcher)
    register_searcher("random_subspaces", RandomSubspaceSearcher)
    register_searcher("fullspace", FullSpaceSearcher)
    register_searcher("pca", PCAReducer)
    _register_alias(_SEARCHER_ALIASES, _SEARCHERS, "randsub", "random_subspaces")
    _register_alias(_SEARCHER_ALIASES, _SEARCHERS, "full-space", "fullspace")
    _register_alias(_SEARCHER_ALIASES, _SEARCHERS, "full_space", "fullspace")

    register_scorer("lof", LOFScorer)
    register_scorer("knn", KNNDistanceScorer)
    register_scorer("orca", ORCAScorer)
    register_scorer("adaptive_density", AdaptiveDensityScorer)
    _register_alias(_SCORER_ALIASES, _SCORERS, "knn-dist", "knn")
    _register_alias(_SCORER_ALIASES, _SCORERS, "knn_dist", "knn")
    # No "outres" alias: the evaluation harness reserves that name for the
    # paper's (unimplemented) OUTRES method and must keep rejecting it.


_register_builtins()
