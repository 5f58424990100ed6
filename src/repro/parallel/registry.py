"""Backend registry and spec-string resolution.

Backends are referenced by short spec strings everywhere a knob is exposed —
component parameters (``hics(backend=process(n_jobs=4))``), the
:class:`~repro.pipeline.config.PipelineConfig` ``backend`` field, the
``--backend`` CLI flag and the ``REPRO_BACKEND`` environment variable::

    "serial"
    "thread"                       # all cores
    "thread(n_jobs=4)"
    "process"                      # all cores, platform-default start method
    "process(n_jobs=4, start_method=spawn, chunksize=8)"

The backend is the one execution knob; ``n_jobs`` is only a parameter of
the backends themselves.  Saved models, spec strings and config dicts from
before that still carry a top-level ``n_jobs`` keep loading:
:func:`fold_n_jobs` rewrites it into the backend it always meant.  New
backends register via :func:`register_backend` and become addressable from
every spec surface.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, Mapping, Optional, Tuple, Union

from ..exceptions import ParameterError
from .backends import (
    ExecutionBackend,
    ProcessBackend,
    SerialBackend,
    ThreadBackend,
    resolve_n_jobs,
)

__all__ = [
    "available_backends",
    "check_backend_spec",
    "fold_n_jobs",
    "make_backend",
    "parse_backend_spec",
    "register_backend",
    "resolve_backend",
]

BackendSpec = Union[None, str, ExecutionBackend]

_BACKENDS: Dict[str, type] = {}


def register_backend(name: str, cls: Optional[type] = None, *, overwrite: bool = False):
    """Register an :class:`ExecutionBackend` class (decorator or plain call)."""

    def decorator(target: type) -> type:
        key = str(name).strip().lower()
        if not key:
            raise ParameterError("backend name must be a non-empty string")
        if key in _BACKENDS and not overwrite:
            raise ParameterError(
                f"backend name {name!r} is already registered; pass overwrite=True"
            )
        _BACKENDS[key] = target
        return target

    return decorator if cls is None else decorator(cls)


def available_backends() -> Tuple[str, ...]:
    """Canonical names of all registered backends, sorted."""
    return tuple(sorted(_BACKENDS))


register_backend("serial", SerialBackend)
register_backend("thread", ThreadBackend)
register_backend("process", ProcessBackend)


def parse_backend_spec(text: str) -> Tuple[str, Dict[str, object]]:
    """Parse ``"name"`` or ``"name(key=value, ...)"`` into name + parameters.

    Values are Python literals; bare words are accepted as strings so that
    ``process(start_method=spawn)`` needs no quoting on the command line.
    """
    if not isinstance(text, str) or not text.strip():
        raise ParameterError("backend spec must be a non-empty string")
    stripped = text.strip()
    match = re.fullmatch(r"([A-Za-z_][\w.-]*)\s*(?:\((.*)\))?", stripped, flags=re.DOTALL)
    if match is None:
        raise ParameterError(
            f"invalid backend spec {text!r}; expected 'name' or 'name(key=value, ...)'"
        )
    name, arg_text = match.group(1).lower(), match.group(2)
    params: Dict[str, object] = {}
    if arg_text and arg_text.strip():
        try:
            call = ast.parse(f"_({arg_text})", mode="eval").body
        except SyntaxError as exc:
            raise ParameterError(
                f"invalid parameter list in backend spec {text!r}: {exc.msg}"
            ) from exc
        if not isinstance(call, ast.Call) or call.args:
            raise ParameterError(
                f"backend parameters must be keyword arguments, got {text!r}"
            )
        for keyword in call.keywords:
            if keyword.arg is None:
                raise ParameterError(f"'**' is not allowed in backend spec {text!r}")
            try:
                value = ast.literal_eval(keyword.value)
            except ValueError:
                if isinstance(keyword.value, ast.Name):
                    value = keyword.value.id  # bare word, e.g. start_method=spawn
                else:
                    raise ParameterError(
                        f"unsupported parameter value in backend spec {text!r}"
                    ) from None
            params[keyword.arg] = value
    return name, params


def make_backend(spec: BackendSpec) -> ExecutionBackend:
    """Build an :class:`ExecutionBackend` from a spec string (or pass one through).

    ``None`` means ``serial``.  An existing backend instance is returned
    unchanged (the caller keeps ownership of its pool).
    """
    if isinstance(spec, ExecutionBackend):
        return spec
    if spec is None:
        return SerialBackend()
    name, params = parse_backend_spec(spec)
    if name not in _BACKENDS:
        raise ParameterError(
            f"unknown backend {name!r}; available: {', '.join(available_backends())}"
        )
    try:
        return _BACKENDS[name](**params)
    except ParameterError:
        raise
    except TypeError as exc:
        raise ParameterError(f"invalid parameters for backend {name!r}: {exc}") from exc


def resolve_backend(spec: BackendSpec) -> Tuple[ExecutionBackend, bool]:
    """Like :func:`make_backend` but also reports ownership.

    Returns ``(backend, owned)`` where ``owned`` is True when this call
    constructed the backend (the caller must eventually ``close()`` it) and
    False when an existing instance was passed through.
    """
    return make_backend(spec), not isinstance(spec, ExecutionBackend)


def fold_n_jobs(params: Mapping[str, object]) -> Dict[str, object]:
    """Rewrite a retired top-level ``n_jobs`` entry as the ``backend`` it meant.

    With no backend, ``n_jobs=N`` is ``process(n_jobs=N)`` for ``N > 1`` and
    ``serial`` otherwise; a backend spec string that does not pin ``n_jobs``
    (and is not ``serial``) inherits ``N > 1``; a spec that pins it, or a
    backend instance, wins.  ``-1`` means all cores.  Returns a new mapping
    without ``n_jobs``.
    """
    folded = dict(params)
    if "n_jobs" not in folded:
        return folded
    n_jobs = resolve_n_jobs(folded.pop("n_jobs"))  # type: ignore[arg-type]
    backend = folded.get("backend")
    if backend is None:
        folded["backend"] = "serial" if n_jobs <= 1 else f"process(n_jobs={n_jobs})"
    elif isinstance(backend, str) and n_jobs > 1:
        name, spec_params = parse_backend_spec(backend)
        if name != "serial" and "n_jobs" not in spec_params:
            spec_params = {**spec_params, "n_jobs": n_jobs}
            rendered = ", ".join(f"{k}={v!r}" for k, v in spec_params.items())
            folded["backend"] = f"{name}({rendered})"
    return folded


def check_backend_spec(spec: BackendSpec) -> BackendSpec:
    """Fail fast on an invalid backend value; returns it unchanged.

    Accepts ``None``, an :class:`ExecutionBackend` instance or a spec string
    (validated by constructing a throwaway backend — construction is cheap,
    pools are lazy).
    """
    if spec is None or isinstance(spec, ExecutionBackend):
        return spec
    if not isinstance(spec, str):
        raise ParameterError(
            "backend must be None, a spec string like 'process(n_jobs=4)' or an "
            f"ExecutionBackend instance, got {type(spec).__name__}"
        )
    make_backend(spec)  # repro-lint: disable=RPR501 -- validation-only construction: pools are lazy, a never-mapped backend owns nothing to close
    return spec
