"""RPR6xx — registry/spec consistency.

Every name passed to ``register_searcher``/``register_scorer``/
``register_aggregation``/``register_backend``/``register_task`` must be
addressable from pipeline spec strings such as
``"hics(alpha=0.1)+lof(min_pts=10)"``.  ``RPR601`` statically mirrors the
grammar (`check_component_name` charset + the parser's reserved words) so an
unregisterable or ambiguous name fails lint instead of failing at parse time
in a user's session.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator, Optional

from ..core import Finding, ModuleInfo, Rule, register_rule

_REGISTER_FUNCTIONS = frozenset(
    {
        "register_searcher",
        "register_scorer",
        "register_aggregator",
        "register_aggregation",
        "register_backend",
        "register_task",
    }
)

#: Mirrors repro.utils.validation.check_component_name.
_NAME_RE = re.compile(r"[a-z_][a-z0-9_.\-]*")

#: Words the spec grammar claims for itself (engine selectors and literals);
#: a component registered under one of these could never be addressed.
_RESERVED = frozenset(
    {"shared", "per-subspace", "per_subspace", "streaming", "true", "false", "none"}
)


def _register_function(module: ModuleInfo, func: ast.expr) -> Optional[str]:
    name = module.resolve(func)
    if name is None:
        return None
    tail = name.rsplit(".", 1)[-1]
    return tail if tail in _REGISTER_FUNCTIONS else None


def _literal_name(call: ast.Call) -> Optional[ast.Constant]:
    if call.args:
        argument = call.args[0]
    else:
        named = next((kw.value for kw in call.keywords if kw.arg == "name"), None)
        if named is None:
            return None
        argument = named
    if isinstance(argument, ast.Constant) and isinstance(argument.value, str):
        return argument
    return None


@register_rule
class RegistryNameRule(Rule):
    code = "RPR601"
    name = "registry-name"
    summary = (
        "registered component names must round-trip through the spec grammar "
        "(charset of check_component_name, no reserved words)"
    )

    def check_module(self, module: ModuleInfo) -> Iterator[Finding]:
        if module.tree is None:
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            register = _register_function(module, node.func)
            if register is None:
                continue
            literal = _literal_name(node)
            if literal is None:
                continue
            raw = literal.value
            assert isinstance(raw, str)
            key = raw.strip().lower()
            if not key:
                yield self.finding(
                    module, node, f"{register}() name must be a non-empty string"
                )
            elif _NAME_RE.fullmatch(key) is None:
                yield self.finding(
                    module,
                    node,
                    f"{register}({raw!r}) does not fit the spec grammar charset "
                    "[a-z_][a-z0-9_.-]*; such a name cannot be addressed from "
                    "spec strings",
                )
            elif key in _RESERVED:
                yield self.finding(
                    module,
                    node,
                    f"{register}({raw!r}) collides with the reserved spec-grammar "
                    f"word {key!r} (engine selectors / bare literals); the "
                    "component would be unaddressable",
                )
