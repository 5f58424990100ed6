"""RPR5xx — resource lifecycle.

``ContrastEstimator``, the execution backends and the shared-memory plane
own persistent worker pools and ``/dev/shm`` segments; pipelines and their
factories own components that accumulate pool handles, contrast caches and
warm reference state (LOF's local-update plans).  A
construction site that never closes them leaks processes, shared memory or
cache pages for the rest of the run.  ``RPR501`` accepts any of the idioms
the codebase uses — ``with``, storing on ``self``, returning to the caller,
passing ownership into another call, or an explicit
``close()``/``unlink()``/``shutdown()`` on the name — and flags everything
else.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Set

from ..core import Finding, ModuleInfo, Rule, register_rule

#: Constructors/factories whose results own pools or shared-memory segments.
#: Pipeline constructors/factories belong here too: a pipeline owns a
#: searcher (contrast cache, execution backend) and a scorer (warm reference
#: engine), so a one-shot host that drops one unclosed strands all of those
#: until interpreter teardown.
_RESOURCE_CONSTRUCTORS = frozenset(
    {
        "ContrastEstimator",
        "SharedArrayPlane",
        "WorkerContext",
        "ThreadBackend",
        "ProcessBackend",
        "make_backend",
        "resolve_backend",
        "attach_arrays",
        "SubspaceOutlierPipeline",
        "make_method_pipeline",
        "make_pipeline_from_spec",
        "make_default_pipeline",
    }
)

#: Qualified classmethod factories.  These must match on their *last two*
#: name components: a bare ``load`` tail would flag every unrelated
#: ``anything.load(...)`` call (``numpy.load`` included), which is exactly
#: the blind spot that let ``SubspaceOutlierPipeline.load(...)`` sites slip
#: through unclosed.
_QUALIFIED_RESOURCE_CONSTRUCTORS = frozenset({"SubspaceOutlierPipeline.load"})

_CLOSERS = frozenset({"close", "unlink", "shutdown"})


def _constructor_tail(name: Optional[str]) -> Optional[str]:
    if name is None:
        return None
    parts = name.split(".")
    if len(parts) >= 2 and ".".join(parts[-2:]) in _QUALIFIED_RESOURCE_CONSTRUCTORS:
        return ".".join(parts[-2:])
    tail = parts[-1]
    return tail if tail in _RESOURCE_CONSTRUCTORS else None


def _assigned_names(target: ast.expr) -> Optional[List[str]]:
    """Plain names bound by an assignment target; None when not name-only."""
    if isinstance(target, ast.Name):
        return [target.id]
    if isinstance(target, (ast.Tuple, ast.List)):
        names: List[str] = []
        for element in target.elts:
            if isinstance(element, ast.Name):
                names.append(element.id)
            elif isinstance(element, ast.Starred) and isinstance(
                element.value, ast.Name
            ):
                names.append(element.value.id)
            else:
                return None
        return names
    return None


@register_rule
class ResourceLifecycleRule(Rule):
    code = "RPR501"
    name = "resource-lifecycle"
    summary = (
        "pool/shared-memory/cache owners (ContrastEstimator, backends, "
        "planes, worker contexts, pipelines and pipeline factories) must be "
        "closed at every construction site"
    )

    def check_module(self, module: ModuleInfo) -> Iterator[Finding]:
        if module.tree is None:
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            tail = _constructor_tail(module.resolve(node.func))
            if tail is None:
                continue
            finding = self._check_site(module, node, tail)
            if finding is not None:
                yield finding

    def _check_site(
        self, module: ModuleInfo, call: ast.Call, tail: str
    ) -> Optional[Finding]:
        assignment: Optional[ast.AST] = None
        for ancestor in module.ancestors(call):
            if isinstance(ancestor, ast.withitem):
                return None  # with Ctor(...) as x:
            if isinstance(ancestor, (ast.Return, ast.Yield, ast.YieldFrom)):
                return None  # ownership handed to the caller
            if isinstance(ancestor, ast.Call):
                # Ctor(...) as an argument of another call: ownership handed
                # over (e.g. wrapped by contextlib.closing or a factory).
                return None
            if isinstance(ancestor, (ast.Assign, ast.AnnAssign)):
                assignment = ancestor
                break
            if isinstance(ancestor, ast.Expr):
                return self.finding(
                    module,
                    call,
                    f"{tail}(...) result is discarded; it owns pools/segments "
                    "that now cannot be closed — use 'with', keep the "
                    "reference, or close() it",
                )
            if isinstance(
                ancestor, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Module)
            ):
                break
        if assignment is None:
            return None  # comprehension/condition contexts: give benefit of doubt
        targets = (
            list(assignment.targets)
            if isinstance(assignment, ast.Assign)
            else [assignment.target]
        )
        names: List[str] = []
        for target in targets:
            if isinstance(target, (ast.Attribute, ast.Subscript)):
                return None  # stored on an object; its owner manages lifetime
            bound = _assigned_names(target)
            if bound is None:
                return None
            names.extend(bound)
        scope = module.enclosing_scope(call)
        if self._escapes(scope, set(names)):
            return None
        return self.finding(
            module,
            call,
            f"{tail}(...) bound to {'/'.join(repr(n) for n in names)} is never "
            "closed in this scope; use 'with', call close()/unlink() in a "
            "finally block, or hand ownership onwards",
        )

    def _escapes(self, scope: ast.AST, names: Set[str]) -> bool:
        """Is any bound name closed, returned, stored away or handed over?"""
        for node in ast.walk(scope):
            if isinstance(node, ast.Call):
                func = node.func
                if (
                    isinstance(func, ast.Attribute)
                    and func.attr in _CLOSERS
                    and isinstance(func.value, ast.Name)
                    and func.value.id in names
                ):
                    return True
                for argument in list(node.args) + [kw.value for kw in node.keywords]:
                    for leaf in ast.walk(argument):
                        if isinstance(leaf, ast.Name) and leaf.id in names:
                            return True
            elif isinstance(node, ast.withitem):
                for leaf in ast.walk(node.context_expr):
                    if isinstance(leaf, ast.Name) and leaf.id in names:
                        return True
            elif isinstance(node, (ast.Return, ast.Yield, ast.YieldFrom)):
                value = node.value
                if value is not None:
                    for leaf in ast.walk(value):
                        if isinstance(leaf, ast.Name) and leaf.id in names:
                            return True
            elif isinstance(node, ast.Assign):
                stores_away = any(
                    isinstance(target, (ast.Attribute, ast.Subscript))
                    for target in node.targets
                )
                if stores_away:
                    for leaf in ast.walk(node.value):
                        if isinstance(leaf, ast.Name) and leaf.id in names:
                            return True
        return False
