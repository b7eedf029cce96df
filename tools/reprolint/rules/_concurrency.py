"""Shared fork-pool detection helpers for RL007.

RL007 needs two facts about a function: which of its local names hold a
process/thread pool, and which calls hand a function to such a pool.  Receiver typing is deliberately narrow — a constructor call, a
``with ... as`` binding, or a helper whose return annotation names a pool
class — because resolving ``x.submit`` through the project-wide
unique-method-name fallback would happily link an unrelated ``submit``
method (the fleet has one).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Iterator

from ..flow import POOL_CONSTRUCTORS
from ..project import FunctionInfo, ProjectIndex, dotted_call_name

#: Class names a pool-typed local may be annotated/inferred as.
POOL_CLASS_NAMES = frozenset({"ProcessPoolExecutor", "ThreadPoolExecutor"})

#: Pool methods that accept a callable to run in a worker (first argument).
SUBMIT_METHODS = frozenset(
    {"submit", "apply", "apply_async", "map", "map_async", "imap", "imap_unordered"}
)

#: Top-level dirs the concurrency and lifecycle rules police (same scope as RL001).
CHECKED_TOP_DIRS = ("src", "examples")


def iter_own_nodes(node: ast.FunctionDef | ast.AsyncFunctionDef) -> Iterator[ast.AST]:
    """Every AST node of a function's own body, skipping nested definitions
    (their bodies belong to their own :class:`FunctionInfo`) and lambda
    bodies (deferred execution)."""
    stack: list[ast.AST] = list(node.body)
    while stack:
        current = stack.pop()
        yield current
        if isinstance(current, ast.Lambda):
            continue
        for child in ast.iter_child_nodes(current):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            stack.append(child)


def module_aliases(function: FunctionInfo, index: ProjectIndex) -> dict[str, str]:
    module = index.modules.get(function.module)
    return module.import_aliases if module is not None else {}


def is_pool_constructor(
    call: ast.Call,
    function: FunctionInfo,
    index: ProjectIndex,
    aliases: dict[str, str],
) -> bool:
    dotted = dotted_call_name(call.func, aliases)
    if dotted in POOL_CONSTRUCTORS:
        return True
    target = index.resolve_call(function, call.func)
    return isinstance(target, FunctionInfo) and target.return_class in POOL_CLASS_NAMES


def pool_variables(
    function: FunctionInfo, index: ProjectIndex, aliases: dict[str, str]
) -> set[str]:
    """Local names of ``function`` that hold a process/thread pool."""
    pools = {
        name
        for name, cls in index._effective_local_types(function).items()
        if cls in POOL_CLASS_NAMES
    }
    for node in iter_own_nodes(function.node):
        if isinstance(node, ast.Assign):
            if (
                len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and isinstance(node.value, ast.Call)
                and is_pool_constructor(node.value, function, index, aliases)
            ):
                pools.add(node.targets[0].id)
        elif isinstance(node, ast.With):
            for item in node.items:
                if (
                    isinstance(item.optional_vars, ast.Name)
                    and isinstance(item.context_expr, ast.Call)
                    and is_pool_constructor(item.context_expr, function, index, aliases)
                ):
                    pools.add(item.optional_vars.id)
    return pools


@dataclass(frozen=True)
class SubmitSite:
    """One ``pool.submit(callable, ...)`` call inside ``function``."""

    function: FunctionInfo
    call: ast.Call
    #: The submitted callable expression (``None`` for an argless submit).
    target_expr: ast.expr | None


def submit_sites(
    function: FunctionInfo, index: ProjectIndex, aliases: dict[str, str]
) -> list[SubmitSite]:
    pools = pool_variables(function, index, aliases)
    if not pools:
        return []
    sites = []
    for node in iter_own_nodes(function.node):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr in SUBMIT_METHODS
            and isinstance(func.value, ast.Name)
            and func.value.id in pools
        ):
            target = node.args[0] if node.args else None
            sites.append(SubmitSite(function=function, call=node, target_expr=target))
    return sites


def resolve_submitted(
    site: SubmitSite, index: ProjectIndex
) -> FunctionInfo | None:
    """The project function a submit site hands to the pool, if resolvable."""
    expr = site.target_expr
    if expr is None or isinstance(expr, ast.Lambda):
        return None
    target = index.resolve_call(site.function, expr)
    return target if isinstance(target, FunctionInfo) else None
