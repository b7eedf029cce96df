"""RL007 — fork-safety of functions handed to a process pool.

A fork-pool worker runs a *copy* of the parent's memory: anything it writes
to module-global state is silently lost (or, under a future spawn context,
never existed), anything it reads from the wall clock or an ambient RNG
breaks the bit-identical parity contracts, and a non-module-level callable
does not even pickle under spawn.  Locks created before the pool forks are
duplicated in a possibly-held state — the classic fork deadlock.

Four checks:

* the callable handed to ``pool.submit(...)`` (and friends) must be a
  module-level function — no lambdas, closures or bound methods;
* nothing reachable from it (through the project call graph) may *mutate*
  module-global state: ``global`` rebinding, subscript/attribute stores on
  module-level names, or mutating method calls on them;
* nothing reachable from it may read the wall clock (outside the RL001
  allowlist) or an ambient RNG stream (seeded constructors are fine —
  they're explicit, not ambient);
* no ``threading.Thread``/``Lock``/... may be constructed earlier in a
  module that also constructs a process pool.
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Iterable, Iterator

from . import Rule, RuleContext, register_rule
from ..project import FunctionInfo, ProjectIndex, dotted_call_name, module_dotted_name
from ._concurrency import (
    CHECKED_TOP_DIRS,
    iter_own_nodes,
    module_aliases,
    resolve_submitted,
    submit_sites,
)
from ..flow import POOL_CONSTRUCTORS
from .rl001_determinism import (
    NUMPY_SEEDABLE_CONSTRUCTORS,
    WALL_CLOCK_ALLOWLIST,
    WALL_CLOCK_CALLS,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..model import Finding, SourceFile

#: ``threading`` constructors that must not precede a pool in a module.
_THREADING_CONSTRUCTORS = frozenset(
    {
        "Thread",
        "Lock",
        "RLock",
        "Condition",
        "Event",
        "Semaphore",
        "BoundedSemaphore",
        "Barrier",
        "Timer",
    }
)

#: Method calls that mutate their receiver in place.
_MUTATOR_METHODS = frozenset(
    {
        "append",
        "add",
        "extend",
        "insert",
        "update",
        "setdefault",
        "pop",
        "popitem",
        "remove",
        "discard",
        "clear",
    }
)


def _base_name(expr: ast.expr) -> str | None:
    """Innermost ``Name`` of an attribute/subscript chain."""
    while isinstance(expr, (ast.Attribute, ast.Subscript)):
        expr = expr.value
    return expr.id if isinstance(expr, ast.Name) else None


@register_rule
class ForkSafetyRule(Rule):
    id = "RL007"
    title = "fork-pool submitted functions: module-level, deterministic, no global mutation"

    # ---------------------- project-level walk ------------------------- #
    def check_project(self, context: RuleContext) -> Iterable["Finding"]:
        if context.index is None:
            return []
        return list(self._walk(context))

    def _walk(self, context: RuleContext) -> Iterator["Finding"]:
        from ..model import Finding

        index = context.index
        assert index is not None
        globals_by_module = {
            module_dotted_name(f.relative_path): _module_level_names(f.tree)
            for f in context.files
        }
        checked_workers: set[str] = set()
        for function in index.iter_functions():
            if function.relative_path.split("/", 1)[0] not in CHECKED_TOP_DIRS:
                continue
            aliases = module_aliases(function, index)
            for site in submit_sites(function, index, aliases):
                if isinstance(site.target_expr, ast.Lambda):
                    yield Finding(
                        rule=self.id,
                        path=function.relative_path,
                        line=site.target_expr.lineno,
                        col=site.target_expr.col_offset,
                        message=(
                            "lambda submitted to the fork pool; workers must "
                            "be module-level functions (picklable under any "
                            "start method)"
                        ),
                        symbol=function.qualname,
                    )
                    continue
                worker = resolve_submitted(site, index)
                if worker is None or worker.qualname in checked_workers:
                    continue
                checked_workers.add(worker.qualname)
                if worker.parent is not None or worker.class_name is not None:
                    yield Finding(
                        rule=self.id,
                        path=function.relative_path,
                        line=site.call.lineno,
                        col=site.call.col_offset,
                        message=(
                            f"{worker.qualname} submitted to the fork pool is "
                            "not a module-level function; closures/methods "
                            "capture parent state and do not pickle under "
                            "spawn"
                        ),
                        symbol=function.qualname,
                    )
                    continue
                yield from self._check_worker(worker, index, globals_by_module)

    def _check_worker(
        self,
        worker: FunctionInfo,
        index: ProjectIndex,
        globals_by_module: dict[str, set[str]],
    ) -> Iterator["Finding"]:
        for reached in index.reachable_functions(worker):
            module_globals = globals_by_module.get(reached.module, set())
            yield from self._scan_global_mutation(worker, reached, module_globals)
            yield from self._scan_clock_rng(worker, reached, index)

    def _scan_global_mutation(
        self, worker: FunctionInfo, function: FunctionInfo, module_globals: set[str]
    ) -> Iterator["Finding"]:
        from ..model import Finding

        declared_global: set[str] = set()
        for node in iter_own_nodes(function.node):
            if isinstance(node, ast.Global):
                declared_global.update(node.names)

        def finding(line: int, col: int, what: str) -> "Finding":
            return Finding(
                rule=self.id,
                path=function.relative_path,
                line=line,
                col=col,
                message=(
                    f"{function.qualname} (reachable from fork-pool worker "
                    f"{worker.qualname}) {what}; a forked worker's write to "
                    "module-global state is silently lost in the parent"
                ),
                symbol=worker.qualname,
            )

        for node in iter_own_nodes(function.node):
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    if isinstance(target, ast.Name) and target.id in declared_global:
                        yield finding(
                            target.lineno,
                            target.col_offset,
                            f"rebinds module global {target.id!r}",
                        )
                    elif isinstance(target, (ast.Attribute, ast.Subscript)):
                        base = _base_name(target)
                        if base is not None and base in module_globals:
                            yield finding(
                                target.lineno,
                                target.col_offset,
                                f"stores into module-global {base!r}",
                            )
            elif isinstance(node, ast.Call):
                func = node.func
                if (
                    isinstance(func, ast.Attribute)
                    and func.attr in _MUTATOR_METHODS
                    and isinstance(func.value, ast.Name)
                    and func.value.id in module_globals
                ):
                    yield finding(
                        node.lineno,
                        node.col_offset,
                        f"mutates module-global {func.value.id!r} "
                        f"({func.value.id}.{func.attr}(...))",
                    )

    def _scan_clock_rng(
        self, worker: FunctionInfo, function: FunctionInfo, index: ProjectIndex
    ) -> Iterator["Finding"]:
        from ..model import Finding

        aliases = module_aliases(function, index)
        clock_exempt = function.relative_path in WALL_CLOCK_ALLOWLIST
        for node in iter_own_nodes(function.node):
            if not isinstance(node, ast.Call):
                continue
            dotted = dotted_call_name(node.func, aliases)
            if dotted is None:
                continue
            message: str | None = None
            if dotted in WALL_CLOCK_CALLS and not clock_exempt:
                message = f"reads the wall clock ({dotted})"
            elif dotted.startswith("random.") and dotted != "random.Random":
                message = f"reads the ambient random stream ({dotted})"
            elif dotted.startswith("numpy.random."):
                head = dotted[len("numpy.random.") :].split(".", 1)[0]
                if head not in NUMPY_SEEDABLE_CONSTRUCTORS:
                    message = f"reads the ambient numpy random stream ({dotted})"
            if message is not None:
                yield Finding(
                    rule=self.id,
                    path=function.relative_path,
                    line=node.lineno,
                    col=node.col_offset,
                    message=(
                        f"{function.qualname} (reachable from fork-pool worker "
                        f"{worker.qualname}) {message}; workers must be "
                        "deterministic so any scheduling yields identical bytes"
                    ),
                    symbol=worker.qualname,
                )

    # ---------------------- thread-before-pool ------------------------- #
    def check_file(
        self, source_file: "SourceFile", context: RuleContext
    ) -> Iterable["Finding"]:
        if source_file.top_level_dir not in CHECKED_TOP_DIRS:
            return []
        aliases: dict[str, str] = {}
        if context.index is not None:
            module = context.index.modules.get(
                module_dotted_name(source_file.relative_path)
            )
            if module is not None:
                aliases = module.import_aliases
        return list(self._scan_thread_before_pool(source_file, aliases))

    def _scan_thread_before_pool(
        self, source_file: "SourceFile", aliases: dict[str, str]
    ) -> Iterator["Finding"]:
        from ..model import Finding

        pool_lines = []
        threading_ctors = []
        for node in ast.walk(source_file.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = dotted_call_name(node.func, aliases)
            if dotted is None:
                continue
            if dotted in POOL_CONSTRUCTORS:
                pool_lines.append(node.lineno)
            elif (
                dotted.startswith("threading.")
                and dotted.split(".", 1)[1] in _THREADING_CONSTRUCTORS
            ):
                threading_ctors.append((node, dotted))
        if not pool_lines:
            return
        first_pool = min(pool_lines)
        for node, dotted in threading_ctors:
            if node.lineno < first_pool:
                yield Finding(
                    rule=self.id,
                    path=source_file.relative_path,
                    line=node.lineno,
                    col=node.col_offset,
                    message=(
                        f"{dotted} constructed before the process pool "
                        f"(line {first_pool}) in the same module; a lock held "
                        "at fork time is copied locked into every worker"
                    ),
                )


def _module_level_names(tree: ast.Module) -> set[str]:
    names: set[str] = set()
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                names.update(_flat_names(target))
        elif isinstance(stmt, (ast.AnnAssign, ast.AugAssign)):
            if isinstance(stmt.target, ast.Name):
                names.add(stmt.target.id)
    return names


def _flat_names(target: ast.expr) -> Iterator[str]:
    if isinstance(target, ast.Name):
        yield target.id
    elif isinstance(target, (ast.Tuple, ast.List)):
        for element in target.elts:
            yield from _flat_names(element)
