"""Intraprocedural CFG + resource-lifecycle dataflow for reprolint.

This module grows reprolint from per-statement checks into a small flow
engine, in three layers:

* **CFG construction** — :func:`build_cfg` lowers one function body into
  basic blocks (one simple statement per block, explicit join blocks).
  ``try``/``finally`` is modelled by *duplicating* the ``finally`` body once
  per continuation kind (fall-through, raise, return, break, continue), so
  a release that only happens in a ``finally`` is visible on every path that
  runs it — and only on those.  Exception edges are taken *before* the
  statement's effect applies (an acquisition that raises never binds).
* **A forward dataflow solver** — :func:`solve_forward` iterates a
  transfer function to a fixpoint over the CFG with set-union joins at
  merge points.
* **A resource-state lattice** — :class:`ResourceTransfer` tracks, per
  local variable, the acquisition sites it may hold and whether each is
  released (``close``/``shutdown``), escaped (returned, yielded,
  stored into a container/attribute, or passed to an unknown callee) or
  still open.  :func:`analyse_resources` reports every site that can reach
  the function's normal or exceptional exit unreleased.

Cross-function knowledge reuses the project call graph for **one level of
helper inlining** (:func:`function_summary`): a helper that returns a fresh
resource is an acquisition site at its call sites, and a helper that
releases a parameter counts as a release of the argument.  Deeper chains are
treated as escapes — precision over recall, like the rest of reprolint.
"""

from __future__ import annotations

import ast
from collections import deque
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Callable, Iterable, Iterator

from .project import FunctionInfo, ProjectIndex, dotted_call_name

if TYPE_CHECKING:  # pragma: no cover - typing only
    pass

# --------------------------------------------------------------------------- #
# resource kinds
# --------------------------------------------------------------------------- #

POOL = "pool"
FILE = "file"

#: Fully-qualified constructors that acquire a resource of each kind.
POOL_CONSTRUCTORS = frozenset(
    {
        "concurrent.futures.ProcessPoolExecutor",
        "concurrent.futures.process.ProcessPoolExecutor",
        "concurrent.futures.ThreadPoolExecutor",
        "concurrent.futures.thread.ThreadPoolExecutor",
        "multiprocessing.Pool",
    }
)
FILE_CONSTRUCTORS = frozenset(
    {
        "open",
        "io.open",
        "gzip.open",
        "bz2.open",
        "lzma.open",
        "tempfile.TemporaryFile",
        "tempfile.NamedTemporaryFile",
    }
)

#: Method calls that release a tracked resource: ``shutdown`` a pool,
#: ``close`` a file handle (or a pool).
RELEASE_EFFECTS: dict[str, tuple[str, ...]] = {
    "close": ("closed",),
    "shutdown": ("closed",),
}

#: Calls that cannot meaningfully raise for lifecycle purposes: without this
#: set, the canonical ``finally: handle.close()`` pattern would itself spawn
#: an exceptional edge on which the handle is still open.
_SAFE_BUILTIN_CALLS = frozenset(
    {"len", "isinstance", "range", "enumerate", "zip", "repr", "id", "print"}
)
_SAFE_METHOD_CALLS = frozenset(
    {"append", "add", "items", "keys", "values", "get", "extend", "update"}
) | frozenset(RELEASE_EFFECTS)


@dataclass(frozen=True)
class ResourceSite:
    """One acquisition: a variable bound to a fresh resource at a location."""

    var: str
    kind: str
    line: int
    col: int


@dataclass(frozen=True)
class Status:
    """Lattice element: one acquisition site with its release/escape bits."""

    site: ResourceSite
    closed: bool = False
    escaped: bool = False

    @property
    def satisfied(self) -> bool:
        """Whether this state is terminal-safe at a function exit."""
        return self.escaped or self.closed


#: A dataflow environment: local name -> set of possible statuses.  A name
#: absent from the environment holds no tracked resource.
Env = dict[str, frozenset[Status]]


# --------------------------------------------------------------------------- #
# CFG
# --------------------------------------------------------------------------- #


@dataclass
class BasicBlock:
    """One CFG node: at most one statement, normal and exceptional edges."""

    index: int
    stmt: ast.stmt | None = None
    succs: list[int] = field(default_factory=list)
    exc_succs: list[int] = field(default_factory=list)
    preds: list[int] = field(default_factory=list)


@dataclass
class ControlFlowGraph:
    blocks: list[BasicBlock]
    entry: int
    exit: int
    raise_exit: int

    def reachable(self) -> set[int]:
        """Block indices reachable from the entry (normal or exception edge)."""
        seen: set[int] = set()
        queue = deque([self.entry])
        while queue:
            index = queue.popleft()
            if index in seen:
                continue
            seen.add(index)
            block = self.blocks[index]
            queue.extend(block.succs)
            queue.extend(block.exc_succs)
        return seen

    def blocks_for(self, stmt_type: type[ast.stmt]) -> list[BasicBlock]:
        return [
            block
            for block in self.blocks
            if block.stmt is not None and isinstance(block.stmt, stmt_type)
        ]


@dataclass(frozen=True)
class _Frame:
    """Where control transfers out of the current statement list go."""

    raise_to: int
    return_to: int
    break_to: int | None = None
    continue_to: int | None = None


def _guard_exprs(stmt: ast.stmt) -> list[ast.expr]:
    """The expressions a compound-statement header block evaluates."""
    if isinstance(stmt, (ast.If, ast.While)):
        return [stmt.test]
    if isinstance(stmt, ast.For):
        return [stmt.iter]
    if isinstance(stmt, ast.With):
        return [item.context_expr for item in stmt.items]
    if isinstance(stmt, ast.Match):
        return [stmt.subject]
    if isinstance(stmt, ast.Return):
        return [stmt.value] if stmt.value is not None else []
    if isinstance(stmt, ast.Assert):
        return [stmt.test] + ([stmt.msg] if stmt.msg is not None else [])
    return [stmt]  # simple statement: scan the whole node


def _may_raise(stmt: ast.stmt) -> bool:
    """Whether executing this (header) statement can raise: any unsafe call."""
    for expr in _guard_exprs(stmt):
        for node in ast.walk(expr):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Name) and func.id in _SAFE_BUILTIN_CALLS:
                continue
            if isinstance(func, ast.Attribute) and func.attr in _SAFE_METHOD_CALLS:
                continue
            return True
    return False


class _Builder:
    def __init__(self) -> None:
        self.blocks: list[BasicBlock] = []

    def new_block(self, stmt: ast.stmt | None = None) -> int:
        block = BasicBlock(index=len(self.blocks), stmt=stmt)
        self.blocks.append(block)
        return block.index

    def link(self, src: int, dst: int) -> None:
        if dst not in self.blocks[src].succs:
            self.blocks[src].succs.append(dst)
            self.blocks[dst].preds.append(src)

    def link_exc(self, src: int, dst: int) -> None:
        if dst not in self.blocks[src].exc_succs:
            self.blocks[src].exc_succs.append(dst)
            self.blocks[dst].preds.append(src)

    # ------------------------------------------------------------------ #
    def build_stmts(self, stmts: Iterable[ast.stmt], pred: int | None, frame: _Frame) -> int | None:
        current = pred
        for stmt in stmts:
            if current is None:
                # Dead code after a return/raise/break: build it as a
                # disconnected island so reachability queries see it.
                current = self.new_block()
            current = self.build_stmt(stmt, current, frame)
        return current

    def build_stmt(self, stmt: ast.stmt, pred: int, frame: _Frame) -> int | None:
        if isinstance(stmt, ast.Return):
            block = self.new_block(stmt)
            self.link(pred, block)
            if _may_raise(stmt):
                self.link_exc(block, frame.raise_to)
            self.link(block, frame.return_to)
            return None
        if isinstance(stmt, ast.Raise):
            block = self.new_block(stmt)
            self.link(pred, block)
            self.link(block, frame.raise_to)
            return None
        if isinstance(stmt, ast.Break):
            block = self.new_block(stmt)
            self.link(pred, block)
            if frame.break_to is not None:
                self.link(block, frame.break_to)
            return None
        if isinstance(stmt, ast.Continue):
            block = self.new_block(stmt)
            self.link(pred, block)
            if frame.continue_to is not None:
                self.link(block, frame.continue_to)
            return None
        if isinstance(stmt, ast.If):
            return self._build_if(stmt, pred, frame)
        if isinstance(stmt, (ast.While, ast.For)):
            return self._build_loop(stmt, pred, frame)
        if isinstance(stmt, ast.With):
            return self._build_with(stmt, pred, frame)
        if isinstance(stmt, ast.Try) or (
            hasattr(ast, "TryStar") and isinstance(stmt, ast.TryStar)
        ):
            return self._build_try(stmt, pred, frame)
        if isinstance(stmt, ast.Match):
            return self._build_match(stmt, pred, frame)
        # Simple statement (incl. nested def/class headers).
        block = self.new_block(stmt)
        self.link(pred, block)
        if _may_raise(stmt):
            self.link_exc(block, frame.raise_to)
        return block

    def _fallthrough(self, after: int) -> int | None:
        return after if self.blocks[after].preds else None

    def _build_if(self, stmt: ast.If, pred: int, frame: _Frame) -> int | None:
        test = self.new_block(stmt)
        self.link(pred, test)
        if _may_raise(stmt):
            self.link_exc(test, frame.raise_to)
        after = self.new_block()
        then_exit = self.build_stmts(stmt.body, test, frame)
        if then_exit is not None:
            self.link(then_exit, after)
        if stmt.orelse:
            else_exit = self.build_stmts(stmt.orelse, test, frame)
            if else_exit is not None:
                self.link(else_exit, after)
        else:
            self.link(test, after)
        return self._fallthrough(after)

    def _build_loop(self, stmt: ast.While | ast.For, pred: int, frame: _Frame) -> int | None:
        head = self.new_block(stmt)
        self.link(pred, head)
        if _may_raise(stmt):
            self.link_exc(head, frame.raise_to)
        after = self.new_block()
        body_frame = replace(frame, break_to=after, continue_to=head)
        body_exit = self.build_stmts(stmt.body, head, body_frame)
        if body_exit is not None:
            self.link(body_exit, head)
        infinite = (
            isinstance(stmt, ast.While)
            and isinstance(stmt.test, ast.Constant)
            and bool(stmt.test.value)
        )
        if not infinite:
            if stmt.orelse:
                else_exit = self.build_stmts(stmt.orelse, head, frame)
                if else_exit is not None:
                    self.link(else_exit, after)
            else:
                self.link(head, after)
        return self._fallthrough(after)

    def _build_with(self, stmt: ast.With, pred: int, frame: _Frame) -> int | None:
        block = self.new_block(stmt)
        self.link(pred, block)
        if _may_raise(stmt):
            self.link_exc(block, frame.raise_to)
        return self.build_stmts(stmt.body, block, frame)

    def _build_try(self, stmt: ast.Try, pred: int, frame: _Frame) -> int | None:
        after = self.new_block()
        if stmt.finalbody:
            copies: dict[int | None, int | None] = {}

            def finally_to(target: int | None) -> int | None:
                if target is None:
                    return None
                if target not in copies:
                    entry = self.new_block()
                    copies[target] = entry
                    tail = self.build_stmts(stmt.finalbody, entry, frame)
                    if tail is not None:
                        self.link(tail, target)
                return copies[target]

            raise_to = finally_to(frame.raise_to)
            return_to = finally_to(frame.return_to)
            assert raise_to is not None and return_to is not None
            inner_frame = _Frame(
                raise_to=raise_to,
                return_to=return_to,
                break_to=finally_to(frame.break_to),
                continue_to=finally_to(frame.continue_to),
            )
            normal_target = finally_to(after)
            assert normal_target is not None
        else:
            inner_frame = frame
            normal_target = after

        if stmt.handlers:
            dispatch = self.new_block()
            body_frame = replace(inner_frame, raise_to=dispatch)
        else:
            dispatch = None
            body_frame = inner_frame

        body_exit = self.build_stmts(stmt.body, pred, body_frame)
        if stmt.orelse and body_exit is not None:
            body_exit = self.build_stmts(stmt.orelse, body_exit, inner_frame)
        if body_exit is not None:
            self.link(body_exit, normal_target)

        if dispatch is not None:
            for handler in stmt.handlers:
                entry = self.new_block(handler)
                self.link(dispatch, entry)
                handler_exit = self.build_stmts(handler.body, entry, inner_frame)
                if handler_exit is not None:
                    self.link(handler_exit, normal_target)
            if not any(_catches_everything(handler) for handler in stmt.handlers):
                # No catch-all handler: an unmatched exception propagates.
                self.link(dispatch, inner_frame.raise_to)
        return self._fallthrough(after)

    def _build_match(self, stmt: ast.Match, pred: int, frame: _Frame) -> int | None:
        subject = self.new_block(stmt)
        self.link(pred, subject)
        if _may_raise(stmt):
            self.link_exc(subject, frame.raise_to)
        after = self.new_block()
        for case in stmt.cases:
            case_exit = self.build_stmts(case.body, subject, frame)
            if case_exit is not None:
                self.link(case_exit, after)
        self.link(subject, after)
        return self._fallthrough(after)


def _catches_everything(handler: ast.ExceptHandler) -> bool:
    """Bare ``except:`` or ``except BaseException:`` (``Exception`` is not a
    catch-all: KeyboardInterrupt/SystemExit still propagate)."""
    return handler.type is None or (
        isinstance(handler.type, ast.Name) and handler.type.id == "BaseException"
    )


def build_cfg(node: ast.FunctionDef | ast.AsyncFunctionDef) -> ControlFlowGraph:
    """Lower one function body into a :class:`ControlFlowGraph`."""
    builder = _Builder()
    entry = builder.new_block()
    normal_exit = builder.new_block()
    raise_exit = builder.new_block()
    frame = _Frame(raise_to=raise_exit, return_to=normal_exit)
    tail = builder.build_stmts(node.body, entry, frame)
    if tail is not None:
        builder.link(tail, normal_exit)
    return ControlFlowGraph(
        blocks=builder.blocks, entry=entry, exit=normal_exit, raise_exit=raise_exit
    )


# --------------------------------------------------------------------------- #
# dataflow solver
# --------------------------------------------------------------------------- #


def _join_into(in_envs: dict[int, Env], dst: int, incoming: Env) -> bool:
    current = in_envs.get(dst)
    if current is None:
        in_envs[dst] = dict(incoming)
        return True
    changed = False
    for var, states in incoming.items():
        merged = current.get(var, frozenset()) | states
        if merged != current.get(var):
            current[var] = merged
            changed = True
    return changed


def solve_forward(
    cfg: ControlFlowGraph,
    transfer: Callable[[ast.stmt, Env], Env],
    initial: Env | None = None,
) -> dict[int, Env]:
    """Fixpoint iteration; returns the env *entering* each reachable block.

    Exceptional edges propagate the block's **pre**-state: a statement that
    raises applies none of its effects.
    """
    in_envs: dict[int, Env] = {cfg.entry: dict(initial or {})}
    worklist = deque([cfg.entry])
    while worklist:
        index = worklist.popleft()
        block = cfg.blocks[index]
        env = in_envs[index]
        out_normal = transfer(block.stmt, env) if block.stmt is not None else env
        for dst in block.succs:
            if _join_into(in_envs, dst, out_normal):
                worklist.append(dst)
        for dst in block.exc_succs:
            if _join_into(in_envs, dst, env):
                worklist.append(dst)
    return in_envs


# --------------------------------------------------------------------------- #
# helper summaries (one level of call-graph inlining)
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class FunctionSummary:
    """What calling a project helper does to resources, one level deep."""

    #: Kind of fresh, still-owned resource the helper returns (or ``None``).
    acquires_kind: str | None = None
    #: Positional parameter names, for mapping call arguments.
    param_names: tuple[str, ...] = ()
    #: Parameter name -> release bits the helper applies to that argument.
    param_release: dict[str, tuple[str, ...]] = field(default_factory=dict)


def _classify_external(call: ast.Call, aliases: dict[str, str]) -> str | None:
    """Acquisition kind of a stdlib constructor call, or ``None``."""
    dotted = dotted_call_name(call.func, aliases)
    if dotted is None:
        return None
    if dotted in POOL_CONSTRUCTORS:
        return POOL
    if dotted in FILE_CONSTRUCTORS:
        return FILE
    return None


def function_summary(
    function: FunctionInfo,
    index: ProjectIndex,
    _cache: dict[str, FunctionSummary] | None = None,
    _in_progress: frozenset[str] = frozenset(),
) -> FunctionSummary:
    """Summarise one helper: what it acquires/releases, one level deep."""
    if _cache is not None and function.qualname in _cache:
        return _cache[function.qualname]
    if function.qualname in _in_progress:  # recursion: no summary
        return FunctionSummary()
    args = function.node.args
    param_names = tuple(a.arg for a in [*args.posonlyargs, *args.args])

    param_release: dict[str, tuple[str, ...]] = {}
    for node in ast.walk(function.node):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr in RELEASE_EFFECTS
            and isinstance(func.value, ast.Name)
            and func.value.id in param_names
        ):
            existing = param_release.get(func.value.id, ())
            merged = tuple(dict.fromkeys(existing + RELEASE_EFFECTS[func.attr]))
            param_release[func.value.id] = merged

    # Does the helper hand back a live resource it still owns at the return?
    acquires: str | None = None
    analysis = analyse_resources(
        function, index, summaries=None, _in_progress=_in_progress | {function.qualname}
    )
    aliases = _module_aliases(function, index)
    for block in analysis.cfg.blocks_for(ast.Return):
        stmt = block.stmt
        assert isinstance(stmt, ast.Return)
        value = stmt.value
        if isinstance(value, ast.Call):
            acquires = _classify_external(value, aliases) or acquires
        elif isinstance(value, ast.Name):
            env = analysis.in_envs.get(block.index, {})
            for status in env.get(value.id, frozenset()):
                if not status.escaped and not status.satisfied:
                    acquires = status.site.kind
    summary = FunctionSummary(
        acquires_kind=acquires, param_names=param_names, param_release=param_release
    )
    if _cache is not None:
        _cache[function.qualname] = summary
    return summary


def _module_aliases(function: FunctionInfo, index: ProjectIndex) -> dict[str, str]:
    module = index.modules.get(function.module)
    return module.import_aliases if module is not None else {}


# --------------------------------------------------------------------------- #
# resource transfer function
# --------------------------------------------------------------------------- #


class ResourceTransfer:
    """Gen/kill transfer over :data:`Env` for one function."""

    def __init__(
        self,
        function: FunctionInfo,
        index: ProjectIndex,
        summaries: dict[str, FunctionSummary] | None,
        _in_progress: frozenset[str] = frozenset(),
    ) -> None:
        self.function = function
        self.index = index
        self.summaries = summaries
        self.aliases = _module_aliases(function, index)
        self._in_progress = _in_progress

    # -- classification -------------------------------------------------- #
    def classify(self, call: ast.Call) -> str | None:
        kind = _classify_external(call, self.aliases)
        if kind is not None:
            return kind
        summary = self._callee_summary(call)
        if summary is not None:
            return summary.acquires_kind
        return None

    def _callee_summary(self, call: ast.Call) -> FunctionSummary | None:
        if self.summaries is None:
            return None
        target = self.index.resolve_call(self.function, call.func)
        if isinstance(target, FunctionInfo):
            return function_summary(
                target, self.index, self.summaries, self._in_progress
            )
        return None

    # -- env helpers ------------------------------------------------------ #
    @staticmethod
    def _escape(env: Env, name: str) -> None:
        states = env.get(name)
        if states:
            env[name] = frozenset(replace(s, escaped=True) for s in states)

    @staticmethod
    def _apply_release(env: Env, name: str, bits: tuple[str, ...]) -> None:
        states = env.get(name)
        if not states:
            return
        updated = set()
        for status in states:
            for bit in bits:
                status = replace(status, **{bit: True})
            updated.add(status)
        env[name] = frozenset(updated)

    # -- call effects ------------------------------------------------------ #
    def _process_calls(self, expr: ast.expr, env: Env) -> None:
        for node in ast.walk(expr):
            if isinstance(node, (ast.Yield, ast.YieldFrom)):
                value = node.value
                if isinstance(value, ast.Name):
                    self._escape(env, value.id)
                continue
            if not isinstance(node, ast.Call):
                continue
            handled_args: set[str] = set()
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr in RELEASE_EFFECTS
                and isinstance(func.value, ast.Name)
                and func.value.id in env
            ):
                self._apply_release(env, func.value.id, RELEASE_EFFECTS[func.attr])
            summary = self._callee_summary(node)
            if summary is not None and summary.param_release:
                for position, arg in enumerate(node.args):
                    if position >= len(summary.param_names):
                        break
                    param = summary.param_names[position]
                    if param in summary.param_release and isinstance(arg, ast.Name):
                        self._apply_release(env, arg.id, summary.param_release[param])
                        handled_args.add(arg.id)
                for keyword in node.keywords:
                    if (
                        keyword.arg in summary.param_release
                        and isinstance(keyword.value, ast.Name)
                    ):
                        self._apply_release(
                            env, keyword.value.id, summary.param_release[keyword.arg]
                        )
                        handled_args.add(keyword.value.id)
            # Any other tracked name handed to a call escapes our reasoning.
            for arg in [*node.args, *[k.value for k in node.keywords]]:
                if isinstance(arg, ast.Starred):
                    arg = arg.value
                if isinstance(arg, ast.Name) and arg.id not in handled_args:
                    self._escape(env, arg.id)

    # -- statement transfer ------------------------------------------------ #
    def __call__(self, stmt: ast.stmt, env: Env) -> Env:
        env = dict(env)
        if isinstance(stmt, ast.Assign):
            self._assign(stmt.targets, stmt.value, env)
        elif isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                self._assign([stmt.target], stmt.value, env)
        elif isinstance(stmt, ast.AugAssign):
            self._process_calls(stmt.value, env)
        elif isinstance(stmt, ast.Expr):
            self._process_calls(stmt.value, env)
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                self._process_calls(stmt.value, env)
                if isinstance(stmt.value, ast.Name):
                    self._escape(env, stmt.value.id)
        elif isinstance(stmt, ast.Raise):
            for expr in (stmt.exc, stmt.cause):
                if expr is not None:
                    self._process_calls(expr, env)
        elif isinstance(stmt, (ast.If, ast.While, ast.Match, ast.Assert)):
            for expr in _guard_exprs(stmt):
                self._process_calls(expr, env)
        elif isinstance(stmt, ast.For):
            self._process_calls(stmt.iter, env)
            for name in _target_names(stmt.target):
                env.pop(name, None)
        elif isinstance(stmt, ast.With):
            self._with_items(stmt, env)
        elif isinstance(stmt, ast.ExceptHandler):
            if stmt.name:
                env.pop(stmt.name, None)
        # Delete keeps the tracked state: ``del seg`` is not a release and
        # must not hide a leak.
        return env

    def _with_items(self, stmt: ast.With, env: Env) -> None:
        for item in stmt.items:
            self._process_calls(item.context_expr, env)
            var = item.optional_vars
            if not isinstance(var, ast.Name):
                continue
            kind = (
                self.classify(item.context_expr)
                if isinstance(item.context_expr, ast.Call)
                else None
            )
            if kind is not None:
                # Context-managed: __exit__ releases it on every path.
                site = ResourceSite(
                    var=var.id,
                    kind=kind,
                    line=item.context_expr.lineno,
                    col=item.context_expr.col_offset,
                )
                env[var.id] = frozenset({Status(site=site, closed=True)})
            else:
                env.pop(var.id, None)

    def _assign(self, targets: list[ast.expr], value: ast.expr, env: Env) -> None:
        self._process_calls(value, env)
        single = targets[0] if len(targets) == 1 else None
        if isinstance(single, ast.Name) and isinstance(value, ast.Call):
            kind = self.classify(value)
            if kind is not None:
                site = ResourceSite(
                    var=single.id, kind=kind, line=value.lineno, col=value.col_offset
                )
                env[single.id] = frozenset({Status(site=site)})
                return
        if isinstance(value, ast.Name) and value.id in env:
            # Aliasing (or storing into a container/attribute): stop claiming
            # precise ownership of either name.
            self._escape(env, value.id)
            if isinstance(single, ast.Name):
                env[single.id] = env[value.id]
                return
        for target in targets:
            for name in _target_names(target):
                env.pop(name, None)


def _target_names(target: ast.expr) -> Iterator[str]:
    if isinstance(target, ast.Name):
        yield target.id
    elif isinstance(target, (ast.Tuple, ast.List)):
        for element in target.elts:
            yield from _target_names(element)
    elif isinstance(target, ast.Starred):
        yield from _target_names(target.value)


# --------------------------------------------------------------------------- #
# per-function analysis
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class ResourceLeak:
    site: ResourceSite
    #: Unreleased at the normal exit on some path.
    on_normal_exit: bool
    #: Unreleased at the exceptional exit on some path.
    on_raise_exit: bool


@dataclass
class ResourceAnalysis:
    """Flow-analysis result for one function."""

    function: FunctionInfo
    cfg: ControlFlowGraph
    in_envs: dict[int, Env]
    leaks: list[ResourceLeak]


def analyse_resources(
    function: FunctionInfo,
    index: ProjectIndex,
    summaries: dict[str, FunctionSummary] | None = None,
    _in_progress: frozenset[str] = frozenset(),
) -> ResourceAnalysis:
    """Run the resource-lifecycle dataflow over one function."""
    cfg = build_cfg(function.node)
    transfer = ResourceTransfer(function, index, summaries, _in_progress)
    in_envs = solve_forward(cfg, transfer)

    unsatisfied: dict[ResourceSite, list[bool]] = {}
    for exit_index, slot in ((cfg.exit, 0), (cfg.raise_exit, 1)):
        env = in_envs.get(exit_index, {})
        for states in env.values():
            for status in states:
                if not status.satisfied:
                    unsatisfied.setdefault(status.site, [False, False])[slot] = True
    leaks = [
        ResourceLeak(site=site, on_normal_exit=flags[0], on_raise_exit=flags[1])
        for site, flags in sorted(
            unsatisfied.items(), key=lambda item: (item[0].line, item[0].col)
        )
    ]
    return ResourceAnalysis(
        function=function,
        cfg=cfg,
        in_envs=in_envs,
        leaks=leaks,
    )
