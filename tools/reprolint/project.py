"""A lightweight whole-project index: modules, classes, functions, call edges.

Built once per run from the parsed ASTs, the index gives rules three things:

* **import aliasing** — ``np.random.default_rng`` is recognised whatever the
  module called ``numpy`` (RL001);
* **class/attribute typing** — a small, deliberately conservative inference
  pass (parameter annotations, ``self.x = Ctor(...)`` in ``__init__``,
  dataclass field annotations, return annotations) so method calls can be
  resolved to the class that actually receives them;
* **a call graph** — :meth:`ProjectIndex.reachable_functions` walks from an
  entry point through resolvable calls (RL007's fork-safety walk).

The resolver favours *precision over recall*: an attribute call whose
receiver type cannot be inferred is linked only when exactly one function in
the whole project bears that method name; otherwise the edge is dropped.  A
dropped edge can hide a violation, but a fabricated edge would drown the rule
in false positives — and the runtime parity tests remain the backstop.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .model import SourceFile


@dataclass
class FunctionInfo:
    """One function or method (nested functions get their own entry)."""

    qualname: str  # e.g. "repro.core.tuner.MabTuner.begin_round"
    name: str
    module: str  # dotted module name
    relative_path: str
    node: ast.FunctionDef | ast.AsyncFunctionDef
    class_name: str | None = None
    parent: "FunctionInfo | None" = None
    children: dict[str, "FunctionInfo"] = field(default_factory=dict)
    #: Call/reference expressions recorded for later resolution.
    call_sites: list[ast.expr] = field(default_factory=list)
    #: Conservative local variable typing: name -> project class name.
    local_types: dict[str, str] = field(default_factory=dict)
    #: ``name = some_call()`` assignments, typed once the index is complete.
    pending_call_types: list[tuple[str, ast.Call]] = field(default_factory=list)

    @property
    def return_class(self) -> str | None:
        return _annotation_class_name(self.node.returns)


@dataclass
class ClassInfo:
    name: str
    module: str
    relative_path: str
    node: ast.ClassDef
    methods: dict[str, FunctionInfo] = field(default_factory=dict)
    #: ``self.<attr>`` -> project class name (from __init__ and field types).
    attr_types: dict[str, str] = field(default_factory=dict)
    bases: tuple[str, ...] = ()


@dataclass
class ModuleInfo:
    dotted: str
    relative_path: str
    functions: dict[str, FunctionInfo] = field(default_factory=dict)
    classes: dict[str, ClassInfo] = field(default_factory=dict)
    #: local name -> fully dotted target ("np" -> "numpy",
    #: "create_tuner" -> "repro.api.registry.create_tuner").
    import_aliases: dict[str, str] = field(default_factory=dict)


def module_dotted_name(relative_path: str) -> str:
    """Dotted module name for a repo-relative path (src layout aware)."""
    parts = relative_path.split("/")
    if parts[0] == "src":
        parts = parts[1:]
    if not parts:
        return relative_path
    last = parts[-1]
    if last.endswith(".py"):
        last = last[: -len(".py")]
    parts = parts[:-1] + ([last] if last != "__init__" else [])
    return ".".join(parts) if parts else relative_path


def _annotation_class_name(annotation: ast.expr | None) -> str | None:
    """The bare class name an annotation resolves to, if it is a plain name.

    Handles string annotations (``-> "LinearScorer"``) and dotted names
    (takes the last component); gives up on unions, generics and ``None``.
    """
    if annotation is None:
        return None
    if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
        try:
            annotation = ast.parse(annotation.value, mode="eval").body
        except SyntaxError:
            return None
    if isinstance(annotation, ast.Name):
        return annotation.id
    if isinstance(annotation, ast.Attribute):
        return annotation.attr
    return None


def dotted_call_name(node: ast.expr, aliases: dict[str, str]) -> str | None:
    """Fully-qualified dotted name of a call target, through import aliases.

    ``np.random.default_rng`` with ``import numpy as np`` resolves to
    ``numpy.random.default_rng``; ``randint`` with ``from random import
    randint`` resolves to ``random.randint``.  Returns ``None`` when the
    expression is not a plain (possibly dotted) name.
    """
    parts: list[str] = []
    current = node
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if not isinstance(current, ast.Name):
        return None
    parts.append(current.id)
    parts.reverse()
    head = aliases.get(parts[0], parts[0])
    return ".".join([head, *parts[1:]])


class _FunctionCollector(ast.NodeVisitor):
    """Collects functions/classes of one module without crossing scopes."""

    def __init__(self, module: ModuleInfo):
        self.module = module
        self._class_stack: list[ClassInfo] = []
        self._function_stack: list[FunctionInfo] = []

    # -------------------------- imports ------------------------------- #
    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            local = alias.asname or alias.name.split(".")[0]
            target = alias.name if alias.asname else alias.name.split(".")[0]
            self.module.import_aliases[local] = target

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        base = node.module or ""
        if node.level:
            package_parts = self.module.dotted.split(".")
            # Drop the module's own name, then one more per extra level.
            anchor = package_parts[: len(package_parts) - node.level]
            base = ".".join(anchor + ([base] if base else []))
        for alias in node.names:
            if alias.name == "*":
                continue
            local = alias.asname or alias.name
            self.module.import_aliases[local] = (
                f"{base}.{alias.name}" if base else alias.name
            )

    # -------------------------- defs ----------------------------------- #
    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        bases = tuple(
            name for name in (_annotation_class_name(base) for base in node.bases) if name
        )
        info = ClassInfo(
            name=node.name,
            module=self.module.dotted,
            relative_path=self.module.relative_path,
            node=node,
            bases=bases,
        )
        # Dataclass-style field annotations type the instance attributes.
        for statement in node.body:
            if isinstance(statement, ast.AnnAssign) and isinstance(
                statement.target, ast.Name
            ):
                annotated = _annotation_class_name(statement.annotation)
                if annotated:
                    info.attr_types[statement.target.id] = annotated
        self.module.classes[node.name] = info
        self._class_stack.append(info)
        for statement in node.body:
            self.visit(statement)
        self._class_stack.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._collect_function(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._collect_function(node)

    def _collect_function(self, node: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        parent = self._function_stack[-1] if self._function_stack else None
        enclosing_class = self._class_stack[-1] if self._class_stack and parent is None else None
        if parent is not None:
            qualname = f"{parent.qualname}.{node.name}"
        else:
            scope = f".{enclosing_class.name}" if enclosing_class is not None else ""
            qualname = f"{self.module.dotted}{scope}.{node.name}"
        info = FunctionInfo(
            qualname=qualname,
            name=node.name,
            module=self.module.dotted,
            relative_path=self.module.relative_path,
            node=node,
            class_name=enclosing_class.name if enclosing_class else (
                parent.class_name if parent else None
            ),
            parent=parent,
        )
        if parent is not None:
            parent.children[node.name] = info
        elif enclosing_class is not None:
            enclosing_class.methods[node.name] = info
        else:
            self.module.functions[node.name] = info

        self._seed_parameter_types(info)
        self._scan_body(info)

        self._function_stack.append(info)
        for statement in node.body:
            if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._collect_function(statement)
            elif isinstance(statement, ast.ClassDef):
                self.visit_ClassDef(statement)
            else:
                self._visit_nested_defs(statement)
        self._function_stack.pop()

        if info.name == "__init__" and enclosing_class is not None:
            self._harvest_init_attr_types(enclosing_class, info)

    def _visit_nested_defs(self, node: ast.AST) -> None:
        """Recurse into nested function/class definitions only."""
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._collect_function(child)
            elif isinstance(child, ast.ClassDef):
                self.visit_ClassDef(child)
            else:
                self._visit_nested_defs(child)

    def _seed_parameter_types(self, info: FunctionInfo) -> None:
        args = info.node.args
        for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
            annotated = _annotation_class_name(arg.annotation)
            if annotated:
                info.local_types[arg.arg] = annotated

    def _scan_body(self, info: FunctionInfo) -> None:
        """Record call sites and local assignments.

        Stops at nested function/class boundaries — their bodies belong to
        their own :class:`FunctionInfo`.
        """

        def scan(node: ast.AST) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(
                    child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
                ):
                    continue
                if isinstance(child, ast.Assign):
                    self._record_local_type(info, child.targets, child.value)
                elif isinstance(child, ast.AnnAssign):
                    # Scan the value but not the annotation: a bare class
                    # name in an annotation is not a constructor call.
                    if child.value is not None:
                        scan(child.value)
                    continue
                elif isinstance(child, ast.Call):
                    info.call_sites.append(child)
                elif isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load):
                    # A bare reference can be a callback handed to an executor.
                    info.call_sites.append(child)
                scan(child)

        # Scan only the body: parameter/return annotations are type
        # references, not calls or callback hand-offs.
        scan(ast.Module(body=list(info.node.body), type_ignores=[]))

    def _record_local_type(
        self, info: FunctionInfo, targets: list[ast.expr], value: ast.expr
    ) -> None:
        if len(targets) != 1 or not isinstance(targets[0], ast.Name):
            return
        name = targets[0].id
        if isinstance(value, ast.Name):
            existing = info.local_types.get(value.id)
            if existing:
                info.local_types[name] = existing
        elif isinstance(value, ast.Call):
            # Typed during a second pass, once the whole index is built and
            # the callee's return annotation can be resolved.
            info.pending_call_types.append((name, value))

    def _harvest_init_attr_types(self, cls: ClassInfo, init: FunctionInfo) -> None:
        for statement in ast.walk(init.node):
            if not isinstance(statement, ast.Assign) or len(statement.targets) != 1:
                continue
            target = statement.targets[0]
            if not (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                continue
            value = statement.value
            inferred: str | None = None
            if isinstance(value, ast.Call) and isinstance(value.func, ast.Name):
                inferred = value.func.id
            elif isinstance(value, ast.Name):
                inferred = init.local_types.get(value.id)
            if inferred:
                cls.attr_types.setdefault(target.attr, inferred)


#: Method names shared with the builtin containers/str: the unique-global-name
#: fallback must never link these, or every ``some_set.update(...)`` would be
#: resolved to a project method that happens to share the name.
_BUILTIN_METHOD_NAMES = frozenset(
    {
        "add",
        "append",
        "clear",
        "copy",
        "count",
        "discard",
        "extend",
        "format",
        "get",
        "index",
        "insert",
        "items",
        "join",
        "keys",
        "pop",
        "popitem",
        "remove",
        "reverse",
        "setdefault",
        "sort",
        "split",
        "strip",
        "update",
        "values",
        "write",
    }
)


class ProjectIndex:
    """Modules, classes and functions of every scanned file, plus resolution."""

    def __init__(self) -> None:
        self.modules: dict[str, ModuleInfo] = {}
        self.classes_by_name: dict[str, list[ClassInfo]] = {}
        self.methods_by_name: dict[str, list[FunctionInfo]] = {}

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    @classmethod
    def build(cls, files: Iterable["SourceFile"]) -> "ProjectIndex":
        index = cls()
        for source_file in files:
            module = ModuleInfo(
                dotted=module_dotted_name(source_file.relative_path),
                relative_path=source_file.relative_path,
            )
            _FunctionCollector(module).visit(source_file.tree)
            index.modules[module.dotted] = module
        for module in index.modules.values():
            for class_info in module.classes.values():
                index.classes_by_name.setdefault(class_info.name, []).append(class_info)
                for method in class_info.methods.values():
                    index.methods_by_name.setdefault(method.name, []).append(method)
        index._resolve_pending_call_types()
        return index

    def _resolve_pending_call_types(self) -> None:
        for function in self.iter_functions():
            for name, call in function.pending_call_types:
                resolved = self._infer_call_type(function, call)
                if resolved:
                    function.local_types[name] = resolved

    # ------------------------------------------------------------------ #
    # lookups
    # ------------------------------------------------------------------ #
    def iter_functions(self) -> Iterable[FunctionInfo]:
        def walk(function: FunctionInfo) -> Iterable[FunctionInfo]:
            yield function
            for child in function.children.values():
                yield from walk(child)

        for module in self.modules.values():
            for function in module.functions.values():
                yield from walk(function)
            for class_info in module.classes.values():
                for method in class_info.methods.values():
                    yield from walk(method)

    def find_class(self, name: str, preferred_module: str | None = None) -> ClassInfo | None:
        candidates = self.classes_by_name.get(name, [])
        if not candidates:
            return None
        if preferred_module is not None:
            for candidate in candidates:
                if candidate.module == preferred_module:
                    return candidate
        return candidates[0]

    def class_method(self, class_name: str, method: str) -> FunctionInfo | None:
        """Look ``method`` up on ``class_name``, walking base classes by name."""
        seen: set[str] = set()
        queue = [class_name]
        while queue:
            current = queue.pop(0)
            if current in seen:
                continue
            seen.add(current)
            class_info = self.find_class(current)
            if class_info is None:
                continue
            if method in class_info.methods:
                return class_info.methods[method]
            queue.extend(class_info.bases)
        return None

    # ------------------------------------------------------------------ #
    # resolution
    # ------------------------------------------------------------------ #
    def _effective_local_types(self, function: FunctionInfo) -> dict[str, str]:
        """Local types including those inherited from enclosing functions."""
        chain: list[FunctionInfo] = []
        current: FunctionInfo | None = function
        while current is not None:
            chain.append(current)
            current = current.parent
        merged: dict[str, str] = {}
        for enclosing in reversed(chain):
            merged.update(enclosing.local_types)
        return merged

    def _infer_receiver_type(
        self, function: FunctionInfo, node: ast.expr
    ) -> str | None:
        local_types = self._effective_local_types(function)
        if isinstance(node, ast.Name):
            if node.id == "self" and function.class_name:
                return function.class_name
            return local_types.get(node.id)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            owner = (
                function.class_name
                if node.value.id == "self" and function.class_name
                else local_types.get(node.value.id)
            )
            if owner:
                class_info = self.find_class(owner)
                if class_info:
                    return class_info.attr_types.get(node.attr)
        if isinstance(node, ast.Call):
            return self._infer_call_type(function, node)
        return None

    def _infer_call_type(self, function: FunctionInfo, call: ast.Call) -> str | None:
        """Class produced by a call: constructor or annotated return type."""
        callee = self.resolve_call(function, call.func)
        if isinstance(callee, ClassInfo):
            return callee.name
        if isinstance(callee, FunctionInfo):
            return callee.return_class
        return None

    def resolve_call(
        self, function: FunctionInfo, func_expr: ast.expr
    ) -> "FunctionInfo | ClassInfo | None":
        """Resolve a call expression to a project function or class."""
        module = self.modules.get(function.module)
        if isinstance(func_expr, ast.Name):
            name = func_expr.id
            # Nested sibling / enclosing-scope function.
            current: FunctionInfo | None = function
            while current is not None:
                if name in current.children:
                    return current.children[name]
                if current.name == name:
                    return current
                current = current.parent
            if module is not None:
                if name in module.functions:
                    return module.functions[name]
                if name in module.classes:
                    return module.classes[name]
                alias = module.import_aliases.get(name)
                if alias is not None:
                    return self._resolve_dotted(alias)
            # Same-class method referenced without self (rare) — skip.
            return None
        if isinstance(func_expr, ast.Attribute):
            receiver = self._infer_receiver_type(function, func_expr.value)
            if receiver is not None:
                method = self.class_method(receiver, func_expr.attr)
                if method is not None:
                    return method
                # Known receiver but unknown method: do not fall through to
                # the global name match, which could link a different class.
                return None
            if func_expr.attr not in _BUILTIN_METHOD_NAMES:
                candidates = self.methods_by_name.get(func_expr.attr, [])
                if len(candidates) == 1:
                    return candidates[0]
        return None

    def _resolve_dotted(self, dotted: str) -> "FunctionInfo | ClassInfo | None":
        module_part, _, name = dotted.rpartition(".")
        module = self.modules.get(module_part)
        if module is None:
            return None
        if name in module.functions:
            return module.functions[name]
        if name in module.classes:
            return module.classes[name]
        return None

    # ------------------------------------------------------------------ #
    # reachability
    # ------------------------------------------------------------------ #
    def reachable_functions(self, entry: FunctionInfo) -> list[FunctionInfo]:
        """Every project function reachable from ``entry`` (entry included)."""
        seen: dict[str, FunctionInfo] = {}
        queue: list[FunctionInfo] = [entry]
        while queue:
            function = queue.pop()
            if function.qualname in seen:
                continue
            seen[function.qualname] = function
            for site in function.call_sites:
                # A Call resolves through its func; a bare Name reference (a
                # callback handed onwards) resolves directly.
                func_expr = site.func if isinstance(site, ast.Call) else site
                target = self.resolve_call(function, func_expr)
                if isinstance(target, ClassInfo):
                    for hook in ("__init__", "__post_init__"):
                        method = target.methods.get(hook)
                        if method is not None and method.qualname not in seen:
                            queue.append(method)
                    continue
                if isinstance(target, FunctionInfo) and target.qualname not in seen:
                    queue.append(target)
        return list(seen.values())
