"""RL005 — public-surface hygiene.

Two checks keep the documented API surface honest:

* **examples** (``examples/``) import only the public package roots
  (``repro.api``, ``repro.harness``, ``repro.workloads``, ``repro.engine``)
  — an example reaching into ``repro.core.*`` demonstrates an API gap, not
  a usage pattern;
* **``__all__`` discipline** in the strict-typed surface
  (``src/repro/api/*.py``, ``src/repro/fleet/*.py``,
  ``src/repro/engine/backend.py``): ``__all__`` must exist, every entry must
  be bound in the module — statically, or through a PEP 562 module
  ``__getattr__`` whose lazy-export table names it — and every public
  top-level definition must be listed, so ``from repro.api import *`` and
  the docs never drift from the code.
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Iterable, Iterator

from . import Rule, register_rule

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..model import Finding, SourceFile

#: Package roots examples may import from (plus bare ``repro``).
PUBLIC_IMPORT_ROOTS = (
    "repro.api",
    "repro.fleet",
    "repro.harness",
    "repro.workloads",
    "repro.engine",
)

#: Modules whose ``__all__`` is audited (the strict-typed surface).
ALL_AUDITED_PREFIXES = ("src/repro/api/", "src/repro/fleet/")
ALL_AUDITED_FILES = ("src/repro/engine/backend.py",)


def _module_of_import(node: ast.Import | ast.ImportFrom) -> list[str]:
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    return [node.module] if node.module else []


@register_rule
class PublicSurfaceRule(Rule):
    id = "RL005"
    title = "examples stay on the public surface; __all__ in sync"

    def check_file(self, source_file: "SourceFile") -> Iterable["Finding"]:
        findings: list["Finding"] = []
        if source_file.top_level_dir == "examples":
            findings.extend(self._check_example_imports(source_file))
        if source_file.relative_path in ALL_AUDITED_FILES or any(
            source_file.relative_path.startswith(prefix)
            for prefix in ALL_AUDITED_PREFIXES
        ):
            findings.extend(self._check_dunder_all(source_file))
        return findings

    # ------------------------------------------------------------------ #
    # examples: public surface only
    # ------------------------------------------------------------------ #
    def _check_example_imports(self, source_file: "SourceFile") -> Iterator["Finding"]:
        from ..model import Finding

        for node in ast.walk(source_file.tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            for module in _module_of_import(node):
                if not (module == "repro" or module.startswith("repro.")):
                    continue
                public = module == "repro" or any(
                    module == root or module.startswith(root + ".")
                    for root in PUBLIC_IMPORT_ROOTS
                )
                if not public:
                    yield Finding(
                        rule=self.id,
                        path=source_file.relative_path,
                        line=node.lineno,
                        col=node.col_offset,
                        message=(
                            f"example imports internal module {module}; "
                            "examples must stay on the public surface "
                            f"({', '.join(PUBLIC_IMPORT_ROOTS)}) — if the "
                            "example needs it, the API is missing something"
                        ),
                    )

    # ------------------------------------------------------------------ #
    # __all__ audit
    # ------------------------------------------------------------------ #
    def _check_dunder_all(self, source_file: "SourceFile") -> Iterator["Finding"]:
        from ..model import Finding

        tree = source_file.tree
        all_node: ast.Assign | None = None
        exported: list[str] = []
        bound: set[str] = set()
        defined_public: dict[str, int] = {}

        # PEP 562 lazy re-export: when the module defines a top-level
        # ``__getattr__``, names resolved through it are legitimately absent
        # from the static bindings.  Accept an export as lazily bound when it
        # appears as a string literal in a top-level assignment (the lazy
        # export table — e.g. ``_FLEET_EXPORTS`` in ``repro.api`` or the
        # ``_EXPORTS`` dict in ``repro.harness``).
        has_module_getattr = any(
            isinstance(statement, ast.FunctionDef) and statement.name == "__getattr__"
            for statement in tree.body
        )
        lazily_bound: set[str] = set()
        if has_module_getattr:
            for statement in tree.body:
                if not isinstance(statement, (ast.Assign, ast.AnnAssign)):
                    continue
                targets = (
                    statement.targets
                    if isinstance(statement, ast.Assign)
                    else [statement.target]
                )
                if any(
                    isinstance(target, ast.Name) and target.id == "__all__"
                    for target in targets
                ):
                    continue
                if statement.value is None:
                    continue
                for node in ast.walk(statement.value):
                    if isinstance(node, ast.Constant) and isinstance(node.value, str):
                        lazily_bound.add(node.value)

        def harvest(statements: Iterable[ast.stmt]) -> None:
            for statement in statements:
                if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    bound.add(statement.name)
                    if not statement.name.startswith("_"):
                        defined_public.setdefault(statement.name, statement.lineno)
                elif isinstance(statement, ast.Assign):
                    for target in statement.targets:
                        if isinstance(target, ast.Name):
                            bound.add(target.id)
                            if not target.id.startswith("_") and target.id != "TYPE_CHECKING":
                                defined_public.setdefault(target.id, statement.lineno)
                elif isinstance(statement, ast.AnnAssign):
                    if isinstance(statement.target, ast.Name):
                        bound.add(statement.target.id)
                        if not statement.target.id.startswith("_"):
                            defined_public.setdefault(
                                statement.target.id, statement.lineno
                            )
                elif isinstance(statement, ast.Import):
                    for alias in statement.names:
                        bound.add(alias.asname or alias.name.split(".")[0])
                elif isinstance(statement, ast.ImportFrom):
                    for alias in statement.names:
                        if alias.name != "*":
                            bound.add(alias.asname or alias.name)
                elif isinstance(statement, (ast.If, ast.Try)):
                    for body in getattr(statement, "orelse", []), statement.body:
                        harvest(body)
                    for handler in getattr(statement, "handlers", []):
                        harvest(handler.body)

        harvest(tree.body)

        for statement in tree.body:
            if (
                isinstance(statement, ast.Assign)
                and len(statement.targets) == 1
                and isinstance(statement.targets[0], ast.Name)
                and statement.targets[0].id == "__all__"
            ):
                all_node = statement
                if isinstance(statement.value, (ast.List, ast.Tuple)):
                    for element in statement.value.elts:
                        if isinstance(element, ast.Constant) and isinstance(
                            element.value, str
                        ):
                            exported.append(element.value)

        if all_node is None:
            yield Finding(
                rule=self.id,
                path=source_file.relative_path,
                line=1,
                col=0,
                message=(
                    "public-surface module has no __all__; declare the export "
                    "list so the documented surface is explicit"
                ),
            )
            return

        for name in exported:
            if name not in bound and name not in lazily_bound:
                yield Finding(
                    rule=self.id,
                    path=source_file.relative_path,
                    line=all_node.lineno,
                    col=all_node.col_offset,
                    message=(
                        f"__all__ exports {name!r} which is not defined or "
                        "imported in the module (export drift)"
                    ),
                    symbol=name,
                )

        exported_set = set(exported)
        for name, line in sorted(defined_public.items()):
            if name not in exported_set:
                yield Finding(
                    rule=self.id,
                    path=source_file.relative_path,
                    line=line,
                    col=0,
                    message=(
                        f"public definition {name} is missing from __all__; "
                        "list it or rename it with a leading underscore"
                    ),
                    symbol=name,
                )
