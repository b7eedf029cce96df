"""RL003 — registry discipline: dispatch through the name tables, not if/elif.

Tuners and storage backends are looked up by name in one fixed table each
(``repro.api.create_tuner``, ``repro.engine.get_backend``), so a name is
resolved, spelled and validated in one place.  An ``if name == "mab": ...
elif name == "pdtool": ...`` chain silently bypasses that spelling
normalisation, skips validation, and goes stale the moment the table
changes.

This rule flags if/elif chains in ``src/`` and ``examples/`` where **two or
more branches** compare a value against tuner/backend name strings.  The
modules holding the tables are exempt: *something* has to map a string to a
factory, and that something is the table.
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Iterable, Iterator

from .base import Rule

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..model import Finding, SourceFile

#: Names of the built-in tuners (normalised: lowercase, ``-`` -> ``_``),
#: mirroring ``repro.api.registered_tuner_names()``.
TUNER_NAMES = frozenset({"mab", "noindex", "pdtool", "ddqn", "ddqn_sc"})
#: Names of the built-in storage backends (normalised likewise), mirroring
#: ``repro.engine.registered_backend_names()``.
BACKEND_NAMES = frozenset({"hdd", "ssd", "inmemory", "cloud"})
REGISTERED_NAMES = TUNER_NAMES | BACKEND_NAMES

#: Modules that hold the string -> factory/profile tables.
REGISTRY_MODULES = frozenset(
    {
        "src/repro/api/registry.py",
        "src/repro/engine/backend.py",
    }
)

CHECKED_TOP_DIRS = ("src", "examples")


def _literal_names(test: ast.expr) -> list[str]:
    """Registered-name string literals compared in one branch test."""
    names: list[str] = []
    comparisons: list[ast.Compare] = []
    if isinstance(test, ast.Compare):
        comparisons.append(test)
    elif isinstance(test, ast.BoolOp):
        comparisons.extend(v for v in test.values if isinstance(v, ast.Compare))
    for comparison in comparisons:
        if not all(isinstance(op, (ast.Eq, ast.In)) for op in comparison.ops):
            continue
        for side in [comparison.left, *comparison.comparators]:
            literals: list[ast.expr] = [side]
            if isinstance(side, (ast.Tuple, ast.List, ast.Set)):
                literals = list(side.elts)
            for literal in literals:
                if isinstance(literal, ast.Constant) and isinstance(literal.value, str):
                    normalised = literal.value.strip().lower().replace("-", "_")
                    if normalised in REGISTERED_NAMES:
                        names.append(normalised)
    return names


class RegistryDisciplineRule(Rule):
    id = "RL003"
    title = "no if/elif dispatch on tuner/backend names outside their name tables"

    def check_file(self, source_file: "SourceFile") -> Iterable["Finding"]:
        if source_file.top_level_dir not in CHECKED_TOP_DIRS:
            return []
        if source_file.relative_path in REGISTRY_MODULES:
            return []
        return list(self._scan(source_file))

    def _scan(self, source_file: "SourceFile") -> Iterator["Finding"]:
        from ..model import Finding

        elif_nodes: set[int] = set()
        for node in ast.walk(source_file.tree):
            if isinstance(node, ast.If):
                chain = node.orelse
                while len(chain) == 1 and isinstance(chain[0], ast.If):
                    elif_nodes.add(id(chain[0]))
                    chain = chain[0].orelse

        for node in ast.walk(source_file.tree):
            if not isinstance(node, ast.If) or id(node) in elif_nodes:
                continue
            matched: list[str] = []
            branches = 0
            current: ast.If | None = node
            while current is not None:
                names = _literal_names(current.test)
                if names:
                    branches += 1
                    matched.extend(names)
                tail = current.orelse
                current = (
                    tail[0] if len(tail) == 1 and isinstance(tail[0], ast.If) else None
                )
            # One branch matching >=2 names (an ``in ("mab", "pdtool")`` test)
            # is dispatch too.
            if branches >= 2 or len(set(matched)) >= 2:
                names_text = ", ".join(sorted(set(matched)))
                yield Finding(
                    rule=self.id,
                    path=source_file.relative_path,
                    line=node.lineno,
                    col=node.col_offset,
                    message=(
                        f"if/elif dispatch on tuner/backend names ({names_text}); "
                        "resolve through the name tables (create_tuner / "
                        "resolve_backend) so every spelling keeps working"
                    ),
                )
