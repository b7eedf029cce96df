"""RL003 — registry discipline: dispatch through the registries, not if/elif.

The repo has exactly two extension points — ``@register_tuner`` and
``@register_backend`` — and both exist so new strategies plug in without
editing call sites.  An ``if name == "mab": ... elif name == "pdtool": ...``
chain silently bypasses alias resolution, skips validation, and breaks the
moment someone registers a tuner the chain has never heard of.

This rule flags if/elif chains in ``src/`` and ``examples/`` where **two or
more branches** compare a value against registered tuner/backend name
strings.  The registry modules themselves are exempt: *something* has to map
a string to a factory, and that something is the registry.
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Iterable, Iterator

from . import Rule, register_rule

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..model import Finding, SourceFile

#: Canonical names and aliases of registered tuners (normalised: lowercase,
#: ``-`` -> ``_``), mirroring the ``@register_tuner`` calls in the codebase.
TUNER_NAMES = frozenset({"mab", "noindex", "pdtool", "ddqn", "ddqn_sc"})
#: Names of registered storage backends (normalised likewise), mirroring the
#: ``@register_backend`` calls in ``repro.engine.backend``.
BACKEND_NAMES = frozenset({"hdd", "ssd", "inmemory", "cloud"})
REGISTERED_NAMES = TUNER_NAMES | BACKEND_NAMES

#: Modules whose whole purpose is the string -> factory mapping.
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


@register_rule
class RegistryDisciplineRule(Rule):
    id = "RL003"
    title = "no if/elif dispatch on registered tuner/backend names outside the registries"

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
                        f"if/elif dispatch on registered names ({names_text}); "
                        "resolve through the registry (create_tuner / "
                        "resolve_backend) so aliases and new registrations "
                        "keep working"
                    ),
                )
