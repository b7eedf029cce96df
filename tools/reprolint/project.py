"""Name resolution helpers: module names, import aliases, dotted call targets.

RL001 recognises ``np.random.default_rng`` whatever a module called
``numpy``: :func:`import_aliases` maps each local name a module's imports
bind to its fully dotted target, and :func:`dotted_call_name` spells a call
target through that map.
"""

from __future__ import annotations

import ast


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


def import_aliases(tree: ast.AST, module: str) -> dict[str, str]:
    """Local name -> fully dotted target for every import in ``tree``.

    ``import numpy as np`` binds ``np`` -> ``numpy``; ``from random import
    randint`` binds ``randint`` -> ``random.randint``.  Relative imports are
    anchored at ``module`` (the importing module's dotted name): its own
    name is dropped, then one more component per extra level.
    """
    aliases: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                target = alias.name if alias.asname else alias.name.split(".")[0]
                aliases[local] = target
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                package_parts = module.split(".")
                anchor = package_parts[: len(package_parts) - node.level]
                base = ".".join(anchor + ([base] if base else []))
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                aliases[local] = f"{base}.{alias.name}" if base else alias.name
    return aliases


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
