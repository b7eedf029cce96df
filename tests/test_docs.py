"""Documentation checks: links resolve, fenced examples don't rot.

Four guards over README.md and every ``docs/*.md`` file, run as part of
tier-1 (and as CI's dedicated docs job):

1. every relative markdown link points at a file or directory that exists;
2. every fenced ``python`` block is valid Python (``compile()``);
3. every ``import repro...`` / ``from repro... import ...`` statement inside
   a fenced block resolves against the installed package — renaming or
   removing a public name without updating the docs fails the build;
4. every keyword argument a fenced block passes to a name imported from
   ``repro`` is a parameter of that callable (callables taking
   ``**kwargs`` are skipped) — removing an option without updating the docs
   fails the build too.

Syntax-only compilation keeps illustrative snippets (ellipses, undefined
helper calls like ``my_query_stream()``) legal, while the import check
catches the rot that actually bites readers: quickstarts importing names
that no longer exist.
"""

from __future__ import annotations

import ast
import importlib
import inspect
import re
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]

#: ``[text](target)`` pairs; targets may carry an anchor fragment.
LINK_PATTERN = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
#: Fenced blocks opened as ```python (anything after the language is ignored).
FENCE_PATTERN = re.compile(r"```python[^\n]*\n(.*?)```", re.DOTALL)


def documentation_files() -> list[Path]:
    files = [REPO_ROOT / "README.md"]
    files.extend(sorted((REPO_ROOT / "docs").glob("*.md")))
    return [path for path in files if path.exists()]


def doc_ids() -> list[str]:
    return [str(path.relative_to(REPO_ROOT)) for path in documentation_files()]


def python_blocks(path: Path) -> list[str]:
    return [match.group(1) for match in FENCE_PATTERN.finditer(path.read_text())]


def test_documentation_set_is_complete():
    names = set(doc_ids())
    assert "README.md" in names
    assert {
        "docs/ARCHITECTURE.md",
        "docs/API.md",
        "docs/BENCHMARKS.md",
        "docs/SAFETY.md",
        "docs/STATIC_ANALYSIS.md",
    } <= names


def test_readme_links_every_docs_page():
    readme = (REPO_ROOT / "README.md").read_text()
    pages = (
        "docs/ARCHITECTURE.md",
        "docs/API.md",
        "docs/BENCHMARKS.md",
        "docs/SAFETY.md",
        "docs/STATIC_ANALYSIS.md",
    )
    for page in pages:
        assert page in readme, f"README.md does not link {page}"


@pytest.mark.parametrize("doc", doc_ids())
def test_relative_links_resolve(doc):
    path = REPO_ROOT / doc
    broken = []
    for target in LINK_PATTERN.findall(path.read_text()):
        if target.startswith(("http://", "https://", "mailto:", "#")):
            continue
        relative = target.split("#", 1)[0]
        if not relative:
            continue
        if not (path.parent / relative).exists():
            broken.append(target)
    assert not broken, f"{doc} has broken relative links: {broken}"


@pytest.mark.parametrize("doc", doc_ids())
def test_fenced_python_blocks_compile(doc):
    path = REPO_ROOT / doc
    for number, block in enumerate(python_blocks(path), start=1):
        try:
            compile(block, f"{doc}#block{number}", "exec")
        except SyntaxError as error:  # pragma: no cover - failure path
            pytest.fail(f"{doc} python block {number} does not compile: {error}")


def iter_repro_imports(block: str):
    """Yield (module, name-or-None) pairs for every ``repro`` import in a block."""
    tree = ast.parse(block)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "repro":
                    yield alias.name, None
        elif (
            isinstance(node, ast.ImportFrom)
            and node.level == 0
            and node.module
            and node.module.split(".")[0] == "repro"
        ):
            for alias in node.names:
                yield node.module, alias.name


def resolve_import(module: str, name: str | None) -> str | None:
    """Import ``module`` (and ``name`` from it); return an error string on failure."""
    try:
        imported = importlib.import_module(module)
    except Exception as error:  # noqa: BLE001 - report any import failure
        return f"import {module}: {error}"
    if name is None or name == "*":
        return None
    if hasattr(imported, name):
        return None
    try:
        importlib.import_module(f"{module}.{name}")
    except Exception:  # noqa: BLE001
        return f"from {module} import {name}: no such attribute or submodule"
    return None


@pytest.mark.parametrize("doc", doc_ids())
def test_repro_imports_in_snippets_resolve(doc):
    path = REPO_ROOT / doc
    failures = []
    for number, block in enumerate(python_blocks(path), start=1):
        for module, name in iter_repro_imports(block):
            error = resolve_import(module, name)
            if error is not None:
                failures.append(f"block {number}: {error}")
    assert not failures, f"{doc} references stale API names:\n" + "\n".join(failures)


def iter_repro_keyword_calls(block: str):
    """Yield (line, module, name, keywords) for calls to names imported from ``repro``."""
    tree = ast.parse(block)
    imported: dict[str, tuple[str, str]] = {}
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.ImportFrom)
            and node.level == 0
            and node.module
            and node.module.split(".")[0] == "repro"
        ):
            for alias in node.names:
                imported[alias.asname or alias.name] = (node.module, alias.name)
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            keywords = [keyword.arg for keyword in node.keywords if keyword.arg]
            if keywords and node.func.id in imported:
                module, name = imported[node.func.id]
                yield node.lineno, module, name, keywords


def unknown_keywords(module: str, name: str, keywords: list[str]) -> list[str]:
    """The ``keywords`` that ``module.name`` does not accept."""
    try:
        target = getattr(importlib.import_module(module), name)
        parameters = inspect.signature(target).parameters
    except Exception:  # noqa: BLE001 - unresolvable names fail the import check
        return []
    if any(p.kind is inspect.Parameter.VAR_KEYWORD for p in parameters.values()):
        return []
    return [keyword for keyword in keywords if keyword not in parameters]


@pytest.mark.parametrize("doc", doc_ids())
def test_repro_call_keywords_in_snippets_exist(doc):
    path = REPO_ROOT / doc
    failures = []
    for number, block in enumerate(python_blocks(path), start=1):
        for line, module, name, keywords in iter_repro_keyword_calls(block):
            for keyword in unknown_keywords(module, name, keywords):
                failures.append(f"block {number} line {line}: {name}({keyword}=...)")
    assert not failures, f"{doc} passes stale keywords:\n" + "\n".join(failures)
