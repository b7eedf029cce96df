"""RL002 — frozen-spec picklability.

The spec dataclasses (:class:`TunerSpec`, :class:`DatabaseSpec`,
:class:`BackendProfile`, :class:`SimulationOptions`, :class:`TenantSpec`,
:class:`FleetConfig`) cross process boundaries:
``run_competition`` pickles them into ``ProcessPoolExecutor`` workers and
fleet tenant rosters are declared spec-first, so frozen-ness is what makes a
spec safe to share between the parent and N workers without copy-on-write
surprises.

Checked in ``src/`` (definitions) and ``src/`` + ``examples/`` (call sites):

* every spec class must be declared ``@dataclass(frozen=True)``;
* spec fields must not default to a lambda (lambdas don't pickle; a
  ``field(default_factory=...)`` is fine — the factory stays on the class),
  and ``Callable``-typed fields are flagged because any closure stored there
  will fail at the worker boundary;
* constructing a spec with a ``lambda`` argument is flagged at the call site.
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Iterable, Iterator

from . import Rule, register_rule

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..model import Finding, SourceFile

#: Dataclasses that cross ``run_competition`` worker boundaries.
SPEC_CLASSES = frozenset(
    {
        "TunerSpec",
        "DatabaseSpec",
        "BackendProfile",
        "SimulationOptions",
        "TenantSpec",
        "FleetConfig",
    }
)

DEFINITION_TOP_DIRS = ("src",)
CALL_SITE_TOP_DIRS = ("src", "examples")


def _dataclass_decorator(node: ast.ClassDef) -> ast.expr | None:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        name: str | None = None
        if isinstance(target, ast.Name):
            name = target.id
        elif isinstance(target, ast.Attribute):
            name = target.attr
        if name == "dataclass":
            return decorator
    return None


def _is_frozen(decorator: ast.expr) -> bool:
    if not isinstance(decorator, ast.Call):
        return False
    for keyword in decorator.keywords:
        if keyword.arg == "frozen":
            return (
                isinstance(keyword.value, ast.Constant)
                and keyword.value.value is True
            )
    return False


def _contains_lambda_default(value: ast.expr) -> ast.Lambda | None:
    """A lambda stored *on instances* (``default_factory`` lambdas are fine:
    the factory lives on the class; instances hold the produced value)."""
    factory_lambdas: set[int] = set()
    for node in ast.walk(value):
        if isinstance(node, ast.Call):
            for keyword in node.keywords:
                if keyword.arg == "default_factory" and isinstance(
                    keyword.value, ast.Lambda
                ):
                    factory_lambdas.add(id(keyword.value))
    for node in ast.walk(value):
        if isinstance(node, ast.Lambda) and id(node) not in factory_lambdas:
            return node
    return None


@register_rule
class PicklabilityRule(Rule):
    id = "RL002"
    title = "spec dataclasses must be frozen and free of lambdas/closures"

    def check_file(self, source_file: "SourceFile") -> Iterable["Finding"]:
        findings: list["Finding"] = []
        if source_file.top_level_dir in DEFINITION_TOP_DIRS:
            findings.extend(self._check_definitions(source_file))
        if source_file.top_level_dir in CALL_SITE_TOP_DIRS:
            findings.extend(self._check_call_sites(source_file))
        return findings

    def _check_definitions(self, source_file: "SourceFile") -> Iterator["Finding"]:
        from ..model import Finding

        for node in ast.walk(source_file.tree):
            if not isinstance(node, ast.ClassDef) or node.name not in SPEC_CLASSES:
                continue
            decorator = _dataclass_decorator(node)
            if decorator is None:
                yield Finding(
                    rule=self.id,
                    path=source_file.relative_path,
                    line=node.lineno,
                    col=node.col_offset,
                    message=(
                        f"spec class {node.name} must be a "
                        "@dataclass(frozen=True) — it crosses "
                        "run_competition worker boundaries"
                    ),
                    symbol=node.name,
                )
            elif not _is_frozen(decorator):
                yield Finding(
                    rule=self.id,
                    path=source_file.relative_path,
                    line=node.lineno,
                    col=node.col_offset,
                    message=(
                        f"spec class {node.name} is not frozen; declare "
                        "@dataclass(frozen=True) so instances stay hashable, "
                        "immutable and safe to share across workers"
                    ),
                    symbol=node.name,
                )
            for statement in node.body:
                if not isinstance(statement, ast.AnnAssign) or not isinstance(
                    statement.target, ast.Name
                ):
                    continue
                field_name = statement.target.id
                annotation_text = ast.unparse(statement.annotation)
                if "Callable" in annotation_text:
                    yield Finding(
                        rule=self.id,
                        path=source_file.relative_path,
                        line=statement.lineno,
                        col=statement.col_offset,
                        message=(
                            f"Callable-typed field {node.name}.{field_name}: "
                            "lambdas/closures stored here do not pickle into "
                            "run_competition workers; use a module-level "
                            "function or drop the field from worker payloads"
                        ),
                        symbol=f"{node.name}.{field_name}",
                    )
                if statement.value is not None:
                    offending = _contains_lambda_default(statement.value)
                    if offending is not None:
                        yield Finding(
                            rule=self.id,
                            path=source_file.relative_path,
                            line=offending.lineno,
                            col=offending.col_offset,
                            message=(
                                f"lambda default on {node.name}.{field_name} is "
                                "stored on instances and does not pickle; use "
                                "field(default_factory=...) or a named function"
                            ),
                            symbol=f"{node.name}.{field_name}",
                        )

    def _check_call_sites(self, source_file: "SourceFile") -> Iterator["Finding"]:
        from ..model import Finding

        for node in ast.walk(source_file.tree):
            if not isinstance(node, ast.Call):
                continue
            callee = node.func
            name = (
                callee.id
                if isinstance(callee, ast.Name)
                else callee.attr
                if isinstance(callee, ast.Attribute)
                else None
            )
            if name not in SPEC_CLASSES:
                continue
            arguments = list(node.args) + [keyword.value for keyword in node.keywords]
            for argument in arguments:
                if isinstance(argument, ast.Lambda):
                    yield Finding(
                        rule=self.id,
                        path=source_file.relative_path,
                        line=argument.lineno,
                        col=argument.col_offset,
                        message=(
                            f"lambda passed into {name}(...): the spec will "
                            "fail to pickle into run_competition workers; use "
                            "a module-level function"
                        ),
                        symbol=name,
                    )
