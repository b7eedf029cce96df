"""The reprolint rule registry.

Rules register themselves by id: each rule module decorates its class with :func:`register_rule` and the
import at the bottom of this file wires the built-ins in.  Adding a rule is
therefore: write ``rules/rl0xx_name.py`` with a decorated :class:`Rule`
subclass, import it below, document it in ``docs/STATIC_ANALYSIS.md``.

A rule implements :meth:`Rule.check_file`, called once per scanned file.
Rules yield :class:`~tools.reprolint.model.Finding` objects and never look at
suppressions — the engine filters findings against inline suppressions after
every rule ran.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Iterator

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..model import Finding, SourceFile


class Rule:
    """Base class: a rule family with an id, a title and a per-file hook."""

    #: Rule family id (``RL001`` ... ); unique across the registry.
    id: str = "RL000"
    #: One-line description shown by ``--list-rules`` and in the JSON output.
    title: str = ""

    def check_file(self, source_file: "SourceFile") -> Iterable["Finding"]:
        return ()


_REGISTRY: dict[str, type[Rule]] = {}


def register_rule(cls: type[Rule]) -> type[Rule]:
    """Class decorator: register a rule under its ``id``."""
    if not cls.id or cls.id in _REGISTRY:
        raise ValueError(f"duplicate or empty rule id: {cls.id!r}")
    _REGISTRY[cls.id] = cls
    return cls


def registered_rule_ids() -> list[str]:
    """Every registered rule id (sorted), plus the engine's own RL000."""
    return sorted(set(_REGISTRY) | {"RL000"})


def registered_rules() -> Iterator[Rule]:
    """Fresh instances of every registered rule, in id order."""
    for rule_id in sorted(_REGISTRY):
        yield _REGISTRY[rule_id]()


def rule_titles() -> dict[str, str]:
    titles = {"RL000": "suppression hygiene (reason required, no stale suppressions)"}
    for rule_id, cls in sorted(_REGISTRY.items()):
        titles[rule_id] = cls.title
    return titles


# Built-in rule families register themselves on import, exactly like the
# runtime tuner/backend registries.
from . import rl001_determinism  # noqa: E402,F401
from . import rl002_picklability  # noqa: E402,F401
from . import rl003_registry_discipline  # noqa: E402,F401
from . import rl005_public_surface  # noqa: E402,F401

__all__ = [
    "Rule",
    "register_rule",
    "registered_rule_ids",
    "registered_rules",
    "rule_titles",
]
