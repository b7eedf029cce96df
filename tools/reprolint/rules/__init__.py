"""The reprolint rule set.

:data:`RULES` lists every rule family's class.  Adding a rule is therefore:
write ``rules/rl0xx_name.py`` with a :class:`Rule` subclass, add the class to
:data:`RULES`, document it in ``docs/STATIC_ANALYSIS.md``.

A rule implements :meth:`Rule.check_file`, called once per scanned file.
Rules yield :class:`~tools.reprolint.model.Finding` objects and never look at
suppressions — the engine filters findings against inline suppressions after
every rule ran.
"""

from __future__ import annotations

from typing import Iterator

from .base import Rule
from .rl001_determinism import DeterminismRule
from .rl002_picklability import PicklabilityRule
from .rl003_registry_discipline import RegistryDisciplineRule
from .rl005_public_surface import PublicSurfaceRule

#: Every rule family, in id order.
RULES: tuple[type[Rule], ...] = (
    DeterminismRule,
    PicklabilityRule,
    RegistryDisciplineRule,
    PublicSurfaceRule,
)


def registered_rule_ids() -> list[str]:
    """Every rule id (sorted), plus the engine's own RL000."""
    return sorted({cls.id for cls in RULES} | {"RL000"})


def registered_rules() -> Iterator[Rule]:
    """Fresh instances of every rule, in id order."""
    for cls in sorted(RULES, key=lambda cls: cls.id):
        yield cls()


def rule_titles() -> dict[str, str]:
    titles = {"RL000": "suppression hygiene (reason required, no stale suppressions)"}
    for cls in sorted(RULES, key=lambda cls: cls.id):
        titles[cls.id] = cls.title
    return titles


__all__ = [
    "RULES",
    "Rule",
    "registered_rule_ids",
    "registered_rules",
    "rule_titles",
]
