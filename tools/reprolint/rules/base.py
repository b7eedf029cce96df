"""The :class:`Rule` base class every reprolint rule family subclasses."""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..model import Finding, SourceFile


class Rule:
    """Base class: a rule family with an id, a title and a per-file hook."""

    #: Rule family id (``RL001`` ... ); unique across the rule set.
    id: str = "RL000"
    #: One-line description shown by ``--list-rules`` and in the JSON output.
    title: str = ""

    def check_file(self, source_file: "SourceFile") -> Iterable["Finding"]:
        return ()
