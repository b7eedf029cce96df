"""Data model shared by the engine and every rule: findings, suppressions, files.

A :class:`Finding` is one rule violation at one source location.  A
:class:`Suppression` is one ``# reprolint: disable=RULE -- reason`` comment;
the engine matches findings against suppressions *after* every rule ran, so
rules never need to know about them.
"""

from __future__ import annotations

import ast
import re
import tokenize
from dataclasses import dataclass, field
from io import StringIO
from pathlib import Path

#: ``# reprolint: disable=RL001`` / ``disable=RL001,RL003`` with an optional
#: ``-- reason`` tail.  The reason is *required by policy* (RL000 enforces it);
#: the pattern still matches without one so the omission can be reported.
SUPPRESSION_PATTERN = re.compile(
    r"#\s*reprolint:\s*disable=(?P<rules>[A-Z]{2}\d{3}(?:\s*,\s*[A-Z]{2}\d{3})*)"
    r"(?:\s*--\s*(?P<reason>.*\S))?"
)


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule: str
    path: str  # repo-relative, POSIX separators
    line: int
    col: int
    message: str
    #: Qualified name of the enclosing function/class, when the rule knows it.
    symbol: str = ""

    def format(self) -> str:
        location = f"{self.path}:{self.line}:{self.col}"
        symbol = f" [{self.symbol}]" if self.symbol else ""
        return f"{location}: {self.rule} {self.message}{symbol}"

    def to_json(self) -> dict[str, object]:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "symbol": self.symbol,
        }


@dataclass
class Suppression:
    """One inline ``# reprolint: disable=...`` comment."""

    path: str
    line: int  # the line the suppression applies to (see SourceFile.suppressions)
    comment_line: int  # the physical line the comment sits on
    rules: tuple[str, ...]
    reason: str | None
    #: Rules of this suppression that actually matched a finding.
    used_rules: set[str] = field(default_factory=set)

    def covers(self, finding: Finding) -> bool:
        return (
            finding.path == self.path
            and finding.line == self.line
            and finding.rule in self.rules
        )

    def to_json(self) -> dict[str, object]:
        return {
            "path": self.path,
            "line": self.line,
            "rules": list(self.rules),
            "reason": self.reason,
        }


@dataclass
class SourceFile:
    """One parsed source file handed to every rule."""

    path: Path  # absolute
    relative_path: str  # repo-relative, POSIX separators
    source: str
    tree: ast.Module
    suppressions: list[Suppression]

    @property
    def top_level_dir(self) -> str:
        """First path component (``src``, ``tests``, ``examples``, ...)."""
        return self.relative_path.split("/", 1)[0]


def parse_suppressions(relative_path: str, source: str) -> list[Suppression]:
    """Extract every suppression comment via the tokenizer (no false matches
    inside string literals — fixture snippets embedding bad code as strings
    stay inert).

    A trailing comment applies to its own physical line; a comment alone on a
    line applies to the *next* line (so long statements can carry a
    suppression without breaking the line-length budget).
    """
    suppressions: list[Suppression] = []
    try:
        tokens = list(tokenize.generate_tokens(StringIO(source).readline))
    except tokenize.TokenError:  # pragma: no cover - engine rejects earlier
        return suppressions

    # Physical lines that hold a non-comment, non-whitespace token.
    code_lines: set[int] = set()
    for token in tokens:
        if token.type in (
            tokenize.COMMENT,
            tokenize.NL,
            tokenize.NEWLINE,
            tokenize.INDENT,
            tokenize.DEDENT,
            tokenize.ENCODING,
            tokenize.ENDMARKER,
        ):
            continue
        for line in range(token.start[0], token.end[0] + 1):
            code_lines.add(line)

    for token in tokens:
        if token.type != tokenize.COMMENT:
            continue
        match = SUPPRESSION_PATTERN.search(token.string)
        if match is None:
            continue
        comment_line = token.start[0]
        applies_to = comment_line if comment_line in code_lines else comment_line + 1
        # Every comma-separated code is honoured; dedupe repeats (keeping
        # first-seen order) so ``disable=RL001,RL001`` can't double-count in
        # RL000 messages or the stale check.
        rules = tuple(
            dict.fromkeys(
                rule.strip()
                for rule in match.group("rules").split(",")
                if rule.strip()
            )
        )
        suppressions.append(
            Suppression(
                path=relative_path,
                line=applies_to,
                comment_line=comment_line,
                rules=rules,
                reason=match.group("reason"),
            )
        )
    return suppressions


def load_source_file(path: Path, root: Path) -> SourceFile:
    """Parse one file into a :class:`SourceFile` (raises ``SyntaxError``)."""
    source = path.read_text(encoding="utf-8")
    relative = path.relative_to(root).as_posix()
    tree = ast.parse(source, filename=str(path))
    return SourceFile(
        path=path,
        relative_path=relative,
        source=source,
        tree=tree,
        suppressions=parse_suppressions(relative, source),
    )
