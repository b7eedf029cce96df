"""The reprolint engine: collect files, run rules, match suppressions, report.

Suppression semantics (RL000):

* every ``# reprolint: disable=RLxxx`` must carry a ``-- reason`` tail —
  a reasonless suppression still suppresses (no double noise) but is
  reported as RL000;
* a suppression naming an unknown rule id is RL000;
* a suppression that matched no finding is stale and reported as RL000 —
  suppressions must not outlive the violation they excuse;
* RL000 findings are themselves unsuppressible.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from .model import Finding, SourceFile, Suppression, load_source_file
from .rules import registered_rule_ids, registered_rules, rule_titles

#: JSON schema version for the machine-readable report.
REPORT_VERSION = 1


class ReprolintError(Exception):
    """Unrecoverable analyzer error (bad path, syntax error): CLI exit 2."""


@dataclass
class Report:
    """Outcome of one analyzer run."""

    root: str
    files_scanned: list[str] = field(default_factory=list)
    findings: list[Finding] = field(default_factory=list)
    suppressed: list[tuple[Finding, Suppression]] = field(default_factory=list)

    @property
    def exit_code(self) -> int:
        return 1 if self.findings else 0

    def summary(self) -> dict[str, int]:
        by_rule: dict[str, int] = {}
        for finding in self.findings:
            by_rule[finding.rule] = by_rule.get(finding.rule, 0) + 1
        return dict(sorted(by_rule.items()))

    def to_json(self) -> dict[str, object]:
        return {
            "version": REPORT_VERSION,
            "root": self.root,
            "files_scanned": list(self.files_scanned),
            "rules": rule_titles(),
            "findings": [finding.to_json() for finding in self.findings],
            "suppressed": [
                {"finding": finding.to_json(), "suppression": suppression.to_json()}
                for finding, suppression in self.suppressed
            ],
            "summary": {
                "files": len(self.files_scanned),
                "findings": len(self.findings),
                "suppressed": len(self.suppressed),
                "by_rule": self.summary(),
            },
        }

    def render_text(self) -> str:
        lines = [finding.format() for finding in self.findings]
        lines.append(
            f"reprolint: {len(self.files_scanned)} files, "
            f"{len(self.findings)} findings, {len(self.suppressed)} suppressed"
        )
        return "\n".join(lines)

    def render_github(self) -> str:
        """GitHub Actions workflow commands: one ``::error`` per finding.

        The runner turns these into inline annotations on the PR diff; the
        trailing summary goes to the plain log either way.
        """
        lines = [
            f"::error file={f.path},line={f.line},col={f.col + 1},"
            f"title=reprolint {f.rule}::{f.message}"
            for f in self.findings
        ]
        lines.append(
            f"reprolint: {len(self.files_scanned)} files, "
            f"{len(self.findings)} findings, {len(self.suppressed)} suppressed"
        )
        return "\n".join(lines)

    def write_json(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.to_json(), indent=2) + "\n", encoding="utf-8")


def collect_files(paths: list[Path], root: Path) -> list[SourceFile]:
    """Every ``.py`` file under ``paths`` (files or directories), sorted."""
    seen: set[Path] = set()
    collected: list[Path] = []
    for path in paths:
        target = path if path.is_absolute() else root / path
        if target.is_file() and target.suffix == ".py":
            candidates = [target]
        elif target.is_dir():
            candidates = sorted(target.rglob("*.py"))
        else:
            raise ReprolintError(f"no such file or directory: {path}")
        for candidate in candidates:
            resolved = candidate.resolve()
            if resolved not in seen:
                seen.add(resolved)
                collected.append(candidate)

    files: list[SourceFile] = []
    for path in sorted(collected):
        try:
            files.append(load_source_file(path, root))
        except SyntaxError as error:
            raise ReprolintError(f"syntax error in {path}: {error}") from error
        except ValueError as error:
            raise ReprolintError(
                f"{path} is outside the analysis root {root}: {error}"
            ) from error
    return files


def _suppression_hygiene(
    files: list[SourceFile], known_rules: set[str]
) -> list[Finding]:
    """RL000 findings: reasons required, ids known, nothing stale."""
    findings: list[Finding] = []
    for source_file in files:
        for suppression in source_file.suppressions:
            flagged = False
            if suppression.reason is None:
                findings.append(
                    Finding(
                        rule="RL000",
                        path=suppression.path,
                        line=suppression.comment_line,
                        col=0,
                        message=(
                            "suppression without a reason; write "
                            "'# reprolint: disable="
                            f"{','.join(suppression.rules)} -- <why this is safe>'"
                        ),
                    )
                )
                flagged = True
            for rule_id in suppression.rules:
                if rule_id == "RL000":
                    findings.append(
                        Finding(
                            rule="RL000",
                            path=suppression.path,
                            line=suppression.comment_line,
                            col=0,
                            message="RL000 (suppression hygiene) cannot be suppressed",
                        )
                    )
                    flagged = True
                elif rule_id not in known_rules:
                    findings.append(
                        Finding(
                            rule="RL000",
                            path=suppression.path,
                            line=suppression.comment_line,
                            col=0,
                            message=f"suppression names unknown rule {rule_id}",
                        )
                    )
                    flagged = True
            if flagged:
                continue
            stale = [
                rule_id
                for rule_id in suppression.rules
                if rule_id not in suppression.used_rules
            ]
            if stale:
                findings.append(
                    Finding(
                        rule="RL000",
                        path=suppression.path,
                        line=suppression.comment_line,
                        col=0,
                        message=(
                            f"stale suppression: {', '.join(stale)} matched no "
                            "finding on this line; delete it"
                        ),
                    )
                )
    return findings


def run_reprolint(paths: list[str | Path], root: str | Path | None = None) -> Report:
    """Analyze ``paths`` (relative to ``root``, default cwd) and report.

    Raises :class:`ReprolintError` for unusable inputs (missing paths,
    syntax errors); rule findings never raise.
    """
    root_path = Path(root) if root is not None else Path.cwd()
    root_path = root_path.resolve()
    files = collect_files([Path(p) for p in paths], root_path)

    raw_findings: list[Finding] = []
    for rule in registered_rules():
        for source_file in files:
            raw_findings.extend(rule.check_file(source_file))

    suppressions_by_path: dict[str, list[Suppression]] = {}
    for source_file in files:
        suppressions_by_path[source_file.relative_path] = source_file.suppressions

    report = Report(root=str(root_path), files_scanned=[f.relative_path for f in files])
    for finding in raw_findings:
        matched: Suppression | None = None
        for suppression in suppressions_by_path.get(finding.path, ()):
            if suppression.covers(finding):
                matched = suppression
                suppression.used_rules.add(finding.rule)
                break
        if matched is None:
            report.findings.append(finding)
        else:
            report.suppressed.append((finding, matched))

    report.findings.extend(
        _suppression_hygiene(files, set(registered_rule_ids()))
    )
    report.findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return report
