"""Command-line front end: ``python -m tools.reprolint [paths...]``.

Exit codes: 0 clean, 1 unsuppressed findings, 2 usage/parse error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .engine import ReprolintError, run_reprolint
from .rules import rule_titles

DEFAULT_PATHS = ("src", "tests", "examples")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m tools.reprolint",
        description=(
            "Repo-native static analysis: determinism, picklability, registry "
            "discipline, public-surface hygiene."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=list(DEFAULT_PATHS),
        help=f"files or directories to analyze (default: {' '.join(DEFAULT_PATHS)})",
    )
    parser.add_argument(
        "--root",
        default=".",
        help="analysis root; paths are resolved and reported relative to it",
    )
    parser.add_argument(
        "--json",
        metavar="FILE",
        help="also write the machine-readable report to FILE ('-' for stdout)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "github"),
        default="text",
        help=(
            "finding output style: 'text' (editor-clickable lines) or "
            "'github' (::error workflow commands for inline PR annotations)"
        ),
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="list the registered rule families and exit",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)

    if args.list_rules:
        for rule_id, title in rule_titles().items():
            print(f"{rule_id}  {title}")
        return 0

    try:
        report = run_reprolint(args.paths, root=Path(args.root))
    except ReprolintError as error:
        print(f"reprolint: error: {error}", file=sys.stderr)
        return 2

    if args.json == "-":
        import json

        print(json.dumps(report.to_json(), indent=2))
    else:
        if args.json:
            report.write_json(Path(args.json))
        rendered = (
            report.render_github() if args.format == "github" else report.render_text()
        )
        print(rendered)
    return report.exit_code


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
