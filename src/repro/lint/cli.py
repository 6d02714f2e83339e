"""Command-line front end for the ``repro.lint`` analyzer.

Installed as the ``repro-lint`` console script (``python -m
repro.lint.cli`` works too).

Exit codes: 0 = clean, 1 = findings (or parse failures), 2 = bad usage
(unknown rule id, no Python files found).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from repro.lint.engine import registry, run_lint
from repro.lint.report import render_json, render_text

__all__ = ["build_parser", "main"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description=(
            "Determinism & invariant static analysis for the Baldur repro"
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=None,
        help=(
            "files or directories to lint (default: src tests plus "
            "benchmarks/examples when present)"
        ),
    )
    parser.add_argument(
        "--format",
        choices=("human", "json"),
        default="human",
        dest="format",
        help="report format (default: human)",
    )
    parser.add_argument(
        "--select",
        default=None,
        metavar="RULES",
        help="comma-separated rule ids to run (default: all rules)",
    )
    parser.add_argument(
        "--out",
        default=None,
        metavar="PATH",
        help="write the report to PATH instead of stdout",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="list registered rules and exit",
    )
    parser.add_argument(
        "--explain",
        default=None,
        metavar="RULE",
        help="print RULE's summary and rationale, then exit",
    )
    return parser


DEFAULT_PATHS = ("src", "tests", "benchmarks", "examples")
"""Default lint roots; the optional ones are skipped when absent."""


def _default_paths() -> List[str]:
    paths = [p for p in DEFAULT_PATHS if Path(p).exists()]
    return paths or list(DEFAULT_PATHS[:2])


def main(argv: Optional[List[str]] = None) -> int:
    """Run ``repro-lint`` with *argv*; returns the exit code."""
    args = build_parser().parse_args(argv)
    if args.list_rules:
        for rule in registry.rules():
            print(f"{rule.id}: {rule.summary}")
        return 0

    if args.explain is not None:
        try:
            rule = registry.get(args.explain)
        except KeyError:
            known = ", ".join(r.id for r in registry.rules())
            print(
                f"error: unknown rule {args.explain!r} (known: {known})",
                file=sys.stderr,
            )
            return 2
        print(f"{rule.id}: {rule.summary}")
        if rule.rationale:
            print()
            print(rule.rationale)
        return 0

    if not args.paths:
        args.paths = _default_paths()

    select: Optional[List[str]] = None
    if args.select is not None:
        select = [part.strip() for part in args.select.split(",") if part.strip()]
        if not select:
            print("error: --select given but no rule ids parsed", file=sys.stderr)
            return 2

    missing = [path for path in args.paths if not Path(path).exists()]
    if missing:
        print(
            f"error: path(s) not found: {', '.join(missing)}", file=sys.stderr
        )
        return 2

    try:
        report = run_lint(args.paths, select=select)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2

    if report.n_files == 0:
        print("error: no Python files found under given paths", file=sys.stderr)
        return 2

    rendered = (
        render_json(report) if args.format == "json" else render_text(report)
    )
    if args.out is not None:
        Path(args.out).write_text(rendered + "\n", encoding="utf-8")
    else:
        print(rendered)
    return report.exit_code


if __name__ == "__main__":  # pragma: no cover - exercised via console script
    raise SystemExit(main())
