"""``python -m repro.analyze`` — scan paths or explain rules.

Exit codes: 0 clean scan, 1 findings remain after pragmas, 2 usage
error (unknown rule, a scan path that is not a directory or a ``.py``
file).
"""

from __future__ import annotations

import argparse
import sys

from repro.analyze import report
from repro.analyze.runner import analyze_paths


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analyze",
        description=(
            "Domain-specific static analysis: determinism, simmpi protocol "
            "discipline, numeric safety."
        ),
    )
    parser.add_argument(
        "paths", nargs="*", default=["src"], help="files/directories to scan"
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--explain",
        metavar="REP0xx",
        default=None,
        help="print one rule's documentation and exit",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="list registered rules and exit"
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.list_rules:
        print(report.list_rules())
        return 0
    if args.explain is not None:
        text = report.explain(args.explain)
        if text is None:
            print(f"unknown rule {args.explain!r}; --list-rules", file=sys.stderr)
            return 2
        print(text)
        return 0
    try:
        result = analyze_paths(args.paths)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    formatter = report.format_json if args.format == "json" else report.format_text
    print(formatter(result))
    return 1 if result.findings else 0
