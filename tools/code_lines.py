"""Count the code lines of a Python source tree, in total and per package.

A code line is a physical line that holds at least one token other than
a comment, and is not part of a docstring (the leading string literal of
a module, class or function body).  Blank lines, comment-only lines and
docstring lines do not count; a line that only continues a statement
across brackets counts once it holds a token.

Usage::

    python tools/code_lines.py            # src/repro
    python tools/code_lines.py some/pkg   # any package root

It prints one line per top-level module or package under the root,
then the total.
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

_SKIP = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
    tokenize.ENCODING,
}
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree: ast.AST) -> set[int]:
    """Line numbers covered by the docstrings of ``tree``."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if not isinstance(node, _SCOPES) or not node.body:
            continue
        first = node.body[0]
        if (
            isinstance(first, ast.Expr)
            and isinstance(first.value, ast.Constant)
            and isinstance(first.value.value, str)
        ):
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    """Code lines of one source file."""
    source = path.read_text(encoding="utf-8")
    skip = docstring_lines(ast.parse(source, filename=str(path)))
    lines: set[int] = set()
    with path.open("rb") as handle:
        for token in tokenize.tokenize(handle.readline):
            if token.type in _SKIP:
                continue
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - skip)


def count(root: Path) -> dict[str, int]:
    """Code lines per top-level module or package under ``root``."""
    totals: dict[str, int] = {}
    for path in sorted(root.rglob("*.py")):
        rel = path.relative_to(root)
        name = rel.parts[0] if len(rel.parts) > 1 else rel.stem
        totals[name] = totals.get(name, 0) + code_lines(path)
    return totals


def main(argv: list[str]) -> None:
    root = Path(argv[0]) if argv else Path(__file__).parent.parent / "src" / "repro"
    totals = count(root)
    for name, lines in sorted(totals.items()):
        print(f"{name:<20} {lines:>6,}")
    print(f"{'total':<20} {sum(totals.values()):>6,}")


if __name__ == "__main__":
    main(sys.argv[1:])
