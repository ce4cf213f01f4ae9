"""Framework core: findings, rule registry, pragmas, import resolution.

A :class:`Rule` sees one :class:`ModuleContext` at a time via
``check_module``, and the whole scanned program once via
``check_project`` (a ``ProjectGraph``: symbol table plus call graph).
Rules are *instantiated per run*, so state never leaks between
invocations.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass
from pathlib import PurePosixPath
from typing import Iterable

#: The one way to silence a finding: the comment
#: ``repro: noqa(REP001,REP003) <reason>`` names the rules it silences on
#: its line, then why.  Only COMMENT tokens are read, never strings.
NOQA_RE = re.compile(r"#\s*repro:\s*noqa\b(?:\(([^)]*)\))?(.*)")


@dataclass(frozen=True)
class Finding:
    """One rule violation anchored to a source location."""

    rule: str
    path: str  # posix-style path relative to the scan root
    line: int
    col: int
    message: str
    snippet: str = ""

    def sort_key(self) -> tuple:
        return (self.path, self.line, self.col, self.rule)

    def to_dict(self) -> dict:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "snippet": self.snippet,
        }


@dataclass(frozen=True)
class Pragma:
    """One ``repro: noqa`` comment: where, which rules, and why."""

    line: int
    col: int
    codes: frozenset[str]  # empty for a blanket pragma, which silences nothing
    reason: str


class ModuleContext:
    """One parsed source file plus location/classification helpers."""

    def __init__(self, rel_path: str, source: str, tree: ast.Module):
        self.rel_path = rel_path.replace("\\", "/")
        self.source = source
        self.tree = tree
        self.lines = source.splitlines()
        self.parts = PurePosixPath(self.rel_path).parts

    def in_dirs(self, *names: str) -> bool:
        """Whether any path component matches one of ``names``."""
        return any(part in names for part in self.parts)

    def snippet(self, line: int) -> str:
        if 1 <= line <= len(self.lines):
            return self.lines[line - 1].strip()
        return ""

    def finding(self, rule: str, node: ast.AST, message: str) -> Finding:
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        return Finding(rule, self.rel_path, line, col, message, self.snippet(line))


class Rule:
    """Base class: subclass, set the class attributes, register."""

    code: str = "REP000"
    name: str = "unnamed"
    summary: str = ""
    explanation: str = ""

    def check_module(self, module: ModuleContext) -> Iterable[Finding]:
        return ()

    def check_project(self, graph) -> Iterable[Finding]:
        """Whole-program findings, given a ``ProjectGraph`` over the scan.

        Called once per run, after every ``check_module``.  REP001 and
        REP002 do their whole work here: a per-file finding is the call
        chain of length 0.
        """
        return ()


_REGISTRY: dict[str, type[Rule]] = {}


def register(cls: type[Rule]) -> type[Rule]:
    """Class decorator adding a rule to the global registry."""
    if cls.code in _REGISTRY and _REGISTRY[cls.code] is not cls:
        raise ValueError(f"duplicate rule code {cls.code}")
    _REGISTRY[cls.code] = cls
    return cls


def all_rules() -> dict[str, type[Rule]]:
    """Registered rules by code; importing the plugins on first use."""
    import repro.analyze.rules  # noqa: F401 - registration side effect

    return dict(sorted(_REGISTRY.items()))


def read_pragmas(source: str) -> dict[int, Pragma]:
    """Map line number -> the pragma comment on that line.

    Read from ``tokenize`` COMMENT tokens, so pragma-looking text inside
    a string literal is never a pragma.
    """
    out: dict[int, Pragma] = {}
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type != tokenize.COMMENT:
            continue
        m = NOQA_RE.search(tok.string)
        if m is None:
            continue
        codes = (m.group(1) or "").split(",")
        line, col = tok.start
        out[line] = Pragma(
            line,
            col + m.start(),
            frozenset(c.strip().upper() for c in codes if c.strip()),
            m.group(2).strip(),
        )
    return out


#: Simple (non-compound) statements whose pragma on the first physical
#: line extends over the whole statement.  Compound statements
#: (def/if/for/with/...) are deliberately excluded: a pragma on a
#: ``def`` line must not suppress the entire body.
_SIMPLE_STMTS = (
    ast.Expr,
    ast.Assign,
    ast.AugAssign,
    ast.AnnAssign,
    ast.Return,
    ast.Raise,
    ast.Assert,
    ast.Delete,
)


def expand_statement_pragmas(
    tree: ast.Module, pragmas: dict[int, Pragma]
) -> dict[int, tuple[Pragma, ...]]:
    """Map line number -> every pragma covering that line.

    A pragma on the first line of a multi-line simple statement also
    covers the statement's later lines (an argument on line 3 anchors
    its finding there, not at the statement head), beside any pragma
    of the inner line itself.
    """
    out = {line: (p,) for line, p in pragmas.items()}
    for node in ast.walk(tree) if pragmas else ():
        head = pragmas.get(node.lineno) if isinstance(node, _SIMPLE_STMTS) else None
        if head is None:
            continue
        for line in range(node.lineno + 1, node.end_lineno + 1):
            out[line] = (*out.get(line, ()), head)
    return out


class ImportMap:
    """Resolve local call names to canonical dotted module paths.

    Built from a module's import statements, so ``np.random.rand`` and
    ``from numpy import random as r; r.rand`` both resolve to
    ``numpy.random.rand``.  Unresolvable roots (locals, attributes of
    arbitrary objects) resolve to ``None``.
    """

    def __init__(self, tree: ast.Module):
        self.names: dict[str, str] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    canon = alias.name if alias.asname else alias.name.split(".")[0]
                    self.names[local] = canon
            elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    local = alias.asname or alias.name
                    self.names[local] = f"{node.module}.{alias.name}"

    def resolve_call(self, func: ast.expr) -> str | None:
        """Canonical dotted path of a call target, or ``None``."""
        attrs: list[str] = []
        node = func
        while isinstance(node, ast.Attribute):
            attrs.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        base = self.names.get(node.id)
        if base is None:
            return None
        return ".".join([base, *reversed(attrs)])
