"""Scan driver: collect files, run rules, apply and check pragmas."""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path

from repro.analyze.core import (
    Finding,
    ModuleContext,
    Pragma,
    Rule,
    all_rules,
    expand_statement_pragmas,
    read_pragmas,
)
from repro.analyze.graph import ProjectGraph

_SKIP_DIRS = {"__pycache__", ".git", ".hypothesis", "node_modules"}


@dataclass
class AnalysisResult:
    """Everything one scan produced."""

    findings: list[Finding] = field(default_factory=list)
    suppressed: list[Finding] = field(default_factory=list)  # via pragmas
    files_scanned: int = 0


def iter_python_files(paths: list[str | Path]) -> list[Path]:
    """Every ``.py`` file under ``paths``, stably ordered.

    Raises ``ValueError`` naming a path that is neither a directory nor
    a ``.py`` file, so a mistyped scan path cannot pass vacuously.
    """
    out: list[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_file() and path.suffix == ".py":
            out.append(path)
        elif path.is_dir():
            for sub in sorted(path.rglob("*.py")):
                if not any(part in _SKIP_DIRS for part in sub.parts):
                    out.append(sub)
        else:
            raise ValueError(f"{raw}: not a directory or a .py file")
    return list(dict.fromkeys(out))


def _rel(path: Path, root: Path) -> str:
    try:
        return path.resolve().relative_to(root.resolve()).as_posix()
    except ValueError:
        return path.as_posix()


def _pragma_findings(
    path: str, pragmas: dict[int, Pragma], used: set, ran: set[str]
) -> list[Finding]:
    """REP000 for every pragma that breaks the contract.

    A pragma must name its rules, give a reason, and silence at least
    one finding of each rule it names that ran in this scan.
    """
    known = set(all_rules())
    out = []
    for p in pragmas.values():
        problems = [] if p.codes else ["names no rule; write noqa(REP0xx) <reason>"]
        if not p.reason:
            problems.append("gives no reason after the rule list")
        for code in sorted(p.codes - known):
            problems.append(f"names unknown rule {code}")
        for code in sorted(p.codes & ran):
            if (path, p.line, code) not in used:
                problems.append(f"suppresses no {code} finding; remove it")
        out += [Finding("REP000", path, p.line, p.col, f"pragma {m}") for m in problems]
    return out


def analyze_paths(
    paths: list[str | Path],
    rules: list[Rule] | None = None,
    root: str | Path | None = None,
) -> AnalysisResult:
    """Run every rule over every python file under ``paths``.

    ``root`` anchors the relative paths used in findings; it defaults
    to the current directory so a scan from the repo root produces
    ``src/repro/...`` paths.  ``REP000`` findings cannot be silenced: an
    unparsable file has no pragmas, and the pragma checks run after
    suppression.
    """
    if rules is None:
        rules = [cls() for cls in all_rules().values()]
    root = Path(root) if root is not None else Path.cwd()
    result = AnalysisResult()
    raw: list[Finding] = []
    pragmas: dict[str, dict[int, Pragma]] = {}
    covering: dict[str, dict[int, tuple[Pragma, ...]]] = {}
    modules: list[ModuleContext] = []

    for path in iter_python_files(paths):
        rel = _rel(path, root)
        try:
            source = path.read_text()
            tree = ast.parse(source, filename=str(path))
        except (OSError, SyntaxError, ValueError) as exc:
            raw.append(Finding("REP000", rel, 1, 0, f"cannot parse: {exc}"))
            continue
        result.files_scanned += 1
        module = ModuleContext(rel, source, tree)
        modules.append(module)
        pragmas[rel] = read_pragmas(source)
        covering[rel] = expand_statement_pragmas(tree, pragmas[rel])
        for rule in rules:
            raw.extend(rule.check_module(module))

    graph = ProjectGraph(modules)
    for rule in rules:
        raw.extend(rule.check_project(graph))

    used: set[tuple[str, int, str]] = set()
    for finding in set(raw):
        hits = [
            p
            for p in covering.get(finding.path, {}).get(finding.line, ())
            if finding.rule in p.codes
        ]
        used.update((finding.path, p.line, finding.rule) for p in hits)
        (result.suppressed if hits else result.findings).append(finding)
    ran = {rule.code for rule in rules}
    for rel, found in pragmas.items():
        result.findings += _pragma_findings(rel, found, used, ran)
    result.findings.sort(key=Finding.sort_key)
    result.suppressed.sort(key=Finding.sort_key)
    return result
