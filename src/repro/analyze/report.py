"""Text and JSON reporters for scan results."""

from __future__ import annotations

import json
from collections import Counter

from repro.analyze.core import all_rules
from repro.analyze.runner import AnalysisResult


def format_text(result: AnalysisResult) -> str:
    lines: list[str] = []
    for f in result.findings:
        lines.append(f"{f.path}:{f.line}:{f.col + 1}: {f.rule} {f.message}")
        if f.snippet:
            lines.append(f"    {f.snippet}")
    lines.append("")
    by_rule = Counter(f.rule for f in result.findings)
    summary = ", ".join(f"{rule}={n}" for rule, n in sorted(by_rule.items()))
    lines.append(
        f"{result.files_scanned} files scanned: "
        f"{len(result.findings)} finding(s)"
        + (f" ({summary})" if summary else "")
        + (
            f", {len(result.suppressed)} noqa-suppressed"
            if result.suppressed
            else ""
        )
    )
    return "\n".join(lines)


def format_json(result: AnalysisResult) -> str:
    return json.dumps(
        {
            "version": 2,
            "files_scanned": result.files_scanned,
            "findings": [f.to_dict() for f in result.findings],
            "suppressed": [f.to_dict() for f in result.suppressed],
            "counts": dict(Counter(f.rule for f in result.findings)),
        },
        indent=2,
    )


def explain(code: str) -> str | None:
    """The long-form documentation of one rule, or ``None``."""
    rules = all_rules()
    cls = rules.get(code.upper())
    if cls is None:
        return None
    header = f"{cls.code} ({cls.name}): {cls.summary}"
    return f"{header}\n\n{cls.explanation}"


def list_rules() -> str:
    rows = [f"{cls.code}  {cls.name:<24} {cls.summary}" for cls in all_rules().values()]
    return "\n".join(rows)
