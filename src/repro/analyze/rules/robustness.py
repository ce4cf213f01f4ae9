"""REP004/REP005 — failure paths that vanish or swallow.

Library-code ``assert`` disappears under ``python -O``; a broad
``except Exception`` that neither re-raises nor logs converts failures
into silent wrong answers — fatal for a code whose selling point is
reproducibility.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.analyze.core import Finding, ModuleContext, Rule, register

#: Call leaf names accepted as "the failure was recorded somewhere".
_LOGGING_LEAVES = {
    "add",
    "critical",
    "debug",
    "error",
    "exception",
    "info",
    "log",
    "note",
    "print",
    "record",
    "set_gauge",
    "warn",
    "warning",
}

_BROAD = {"Exception", "BaseException"}


def _leaf_name(func: ast.expr) -> str | None:
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return None


def _is_broad(handler_type: ast.expr | None) -> bool:
    if handler_type is None:  # bare except:
        return True
    nodes: list[ast.expr] = (
        list(handler_type.elts)
        if isinstance(handler_type, ast.Tuple)
        else [handler_type]
    )
    for node in nodes:
        if isinstance(node, ast.Name) and node.id in _BROAD:
            return True
        if isinstance(node, ast.Attribute) and node.attr in _BROAD:
            return True
    return False


def _handler_is_accounted(handler: ast.ExceptHandler) -> bool:
    for stmt in handler.body:
        for node in ast.walk(stmt):
            if isinstance(node, ast.Raise):
                return True
            if isinstance(node, ast.Call):
                leaf = _leaf_name(node.func)
                if leaf in _LOGGING_LEAVES:
                    return True
    return False


@register
class LibraryAssertRule(Rule):
    code = "REP004"
    name = "library-assert"
    summary = "bare assert in library code (vanishes under python -O)"
    explanation = """\
``assert`` statements are compiled out under ``python -O``, so a
library-code self-check guarded by one silently stops checking exactly
when someone turns on optimizations for a large run.  Validate inputs
with an explicit ``raise ValueError(...)`` (or move the check into
``tests/``, where asserts are the native idiom and -O is never used).

Suppress with ``# repro: noqa(REP004) <why -O semantics are acceptable>``.
"""

    def check_module(self, module: ModuleContext) -> Iterable[Finding]:
        if module.in_dirs("tests", "benchmarks"):
            return  # asserts are the native idiom in test code
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Assert):
                yield module.finding(
                    self.code,
                    node,
                    "bare assert in library code is removed by python -O; "
                    "raise ValueError/RuntimeError explicitly",
                )


@register
class SilentExceptRule(Rule):
    code = "REP005"
    name = "silent-broad-except"
    summary = "broad except without re-raise or logging"
    explanation = """\
``except Exception`` (or a bare ``except:``) whose body neither
re-raises nor records the failure turns every unexpected bug — a typo,
a numpy shape error, a corrupted message — into a silently wrong
simulation.  Either catch the specific exceptions the operation can
raise, re-raise after cleanup, or record the failure (``obs.add``
counter, logging call) so the run is auditable.

Boundary code that must transport arbitrary failures across
threads/processes (worker loops that capture-and-forward) is the
legitimate broad-catch case: silence it with
``# repro: noqa(REP005) <where the failure goes>``.

``tests/`` and ``benchmarks/`` are not checked: a test's failure path
is its own report.
"""

    def check_module(self, module: ModuleContext) -> Iterable[Finding]:
        if module.in_dirs("tests", "benchmarks"):
            return
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ExceptHandler) and _is_broad(node.type):
                if not _handler_is_accounted(node):
                    caught = (
                        "bare except"
                        if node.type is None
                        else f"except {ast.unparse(node.type)}"
                    )
                    yield module.finding(
                        self.code,
                        node,
                        f"{caught} neither re-raises nor records the "
                        "failure; narrow it, re-raise, or log via "
                        "repro.observe",
                    )
