"""Domain-specific static analysis for the repro codebase.

The simulation's headline claims — bit-identical trajectories across
communication schemes and execution backends — rest on invariants that
runtime tests can only sample: all randomness flows through seeded
Generators (REP001) and simmpi send/recv protocols pair up (REP002),
both checked over the whole-program call graph; float bit-identity is
asserted explicitly (REP003), and a timing phase is entered, not
discarded (REP006).  This package checks those invariants *statically*,
before a single test runs.  Per-file hazards a stock linter knows —
library asserts, broad excepts, ``np.add.at`` — are ruff's ``S101``,
``BLE001`` and ``TID251`` (``pyproject.toml``).

Usage::

    python -m repro.analyze src              # scan, exit 1 on findings
    python -m repro.analyze --explain REP001 # rule documentation
    python -m repro.analyze src --format json

A finding is silenced one way only: an inline comment naming the rule
and the reason, ``# repro: noqa(REP003) <why>``.  A pragma that names
no rule, gives no reason or silences nothing is itself a ``REP000``
finding, which no pragma silences.
"""

from repro.analyze.core import Finding, ModuleContext, Rule, all_rules, register
from repro.analyze.runner import AnalysisResult, analyze_paths

__all__ = [
    "AnalysisResult",
    "Finding",
    "ModuleContext",
    "Rule",
    "all_rules",
    "analyze_paths",
    "register",
]
