"""REP007 — known-slow data movement on hot paths.

``np.add.at`` — NumPy's unbuffered ufunc scatter — is an order of
magnitude slower than the ``np.bincount(..., minlength=n)`` scatters the
force kernels use (see :mod:`repro.md.forces`).  This codebase has
already paid to eliminate it, and it keeps trying to sneak back in, so
the rule flags it in the hot directories (``md/``, ``kmc/``).  A
deliberate survivor — a scatter whose duplicate-index accumulation order
is load-bearing for bit-identity — carries an inline pragma that says
why.
"""

from __future__ import annotations

from typing import Iterable

from repro.analyze.core import (
    Finding,
    ImportMap,
    ModuleContext,
    Rule,
    iter_calls,
    register,
)

_HOT_DIRS = ("md", "kmc")

_MESSAGE = (
    "np.add.at is NumPy's unbuffered scatter (known ~10x slow); use "
    "np.bincount(..., minlength=n) unless duplicate-index accumulation "
    "order is load-bearing (then say why in a pragma)"
)


@register
class SlowDataMovementRule(Rule):
    code = "REP007"
    name = "slow-data-movement"
    summary = "np.add.at on a hot path"
    explanation = """\
``np.add.at`` inside ``md/`` or ``kmc/`` is the data-movement pattern
this reproduction measured and replaced: unbuffered ufunc scatters lose
an order of magnitude to ``np.bincount`` accumulation.

Annotate a deliberate exception (duplicate-index accumulation whose
order is load-bearing for bit-identity) inline with
``# repro: noqa(REP007) <why this movement pattern is required>``.
"""

    def check_module(self, module: ModuleContext) -> Iterable[Finding]:
        if not module.in_dirs(*_HOT_DIRS):
            return
        imports = ImportMap(module.tree)
        for call in iter_calls(module.tree):
            if imports.resolve_call(call.func) == "numpy.add.at":
                yield module.finding(self.code, call, _MESSAGE)
