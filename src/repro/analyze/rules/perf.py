"""REP007 — known-slow data movement on hot paths.

Two patterns this codebase has already paid to eliminate keep trying to
sneak back in:

* ``np.add.at`` — NumPy's unbuffered ufunc scatter, an order of
  magnitude slower than the ``np.bincount(..., minlength=n)`` scatters
  the force kernels use (see :mod:`repro.md.forces`).
* ``pickle.dumps`` of array payloads — the process backend moves bulk
  arrays through the shared-memory slot pool
  (:mod:`repro.runtime.shm`); a hand-rolled ``pickle.dumps`` on the
  message path serializes the bytes the transport exists to not copy.

The rule flags both in the hot directories (``md/``, ``kmc/``) and in
the two transport implementations themselves.  Deliberate survivors — a scatter
whose duplicate-index accumulation order is load-bearing for
bit-identity, a pickle on an error path — carry an inline pragma that
says why.
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
_HOT_FILES = ("runtime/transport.py", "runtime/procbackend.py")

_SLOW_CALLS = {
    "numpy.add.at": (
        "np.add.at is NumPy's unbuffered scatter (known ~10x slow); use "
        "np.bincount(..., minlength=n) unless duplicate-index accumulation "
        "order is load-bearing (then say why in a pragma)"
    ),
    "pickle.dumps": (
        "pickle.dumps on a hot path copies bytes the shared-memory "
        "transport exists to avoid; array payloads should ride the queue "
        "headers + shm slots (repro.runtime.shm)"
    ),
}


@register
class SlowDataMovementRule(Rule):
    code = "REP007"
    name = "slow-data-movement"
    summary = "np.add.at / pickle.dumps on a hot path"
    explanation = """\
``np.add.at`` inside ``md/`` or ``kmc/`` and ``pickle.dumps`` anywhere
on the transports' message path are the two data-movement patterns
this reproduction measured and replaced: unbuffered ufunc scatters lose
an order of magnitude to ``np.bincount`` accumulation, and pickling
array payloads defeats the zero-copy shared-memory transport.

Annotate a deliberate exception (duplicate-index accumulation whose
order is load-bearing for bit-identity, serialization on an error path)
inline with ``# repro: noqa(REP007) <why this movement pattern is
required>``.
"""

    def check_module(self, module: ModuleContext) -> Iterable[Finding]:
        if not module.in_dirs(*_HOT_DIRS) and not module.rel_path.endswith(
            _HOT_FILES
        ):
            return
        imports = ImportMap(module.tree)
        for call in iter_calls(module.tree):
            target = imports.resolve_call(call.func)
            message = _SLOW_CALLS.get(target or "")
            if message is not None:
                yield module.finding(self.code, call, message)
