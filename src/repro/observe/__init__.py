"""Unified observability spine: phase timers, counters, trace export.

Every execution layer of the reproduction — the MD engines, the AKMC
drivers and their communication schemes, the simulated-MPI runtime, and
the Sunway machine model — emits through this package:

* ``with obs.phase("md.force"):`` times a (nested, per-thread) phase;
* ``obs.add("runtime.sent_bytes", n)`` bumps a named counter.

Observation is **disabled by default**: without an active
:class:`Registry` each call is one global load and a ``None`` check, so
instrumented hot paths stay as fast as uninstrumented ones — and the
registry, report and trace modules load only once something observes.  Activate
with :func:`enable`/:func:`disable` or the :func:`observing` context
manager; render with :func:`format_report` (plain-text phase tree) or
:func:`write_chrome_trace` (``chrome://tracing`` / Perfetto JSON).

Dotted phase/counter names carry the subsystem as their first component
(``md``, ``kmc``, ``runtime``, ``sunway``, ``coupled``); the runtime
nesting of ``phase`` blocks — not the dots — defines the tree.

Well-known fault-tolerance names (emitted by :mod:`repro.runtime.faults`
and the recovery supervisor in :mod:`repro.core.coupling`):

* counters ``runtime.faults.injected`` (plus per-kind
  ``runtime.faults.crashes`` / ``.delays``),
  ``runtime.watchdog.expired``, ``runtime.recoveries``,
  ``coupling.recover.from_checkpoint`` / ``.from_scratch``, and
  ``kmc.checkpoints_written`` (both AKMC engines);
* phases ``coupling.recover`` (checkpoint restore during recovery) and
  ``kmc.checkpoint`` (periodic snapshot writes).
"""

from importlib import import_module

from repro.observe.api import (
    NULL_PHASE,
    active,
    add,
    disable,
    enable,
    enabled,
    observing,
    phase,
)

#: The names only an *observed* run touches -> defining module, resolved
#: on first access (PEP 562): with observation off a run loads
#: ``observe.api`` and nothing else of this package.
_EXPORTS = {
    "PhaseStat": "repro.observe.registry",
    "Registry": "repro.observe.registry",
    "TraceEvent": "repro.observe.registry",
    "chrome_trace": "repro.observe.trace",
    "format_report": "repro.observe.report",
    "write_chrome_trace": "repro.observe.trace",
}

__all__ = [
    "NULL_PHASE",
    "active",
    "add",
    "disable",
    "enable",
    "enabled",
    "observing",
    "phase",
    *_EXPORTS,
]


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(_EXPORTS[name]), name)
    return value
