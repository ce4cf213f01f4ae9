"""The service layer: a batch of scenarios run into a result cache.

A scenario is a declarative :class:`ScenarioSpec`; a batch of them runs
through :func:`run_service`, and identical specs dedupe to one
execution and one content-addressed cache entry.  The layer is a
directory, not a daemon — every component is crash-safe plain files:

* :mod:`repro.service.spec` — the declarative scenario description and
  its canonical content hash (spec identity + schema + code version).
* :mod:`repro.service.cache` — the content-addressed result store:
  one published directory per spec key, staged and renamed atomically,
  so cache hits are bit-exact (seeds make runs pure functions of the
  spec).
* :mod:`repro.service.worker` — :func:`run_service`, forking at most
  ``workers`` executions of the batch's cache misses, and one job's
  execution: the spec through
  :class:`~repro.core.coupling.CoupledSimulation` under its recovery
  supervisor, staged and published.
* :mod:`repro.service.queue` and :mod:`repro.service.client` — the
  durable job submission and cache handle the benchmark ledger still
  times and reads.

Every public name resolves on first access (PEP 562), so
``from repro.service.spec import ScenarioSpec`` loads neither the
worker nor ``multiprocessing``.
"""

from importlib import import_module

#: Public name -> defining module, resolved on first access (PEP 562).
_EXPORTS = {
    "DONE": "repro.service.worker",
    "FAILED": "repro.service.worker",
    "SPEC_SCHEMA_VERSION": "repro.service.spec",
    "JobQueue": "repro.service.queue",
    "JobRecord": "repro.service.worker",
    "ResultCache": "repro.service.cache",
    "ScenarioSpec": "repro.service.spec",
    "ServiceClient": "repro.service.client",
    "ServiceError": "repro.service.cache",
    "SpecError": "repro.service.spec",
    "execute_spec": "repro.service.worker",
    "run_service": "repro.service.worker",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(_EXPORTS[name]), name)
    return value
