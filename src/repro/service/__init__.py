"""Simulation-as-a-service job layer over the coupled MD-KMC driver.

The ROADMAP's "millions of users" refactor: many small parameterized
coupled runs (dose sweeps, seed ensembles, scenario studies) are
*submitted* as declarative :class:`ScenarioSpec` values instead of being
executed inline.  The layer is a directory, not a daemon framework —
every component is crash-safe plain files:

* :mod:`repro.service.spec` — the declarative scenario description and
  its canonical content hash (spec identity + schema + code version).
* :mod:`repro.service.queue` — the persistent on-disk job queue,
  journaled through :mod:`repro.io.atomic` so an accepted job is never
  lost or duplicated by a crash.
* :mod:`repro.service.cache` — the content-addressed result store:
  one published directory per spec key, staged and renamed atomically,
  so identical specs dedupe to one execution and cache hits are
  bit-exact (seeds make runs pure functions of the spec).
* :mod:`repro.service.scheduler` — :class:`ServicePool`, scheduling
  pending jobs onto a pool of forked worker processes with bounded
  crash retries.
* :mod:`repro.service.worker` — one job's execution: run the spec
  through :class:`~repro.core.coupling.CoupledSimulation` under its
  recovery supervisor, stream observe-registry snapshots, and stage
  the artifacts.
* :mod:`repro.service.client` — the embedding API
  (:class:`ServiceClient`, :func:`run_service`); the CLI ``serve`` /
  ``submit`` / ``status`` / ``result`` subcommands are thin wrappers
  over it, and ``coupled`` builds the same :class:`ScenarioSpec`.

Every public name resolves on first access (PEP 562), so
``from repro.service.spec import ScenarioSpec`` loads neither the
scheduler nor ``multiprocessing``.
"""

from importlib import import_module

#: Public name -> defining module; ``repro.analyze.graph`` reads this
#: literal to follow calls through the package.
_EXPORTS = {
    "DONE": "repro.service.queue",
    "FAILED": "repro.service.queue",
    "PENDING": "repro.service.queue",
    "RUNNING": "repro.service.queue",
    "SPEC_SCHEMA_VERSION": "repro.service.spec",
    "JobQueue": "repro.service.queue",
    "JobRecord": "repro.service.queue",
    "JobResult": "repro.service.client",
    "ResultCache": "repro.service.cache",
    "ScenarioSpec": "repro.service.spec",
    "ServiceClient": "repro.service.client",
    "ServiceError": "repro.service.queue",
    "ServicePool": "repro.service.scheduler",
    "SpecError": "repro.service.spec",
    "execute_spec": "repro.service.worker",
    "run_service": "repro.service.client",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(_EXPORTS[name]), name)
    return value
