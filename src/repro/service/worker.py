"""Running specs: a batch in, content-addressed cache entries out.

:func:`run_service` is the one way to run a batch of specs.  It keys
each spec, answers repeated and already-published keys from the
:class:`~repro.service.cache.ResultCache`, and forks at most
``workers`` :func:`run_job` processes for the misses.  :func:`run_job`
runs :func:`execute_spec` — the spec through the coupled driver
(:class:`~repro.core.coupling.CoupledSimulation`; fault plans and
recovery ride its supervisor) with the trajectory and checkpoint paths
staged in a work directory — and publishes the staged artifacts.

A worker that dies at any instant leaves nothing but its staging
directory: publication is a single atomic rename, so its jobs fail, the
staging is discarded, and calling :func:`run_service` again
re-executes the key from scratch, publishing artifacts bit-identical to
a fault-free run (seeds make the run a pure function of the spec).
"""

from __future__ import annotations

import json
import multiprocessing
from contextlib import suppress
from dataclasses import asdict, dataclass
from multiprocessing.connection import wait
from pathlib import Path

from repro import observe as obs
from repro.io.atomic import atomic_write, atomic_write_bytes
from repro.service.cache import ResultCache
from repro.service.spec import ScenarioSpec

RESULT_FORMAT = "repro-service-result-v1"

#: Job states of a finished :func:`run_service` record.
DONE = "done"
FAILED = "failed"

#: Where a failing worker reports its error, inside its staging dir.
_ERROR_NAME = "ERROR"


def _dumps(payload: dict) -> str:
    # Compact + key-sorted: result.json is a deterministic artifact, so
    # equal results must encode to equal bytes.
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


@dataclass
class JobRecord:
    """How one spec of a :func:`run_service` batch ended."""

    key: str
    #: ``executed`` ran the simulation, ``attached`` shared the
    #: execution of an earlier spec of the batch with the same key,
    #: ``cached`` found a published entry.
    mode: str
    state: str = DONE
    #: Failure description once ``state == FAILED``.
    error: str | None = None


def execute_spec(spec: ScenarioSpec, workdir) -> dict:
    """Run one scenario, staging the artifact layout under ``workdir``.

    Deterministic artifacts (``result.json``, the ``.npy`` damage
    states, the ``trajectory/`` store) are bit-reproducible functions
    of the spec; ``run.json`` and the final ``checkpoint/`` snapshots
    are execution metadata (they may record recoveries, and ``.npz``
    embeds zip timestamps).  Returns the ``result.json`` payload.
    """
    import numpy as np

    from repro.core.coupling import CoupledSimulation

    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    trajectory = (
        str(workdir / "trajectory") if spec.trajectory_every is not None else None
    )
    checkpoint_dir = (
        str(workdir / "checkpoint") if spec.checkpoint_every is not None else None
    )
    config = spec.to_coupled_config(
        trajectory=trajectory, checkpoint_dir=checkpoint_dir
    )
    sim = CoupledSimulation(config)
    with obs.phase("service.execute"):
        result = sim.run()
    np.save(workdir / "vacancies_after_md.npy", result.vacancies_after_md)
    np.save(workdir / "vacancies_after_kmc.npy", result.vacancies_after_kmc)
    summary = {
        "format": RESULT_FORMAT,
        "key": spec.key(),
        "spec": spec.identity(),
        "kmc_events": result.kmc_events,
        "kmc_time_ps": result.kmc_time,
        "real_time_seconds": result.real_time_seconds,
        "vacancies_after_md": int(len(result.vacancies_after_md)),
        "vacancies_after_kmc": int(len(result.vacancies_after_kmc)),
        "clusters_after_md": asdict(result.report_after_md),
        "clusters_after_kmc": asdict(result.report_after_kmc),
        "trajectory_frames": result.trajectory_frames,
    }
    with atomic_write(workdir / "result.json") as fh:
        fh.write((_dumps(summary) + "\n").encode())
    run_meta = {
        "recoveries": result.recoveries,
        "fault_report": result.fault_report,
        "comm_stats": result.comm_stats,
    }
    with atomic_write(workdir / "run.json") as fh:
        fh.write((_dumps(run_meta) + "\n").encode())
    return summary


def run_job(spec_dict, staging, root) -> None:
    """Process entry point: execute one spec and publish its entry.

    On failure the error text lands (atomically) in the staging
    directory for :func:`run_service` to report, and the exception
    propagates, so the process exits nonzero.
    """
    spec = ScenarioSpec.from_dict(spec_dict)
    try:
        execute_spec(spec, staging)
        ResultCache(root).publish(spec.key(), staging)
    except BaseException as exc:
        # Best effort: without the file the exit code is the report.
        with suppress(OSError):
            atomic_write_bytes(
                Path(staging) / _ERROR_NAME,
                f"{type(exc).__name__}: {exc}\n".encode(),
            )
        raise


def _reported_error(staging: Path, exitcode) -> str:
    try:
        return (staging / _ERROR_NAME).read_text().strip()
    except OSError:
        return f"worker died with exit code {exitcode} before reporting"


def _execute(cache: ResultCache, misses: dict, workers: int) -> dict:
    """Fork one :func:`run_job` per ``key -> spec`` of ``misses``, at
    most ``workers`` at a time; returns the errors of keys left
    unpublished."""
    # Forked workers inherit the execution stack instead of importing
    # it per job; not at module level, because a warm call runs no job.
    import repro.core.coupling  # noqa: F401

    methods = multiprocessing.get_all_start_methods()
    ctx = multiprocessing.get_context("fork" if "fork" in methods else methods[0])
    cache.clean_orphans()
    todo = list(misses.items())
    running, errors = {}, {}
    while todo or running:
        while todo and len(running) < workers:
            key, spec = todo.pop(0)
            staging = cache.open_staging(key)
            proc = ctx.Process(
                target=run_job,
                args=(spec.to_dict(), str(staging), str(cache.root)),
                name=f"repro-worker-{key[:12]}",
            )
            proc.start()
            running[proc.sentinel] = (key, proc, staging)
        for sentinel in wait(list(running)):
            key, proc, staging = running.pop(sentinel)
            proc.join()
            # Published means complete (manifest last, atomic rename),
            # even if the worker died between publishing and exiting.
            if cache.lookup(key) is None:
                errors[key] = _reported_error(staging, proc.exitcode)
                cache.discard(staging)
    return errors


#: The counter each :attr:`JobRecord.mode` adds to.
_COUNTERS = {"executed": "service.executions", "attached": "service.dedup",
             "cached": "service.cache_hits"}


def run_service(root, specs, *, workers: int = 2) -> list[JobRecord]:
    """Run ``specs`` into the result cache of ``root``; one record each.

    A key already executing for an earlier spec of the batch is
    ``attached`` to that execution, a key with a published entry is
    ``cached``, and every other key is ``executed`` by one forked
    :func:`run_job` process, at most ``workers`` at a time.  A worker
    that dies without publishing fails its key's records with its
    reported error (or its exit code) and leaves no cache entry; a
    later call re-executes the key.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    with obs.phase("service.schedule"):
        cache = ResultCache(root)
        seen, misses, records = set(), {}, []
        for spec in specs:
            key = spec.key()
            if key in misses:
                mode = "attached"
            elif key in seen or cache.lookup(key) is not None:
                mode = "cached"
            else:
                mode = "executed"
                misses[key] = spec
            seen.add(key)
            obs.add(_COUNTERS[mode])
            records.append(JobRecord(key, mode))
        errors = _execute(cache, misses, workers) if misses else {}
        for record in records:
            if record.key in errors:
                record.state, record.error = FAILED, errors[record.key]
    return records
