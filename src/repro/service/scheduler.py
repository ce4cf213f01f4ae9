"""The service pool: pending jobs onto worker processes, with retries.

:class:`ServicePool` owns one service root (the documented topology is
one live scheduler per root; concurrent schedulers stay *correct* —
publication races are first-writer-wins — but waste work).  Each
:meth:`ServicePool.step` pass:

1. reaps finished worker processes — an execution whose cache entry is
   published completes every job attached to its key; a dead worker
   with no published entry is retried with a fresh staging directory
   up to ``max_attempts`` times (``service.retries``), then all its
   jobs fail with the worker's reported error;
2. schedules pending jobs in submission order — a job whose key is
   already in flight *attaches* to that execution (``service.dedup``),
   a key with a published entry completes immediately
   (``service.cache_hits``), and otherwise a free worker slot forks a
   fresh execution (``service.executions``).

Workers are separate OS processes (fork where available), so a worker
crash — organic or injected — never takes the scheduler down; the PR 3
recovery supervisor handles faults *inside* a run, the retry loop here
handles the loss of the whole worker.
"""

from __future__ import annotations

import multiprocessing
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro import observe as obs
from repro.service import worker as worker_mod
from repro.service.cache import ResultCache
from repro.service.queue import (
    DONE,
    FAILED,
    PENDING,
    RUNNING,
    JobQueue,
    JobRecord,
)

#: Default bound on execution attempts per key.
DEFAULT_MAX_ATTEMPTS = 3


def _pick_context():
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else methods[0]
    )


@dataclass
class _Execution:
    """One in-flight worker process and the jobs riding on it."""

    key: str
    spec_dict: dict
    staging: Path
    obs_path: Path
    attempts: int = 1
    proc: object = None
    job_ids: list = field(default_factory=list)


class ServicePool:
    """Schedule queued scenario jobs onto a pool of worker processes.

    Parameters
    ----------
    root:
        The service root directory (queue/cache/tmp/obs live under it).
    workers:
        Maximum concurrent executions (worker processes).
    max_attempts:
        Execution attempts per key before its jobs fail.
    target:
        The worker process entry point; replaceable in tests to inject
        worker crashes (signature of
        :func:`repro.service.worker.run_job`).
    notify:
        Optional callable receiving one human-readable line per
        scheduling event (the ``serve`` CLI's live log).
    """

    def __init__(
        self,
        root,
        *,
        workers: int = 2,
        max_attempts: int = DEFAULT_MAX_ATTEMPTS,
        target=None,
        notify=None,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {max_attempts}")
        self.root = Path(root)
        self.workers = workers
        self.max_attempts = max_attempts
        self.queue = JobQueue(self.root)
        self.cache = ResultCache(self.root)
        self.obs_dir = self.root / "obs"
        self.obs_dir.mkdir(parents=True, exist_ok=True)
        self._target = target if target is not None else worker_mod.run_job
        self._notify = notify
        self._ctx = _pick_context()
        self._execs: dict[str, _Execution] = {}
        # Crashed executions from a previous scheduler life left their
        # staging dirs behind; nothing else references tmp/.
        self.cache.clean_orphans()

    # ------------------------------------------------------------------
    # Event reporting
    # ------------------------------------------------------------------
    def _log(self, message: str) -> None:
        if self._notify is not None:
            self._notify(message)

    # ------------------------------------------------------------------
    # Launch / attach / complete
    # ------------------------------------------------------------------
    def _spawn(self, execution: _Execution) -> None:
        # Forked workers inherit the execution stack — and the registry
        # every job observes into — instead of importing them per job; not
        # at module level, because status/result run no job.
        import repro.core.coupling  # noqa: F401
        import repro.observe.registry  # noqa: F401
        execution.proc = self._ctx.Process(
            target=self._target,
            args=(
                execution.spec_dict,
                str(execution.staging),
                str(self.root),
                str(execution.obs_path),
                execution.attempts,
            ),
            name=f"repro-worker-{execution.key[:12]}",
        )
        execution.proc.start()

    def _launch(self, job: JobRecord) -> None:
        execution = _Execution(
            key=job.key,
            spec_dict=job.spec.to_dict(),
            staging=self.cache.open_staging(job.key),
            obs_path=self.obs_dir / f"{job.key}.json",
            job_ids=[job.job_id],
        )
        self._spawn(execution)
        self._execs[job.key] = execution
        job.state = RUNNING
        job.mode = "executed"
        job.attempts = 1
        self.queue.update(job)
        obs.add("service.executions")
        self._log(
            f"{job.job_id} -> executing key={job.key[:12]} "
            f"(pid {execution.proc.pid})"
        )

    def _attach(self, job: JobRecord, execution: _Execution) -> None:
        execution.job_ids.append(job.job_id)
        job.state = RUNNING
        job.mode = "attached"
        job.attempts = execution.attempts
        self.queue.update(job)
        obs.add("service.dedup")
        self._log(f"{job.job_id} -> attached to in-flight key={job.key[:12]}")

    def _complete_from_cache(self, job: JobRecord) -> None:
        job.state = DONE
        job.mode = "cached"
        self.queue.update(job)
        obs.add("service.cache_hits")
        self._log(f"{job.job_id} -> done (cache hit, key={job.key[:12]})")

    def _finish_execution(self, execution: _Execution, state: str,
                          error: str | None) -> None:
        for job_id in execution.job_ids:
            record = self.queue.get(job_id)
            record.state = state
            record.attempts = execution.attempts
            record.error = error
            self.queue.update(record)

    # ------------------------------------------------------------------
    # Reaping and retries
    # ------------------------------------------------------------------
    def _read_error(self, execution: _Execution) -> str:
        path = worker_mod.error_path_for(execution.staging)
        try:
            text = path.read_text().strip()
            path.unlink()
            return text
        except OSError:
            code = execution.proc.exitcode
            return f"worker died with exit code {code} before reporting"

    def _reap(self) -> None:
        for key, execution in list(self._execs.items()):
            if execution.proc.is_alive():
                continue
            execution.proc.join()
            if self.cache.lookup(key) is not None:
                # Published artifacts are complete by construction
                # (manifest-last + atomic rename), even if the worker
                # died between publishing and exiting cleanly.
                self._finish_execution(execution, DONE, None)
                del self._execs[key]
                self._log(
                    f"key={key[:12]} published "
                    f"({len(execution.job_ids)} job(s) done, "
                    f"attempt {execution.attempts})"
                )
                continue
            error = self._read_error(execution)
            self.cache.discard(execution.staging)
            if execution.attempts < self.max_attempts:
                execution.attempts += 1
                execution.staging = self.cache.open_staging(key)
                self._spawn(execution)
                for job_id in execution.job_ids:
                    record = self.queue.get(job_id)
                    record.attempts = execution.attempts
                    self.queue.update(record)
                obs.add("service.retries")
                self._log(
                    f"key={key[:12]} worker lost ({error}); retrying "
                    f"(attempt {execution.attempts}/{self.max_attempts})"
                )
            else:
                self._finish_execution(execution, FAILED, error)
                del self._execs[key]
                obs.add("service.failures")
                self._log(
                    f"key={key[:12]} failed after "
                    f"{execution.attempts} attempt(s): {error}"
                )

    # ------------------------------------------------------------------
    # The scheduling pass
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """One reap+schedule pass; ``True`` while work remains."""
        self._reap()
        waiting = 0
        for job in self.queue.jobs():
            if job.state != PENDING:
                continue
            execution = self._execs.get(job.key)
            if execution is not None:
                self._attach(job, execution)
            elif self.cache.lookup(job.key) is not None:
                self._complete_from_cache(job)
            elif len(self._execs) < self.workers:
                self._launch(job)
            else:
                waiting += 1
        return bool(self._execs) or waiting > 0

    def run(self, *, drain: bool = False, poll: float = 0.05) -> None:
        """Schedule until interrupted — or, with ``drain``, until idle."""
        with obs.phase("service.schedule"):
            while True:
                active = self.step()
                if drain and not active:
                    return
                time.sleep(poll)

    def shutdown(self, *, kill: bool = False) -> None:
        """Stop scheduling; optionally kill in-flight workers.

        Without ``kill``, in-flight workers keep running to completion
        (their publishes remain valid; a later scheduler completes the
        attached jobs from the cache).
        """
        for execution in self._execs.values():
            if kill and execution.proc is not None and execution.proc.is_alive():
                execution.proc.terminate()
                execution.proc.join()
        self._execs.clear()


def summarize(records: list[JobRecord]) -> dict:
    """Queue-level statistics of a record list (the ``status`` payload)."""
    states = {state: 0 for state in (PENDING, RUNNING, DONE, FAILED)}
    executed = deduplicated = retries = 0
    for record in records:
        states[record.state] += 1
        if record.mode == "executed":
            executed += 1
            retries += max(0, record.attempts - 1)
        elif record.mode in ("attached", "cached"):
            deduplicated += 1
    return {
        "total": len(records),
        "states": states,
        "executions": executed,
        "deduplicated": deduplicated,
        "retries": retries,
    }
