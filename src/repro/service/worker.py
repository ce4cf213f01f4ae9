"""One job's execution: spec in, staged content-addressed artifacts out.

:func:`execute_spec` is the pure core — run the spec through the
coupled driver (:class:`~repro.core.coupling.CoupledSimulation`; fault
plans and recovery ride its supervisor) with the trajectory and
checkpoint paths staged in a work directory, and lay the artifacts out
there.
:func:`run_job` is the process entry point the scheduler forks: it adds
live observability (a streamed observe-registry snapshot rewritten
atomically on every pipeline stage boundary and every few hundred
milliseconds) and publishes the staged artifacts to the cache.

A worker that dies at any instant leaves nothing but its staging
directory: publication is a single atomic rename, so the scheduler can
retry the job from scratch and the retried execution publishes
artifacts bit-identical to a fault-free run (seeds make the run a pure
function of the spec).
"""

from __future__ import annotations

import json
import os
import threading
from dataclasses import asdict
from pathlib import Path

from repro import observe as obs
from repro.io.atomic import atomic_write, atomic_write_bytes
from repro.service.cache import ResultCache
from repro.service.spec import ScenarioSpec

RESULT_FORMAT = "repro-service-result-v1"

#: Streaming cadence of the observe snapshot (seconds).
SNAPSHOT_INTERVAL = 0.25


def _dumps(payload: dict) -> str:
    # Compact + key-sorted: result.json is a deterministic artifact, so
    # equal results must encode to equal bytes.
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


class SnapshotStreamer:
    """Rewrite a registry snapshot file on stage changes and on a timer.

    Purely observational: snapshots are written with ``sync=False`` (a
    torn-free atomic replace, but no fsync) so streaming never competes
    with the simulation for I/O durability.
    """

    def __init__(self, registry, path, interval: float = SNAPSHOT_INTERVAL):
        self.registry = registry
        self.path = Path(path)
        self.interval = interval
        self.stage = "starting"
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._loop, name="service-snapshot", daemon=True
        )

    def __enter__(self):
        self.write()
        self._thread.start()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self._stop.set()
        self._thread.join(timeout=5.0)
        self.stage = "failed" if exc_type is not None else "done"
        self.write()

    def on_stage(self, stage: str) -> None:
        """The :class:`~repro.core.coupling.CoupledSimulation` hook."""
        self.stage = stage
        self.write()

    def write(self) -> None:
        payload = self.registry.summary()
        payload["stage"] = self.stage
        payload["pid"] = os.getpid()
        try:
            atomic_write_bytes(
                self.path, (_dumps(payload) + "\n").encode(), sync=False
            )
        except OSError:
            # Snapshots are best-effort; losing one must never kill the
            # simulation — but it stays observable.
            obs.add("service.snapshot_write_errors")

    def _loop(self) -> None:
        while not self._stop.wait(self.interval):
            self.write()


def execute_spec(spec: ScenarioSpec, workdir, *, progress=None) -> dict:
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
    sim = CoupledSimulation(config, progress=progress)
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


def error_path_for(staging) -> Path:
    """Where :func:`run_job` reports a failure for this staging dir."""
    staging = Path(staging)
    return staging.parent / (staging.name + ".error")


def run_job(spec_dict, staging, root, obs_path=None, attempt: int = 1) -> None:
    """Process entry point: execute, stream observability, publish.

    On failure the error text lands (atomically) next to the staging
    directory for the scheduler to surface, and the nonzero exit code
    triggers the bounded-retry path.
    """
    staging = Path(staging)
    spec = ScenarioSpec.from_dict(spec_dict)
    try:
        registry = obs.enable(trace=False)
        if obs_path is not None:
            with SnapshotStreamer(registry, obs_path) as streamer:
                execute_spec(spec, staging, progress=streamer.on_stage)
                streamer.on_stage("publishing")
                ResultCache(root).publish(spec.key(), staging)
        else:
            execute_spec(spec, staging)
            ResultCache(root).publish(spec.key(), staging)
    except BaseException as exc:
        try:
            atomic_write_bytes(
                error_path_for(staging),
                f"attempt {attempt}: {type(exc).__name__}: {exc}\n".encode(),
            )
        except OSError:
            obs.add("service.error_report_failures")
        raise
