"""Durable job submission: one journaled JSON record per submitted spec.

No code in :mod:`repro` reads these records —
:func:`~repro.service.worker.run_service` runs a batch straight into
the result cache.  The queue is a directory of ``job-NNNNNN.json``
files, and :meth:`JobQueue.submit` writes the full record to a unique
fsynced temp file first and then *hard-links* it to the next free slot
name.  ``link(2)`` is atomic and fails with ``EEXIST`` on a taken name,
so concurrent submitters can never claim the same id and a crash at any
instant leaves either no record or one complete record — never a torn
or duplicated job.
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path

from repro.io.atomic import _fsync_dir
from repro.service.spec import ScenarioSpec, canonical_json

#: Record format tag.
JOB_FORMAT = "repro-service-job-v1"


# Pinned by benchmarks/ledger/probes.py::_service (service.submit_ms).
class JobQueue:
    """The ``queue/`` directory of a service root."""

    def __init__(self, root) -> None:
        self.dir = Path(root) / "queue"
        self.dir.mkdir(parents=True, exist_ok=True)

    def _next_id(self) -> int:
        highest = 0
        for name in os.listdir(self.dir):
            if name.startswith("job-") and name.endswith(".json"):
                try:
                    highest = max(highest, int(name[4:-5]))
                except ValueError:
                    continue
        return highest + 1

    def submit(self, spec: ScenarioSpec) -> str:
        """Durably accept one job; returns its id.

        Identical specs submitted twice create two jobs, each with its
        own id.
        """
        payload = {"format": JOB_FORMAT, "spec": spec.to_dict(),
                   "key": spec.key()}
        fd, tmp_name = tempfile.mkstemp(
            prefix="submit.", suffix=".tmp", dir=self.dir
        )
        try:
            with os.fdopen(fd, "w", encoding="ascii") as fh:
                # The payload never contains the id: the slot name the
                # link lands on *is* the id, so the record cannot
                # disagree with its file name.
                fh.write(canonical_json(payload))
                fh.flush()
                os.fsync(fh.fileno())
            n = self._next_id()
            while True:
                final = self.dir / f"job-{n:06d}.json"
                try:
                    os.link(tmp_name, final)
                    break
                except FileExistsError:
                    # Another submitter claimed the slot between our
                    # scan and the link; take the next one.
                    n += 1
        finally:
            os.unlink(tmp_name)
        _fsync_dir(self.dir)
        return f"job-{n:06d}"
