"""A handle on one service root's result cache.

:func:`~repro.service.worker.run_service` is the service's API; a
published entry is read through :class:`~repro.service.cache.ResultCache`.
"""

from __future__ import annotations

from pathlib import Path

from repro.service.cache import ResultCache


# Pinned by benchmarks/ledger/workloads.py::ServiceSweep (client.cache).
class ServiceClient:
    """The root directory and result cache of one service root."""

    def __init__(self, root) -> None:
        self.root = Path(root)
        self.cache = ResultCache(self.root)
