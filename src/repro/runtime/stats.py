"""Per-rank communication accounting.

Every message the runtime carries is counted here once, exactly, by
the rank that sends it: messages, payload bytes and collectives — and
nothing else.  These counts are the data behind the Figure 12
(communication volume) and Figure 13 (communication time)
reproductions; the runtime prices nothing,
:class:`~repro.perfmodel.machine.ScalingNetwork` turns the counts into
modeled Sunway seconds.

:class:`TrafficStats` doubles as a backend of the unified
:mod:`repro.observe` spine: with observation enabled, every recorded
send and collective is mirrored into the active registry's
``runtime.*`` counters, so traffic and phase timings land in one place.
"""

from __future__ import annotations

import pickle
import threading
from dataclasses import astuple, dataclass, fields

import numpy as np

from repro import observe as obs


def payload_nbytes(obj) -> int:
    """Wire size of a message payload in bytes.

    NumPy arrays and raw byte strings are counted exactly (the runtime
    moves them by reference or through the process backend's queues,
    mimicking MPI's buffer sends); the array fast path costs
    ``arr.nbytes`` for *any* numeric array — views, non-contiguous
    slices, Fortran order, structured dtypes — with no pickle round-trip,
    matching the array data that actually crosses between processes (a
    C-contiguous copy of the logical elements).  Object-dtype arrays carry arbitrary
    Python references whose ``nbytes`` is just pointer storage, so they
    fall through to pickle costing like any other opaque object.  NumPy
    scalars cost one 8-byte word like their Python counterparts;
    structured payloads of arrays are summed; anything else is costed at
    its pickled size.  Pickled sizes are memoized on ``id()`` within one
    message, so a payload repeating the same object pays for one
    ``pickle.dumps``.
    """
    return _payload_nbytes(obj, None)


def _payload_nbytes(obj, memo: dict[int, int] | None) -> int:
    if obj is None:
        return 0
    if isinstance(obj, np.ndarray) and not obj.dtype.hasobject:
        return obj.nbytes
    if isinstance(obj, (bytes, bytearray, memoryview)):
        return len(obj)
    if isinstance(obj, (int, float, bool, np.integer, np.floating, np.bool_)):
        return 8
    if isinstance(obj, (tuple, list)):
        if memo is None:
            memo = {}
        return sum(_payload_nbytes(x, memo) for x in obj)
    if isinstance(obj, dict):
        if memo is None:
            memo = {}
        return sum(
            _payload_nbytes(k, memo) + _payload_nbytes(v, memo)
            for k, v in obj.items()
        )
    if memo is not None:
        cached = memo.get(id(obj))
        if cached is not None:
            return cached
    try:
        nbytes = len(pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL))
    except (pickle.PicklingError, TypeError, AttributeError):
        # Unpicklable control-plane objects are costed as an envelope.
        # Only pickling failures are swallowed — anything else
        # (KeyboardInterrupt, MemoryError, a bug in __reduce__) is a
        # real error and must propagate.
        nbytes = 64
    if memo is not None:
        memo[id(obj)] = nbytes
    return nbytes


@dataclass
class RankCounters:
    """Mutable traffic counters of a single rank."""

    sent_messages: int = 0
    sent_bytes: int = 0
    collectives: int = 0


class TrafficStats:
    """Thread-safe per-rank counts of all communication in one :class:`World`."""

    def __init__(self, nranks: int) -> None:
        self.nranks = nranks
        self._lock = threading.Lock()
        self.ranks = [RankCounters() for _ in range(self.nranks)]

    # ------------------------------------------------------------------
    # Recording (called by the runtime)
    # ------------------------------------------------------------------
    def record_send(self, src: int, nbytes: int) -> None:
        with self._lock:
            c = self.ranks[src]
            c.sent_messages += 1
            c.sent_bytes += nbytes
        if obs.enabled():
            obs.add("runtime.sent_messages")
            obs.add("runtime.sent_bytes", nbytes)

    def record_collective(self) -> None:
        """Record one collective; charged to every rank."""
        with self._lock:
            for c in self.ranks:
                c.collectives += 1
        if obs.enabled():
            obs.add("runtime.collectives")

    # ------------------------------------------------------------------
    # Aggregates
    # ------------------------------------------------------------------
    @property
    def total_sent_bytes(self) -> int:
        return self.snapshot()["total_sent_bytes"]

    @property
    def total_messages(self) -> int:
        return self.snapshot()["total_messages"]

    @property
    def total_collectives(self) -> int:
        return self.snapshot()["total_collectives"]

    def snapshot(self) -> dict:
        """A plain-dict summary: world totals and per-rank sent counts."""
        with self._lock:
            sent_messages = [c.sent_messages for c in self.ranks]
            sent_bytes = [c.sent_bytes for c in self.ranks]
            return {
                "nranks": self.nranks,
                "total_sent_bytes": sum(sent_bytes),
                "total_messages": sum(sent_messages),
                "total_collectives": sum(c.collectives for c in self.ranks),
                "sent_messages": sent_messages,
                "sent_bytes": sent_bytes,
            }

    # ------------------------------------------------------------------
    # Cross-process aggregation (the simmpi process backend)
    # ------------------------------------------------------------------
    def export_state(self) -> list[tuple]:
        """Per-rank counters as a picklable list of tuples."""
        with self._lock:
            return [astuple(c) for c in self.ranks]

    def absorb_state(self, state: list[tuple]) -> None:
        """Sum another process's :meth:`export_state` into this one.

        Each traffic event is recorded in exactly one process (a send by
        the sender's, a collective by rank 0's for every rank), so
        summing the per-rank tuples across all children reconstructs the
        world-wide accounting exactly.
        """
        if len(state) != self.nranks:
            raise ValueError(
                f"cannot absorb stats for {len(state)} ranks into a "
                f"{self.nranks}-rank world"
            )
        with self._lock:
            for c, row in zip(self.ranks, state, strict=True):
                for f, value in zip(fields(c), row, strict=True):
                    setattr(c, f.name, getattr(c, f.name) + value)
