"""The observation registry: hierarchical phase timing, counters, gauges.

One :class:`Registry` collects everything a run wants to know about
itself.  Phases form a per-thread stack (the nesting *is* the hierarchy
— dotted names like ``md.force`` only label subsystems), so the same
registry aggregates records from every rank thread of a
:class:`~repro.runtime.simmpi.World` without coordination beyond one
lock taken at phase exit.

The registry never samples wall clocks on its own: all timestamps come
from ``time.perf_counter()`` relative to the registry's creation, which
keeps trace timestamps monotonic and comparable across threads.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass


@dataclass
class PhaseStat:
    """Aggregate of all completions of one phase path."""

    count: int = 0
    total: float = 0.0
    min: float = float("inf")
    max: float = 0.0

    def add(self, duration: float) -> None:
        self.count += 1
        self.total += duration
        if duration < self.min:
            self.min = duration
        if duration > self.max:
            self.max = duration


@dataclass(frozen=True)
class TraceEvent:
    """One completed phase occurrence (Chrome-trace ``X`` event)."""

    name: str
    ts: float  # seconds since registry creation
    dur: float  # seconds
    tid: int

    @property
    def category(self) -> str:
        """Subsystem label: the dotted-name prefix (``md.force`` -> ``md``)."""
        return self.name.split(".", 1)[0]


class _PhaseHandle:
    """Context manager produced by :meth:`Registry.phase`.

    Cheap by construction: two attribute slots, no allocation beyond the
    handle itself, and all aggregation deferred to ``__exit__``.
    """

    __slots__ = ("_registry", "_name")

    def __init__(self, registry: "Registry", name: str) -> None:
        self._registry = registry
        self._name = name

    def __enter__(self) -> "_PhaseHandle":
        stack = self._registry._stack()
        stack.append((self._name, time.perf_counter()))
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        t1 = time.perf_counter()
        reg = self._registry
        stack = reg._stack()
        name, t0 = stack.pop()
        path = tuple(frame[0] for frame in stack) + (name,)
        reg._commit(path, name, t0, t1 - t0)
        return False


class Registry:
    """Thread-safe store of phase statistics, counters, and gauges.

    Parameters
    ----------
    trace:
        Keep individual phase occurrences for Chrome-trace export.  When
        ``False`` only the aggregates survive (lighter for long runs).
    max_events:
        Cap on retained trace events; occurrences beyond it are counted
        in :attr:`dropped_events` instead of growing without bound.
    """

    def __init__(self, trace: bool = True, max_events: int = 1_000_000) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self._t0 = time.perf_counter()
        self._trace = trace
        self._max_events = max_events
        self.phases: dict[tuple[str, ...], PhaseStat] = {}
        self.counters: dict[str, float] = {}
        self.gauges: dict[str, float] = {}
        self.events: list[TraceEvent] = []
        self.dropped_events: int = 0
        self.thread_names: dict[int, str] = {}

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def phase(self, name: str) -> _PhaseHandle:
        """A context manager timing one occurrence of ``name``."""
        return _PhaseHandle(self, name)

    def add(self, name: str, value: float = 1) -> None:
        """Increment counter ``name`` by ``value``."""
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + value

    def set_gauge(self, name: str, value: float) -> None:
        """Set gauge ``name`` to its latest ``value``."""
        with self._lock:
            self.gauges[name] = value

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def _commit(
        self, path: tuple[str, ...], name: str, t0: float, duration: float
    ) -> None:
        thread = threading.current_thread()
        tid = thread.ident or 0
        with self._lock:
            stat = self.phases.get(path)
            if stat is None:
                stat = self.phases[path] = PhaseStat()
            stat.add(duration)
            if tid not in self.thread_names:
                self.thread_names[tid] = thread.name
            if self._trace:
                if len(self.events) < self._max_events:
                    self.events.append(
                        TraceEvent(
                            name=name, ts=t0 - self._t0, dur=duration, tid=tid
                        )
                    )
                else:
                    self.dropped_events += 1

    # ------------------------------------------------------------------
    # Cross-process aggregation (the simmpi process backend)
    # ------------------------------------------------------------------
    def export_state(self) -> dict:
        """Everything a child process measured, as one picklable dict.

        ``t0`` is the registry's absolute ``time.perf_counter()`` origin:
        on Linux that clock is ``CLOCK_MONOTONIC``, shared across
        processes, so a parent registry can rebase the child's trace
        timestamps onto its own origin exactly.
        """
        with self._lock:
            return {
                "t0": self._t0,
                "phases": {
                    path: (stat.count, stat.total, stat.min, stat.max)
                    for path, stat in self.phases.items()
                },
                "counters": dict(self.counters),
                "gauges": dict(self.gauges),
                "events": [(e.name, e.ts, e.dur, e.tid) for e in self.events],
                "thread_names": dict(self.thread_names),
                "dropped_events": self.dropped_events,
            }

    def absorb_state(self, state: dict, label: str = "") -> None:
        """Merge an :meth:`export_state` dict from another process.

        Phase aggregates and counters sum, gauges take the child's
        latest value, and trace events are rebased onto this registry's
        time origin.  Child thread ids are remapped to fresh synthetic
        ids (raw ids can collide across processes); ``label`` prefixes
        the remapped thread names (e.g. ``"rank2/"``).
        """
        offset = state["t0"] - self._t0
        with self._lock:
            for path, (count, total, mn, mx) in state["phases"].items():
                stat = self.phases.get(path)
                if stat is None:
                    stat = self.phases[path] = PhaseStat()
                stat.count += count
                stat.total += total
                stat.min = min(stat.min, mn)
                stat.max = max(stat.max, mx)
            for name, value in state["counters"].items():
                self.counters[name] = self.counters.get(name, 0) + value
            self.gauges.update(state["gauges"])
            tid_map: dict[int, int] = {}
            next_tid = max(self.thread_names, default=0) + 1_000_000
            for tid, name in state["thread_names"].items():
                new = tid_map[tid] = next_tid
                next_tid += 1
                self.thread_names[new] = f"{label}{name}"
            if self._trace:
                for name, ts, dur, tid in state["events"]:
                    if len(self.events) < self._max_events:
                        self.events.append(
                            TraceEvent(
                                name=name,
                                ts=ts + offset,
                                dur=dur,
                                tid=tid_map.get(tid, tid),
                            )
                        )
                    else:
                        self.dropped_events += 1
            self.dropped_events += state["dropped_events"]

    # ------------------------------------------------------------------
    # Snapshots
    # ------------------------------------------------------------------
    def summary(self) -> dict:
        """Machine-readable snapshot (JSON-serializable)."""
        with self._lock:
            return {
                "phases": [
                    {
                        "path": "/".join(path),
                        "name": path[-1],
                        "depth": len(path) - 1,
                        "count": stat.count,
                        "total_s": stat.total,
                        "min_s": stat.min,
                        "max_s": stat.max,
                    }
                    for path, stat in sorted(self.phases.items())
                ],
                "counters": dict(self.counters),
                "gauges": dict(self.gauges),
                "dropped_events": self.dropped_events,
            }
