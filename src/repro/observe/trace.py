"""Chrome-trace (``chrome://tracing`` / Perfetto) JSON export.

The exported file follows the Trace Event Format: phase occurrences
become complete (``"ph": "X"``) events, counters become counter
(``"ph": "C"``) events sampled at the end of the run, and thread-name
metadata maps the runtime's ``simmpi-rank-N`` threads onto labeled trace
rows.  Timestamps are microseconds since registry creation and the event
list is emitted in non-decreasing ``ts`` order.
"""

from __future__ import annotations

import json

from repro.observe.registry import Registry


def chrome_trace(registry: Registry) -> dict:
    """The registry's content as a Trace Event Format dictionary."""
    with registry._lock:
        events = list(registry.events)
        counters = dict(registry.counters)
        thread_names = dict(registry.thread_names)
    trace_events: list[dict] = []
    for tid, name in sorted(thread_names.items()):
        trace_events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": 0,
                "tid": tid,
                "ts": 0,
                "args": {"name": name},
            }
        )
    end_ts = 0.0
    for ev in sorted(events, key=lambda e: e.ts):
        ts = ev.ts * 1e6
        dur = ev.dur * 1e6
        end_ts = max(end_ts, ts + dur)
        trace_events.append(
            {
                "name": ev.name,
                "cat": ev.category,
                "ph": "X",
                "ts": ts,
                "dur": dur,
                "pid": 0,
                "tid": ev.tid,
            }
        )
    for name, value in sorted(counters.items()):
        trace_events.append(
            {
                "name": name,
                "cat": name.split(".", 1)[0],
                "ph": "C",
                "ts": end_ts,
                "pid": 0,
                "tid": 0,
                "args": {"value": value},
            }
        )
    return {
        "traceEvents": trace_events,
        "displayTimeUnit": "ms",
        "otherData": {"dropped_events": registry.dropped_events},
    }


def write_chrome_trace(registry: Registry, path: str) -> None:
    """Serialize :func:`chrome_trace` to ``path``."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(chrome_trace(registry), fh)
