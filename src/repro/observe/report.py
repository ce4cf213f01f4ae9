"""Plain-text performance report: the phase tree and counters.

The tree mirrors the runtime nesting recorded by the phase stack; a
phase's share is reported against its parent's total (threads aggregate,
so a parallel region's children can legitimately sum past 100% of the
wall clock — that is the concurrency showing).
"""

from __future__ import annotations

from repro.observe.registry import PhaseStat, Registry


def _format_seconds(value: float) -> str:
    if value >= 1.0:
        return f"{value:8.3f} s"
    if value >= 1e-3:
        return f"{value * 1e3:8.3f} ms"
    return f"{value * 1e6:8.1f} us"


def format_report(registry: Registry, counters: bool = True) -> str:
    """Render the registry as an indented phase tree plus counter tables."""
    with registry._lock:
        phases = {path: stat for path, stat in registry.phases.items()}
        counter_items = sorted(registry.counters.items())
        dropped = registry.dropped_events
    lines: list[str] = ["phase tree (aggregated over threads):"]
    if not phases:
        lines.append("  (no phases recorded)")

    roots = sorted({path[:1] for path in phases})

    def emit(path: tuple[str, ...], parent_total: float | None) -> None:
        stat: PhaseStat = phases[path]
        indent = "  " * len(path)
        share = (
            f" {100.0 * stat.total / parent_total:5.1f}%"
            if parent_total
            else ""
        )
        lines.append(
            f"{indent}{path[-1]:<{max(44 - 2 * len(path), 8)}} "
            f"{stat.count:>7}x {_format_seconds(stat.total)}{share}"
        )
        children = sorted(
            {p[: len(path) + 1] for p in phases if p[: len(path)] == path and len(p) > len(path)}
        )
        for child in children:
            emit(child, stat.total)

    for root in roots:
        emit(root, None)
    if counters and counter_items:
        lines.append("")
        lines.append("counters:")
        for name, value in counter_items:
            if float(value).is_integer():
                lines.append(f"  {name:<44} {int(value):>16,}")
            else:
                lines.append(f"  {name:<44} {value:>16.6g}")
    if dropped:
        lines.append("")
        lines.append(f"({dropped} trace events dropped beyond the retention cap)")
    return "\n".join(lines)
