"""Module-level observation API with a near-zero-cost disabled path.

Instrumented code calls :func:`phase` and :func:`add` unconditionally.
When no registry is active (the default), each is a single global load
plus a ``None`` check: :func:`phase` returns a shared no-op context
manager and :func:`add` returns immediately, so hot paths pay
effectively nothing for being observable.

Enable observation around a region of interest::

    from repro import observe as obs

    with obs.observing() as registry:
        run_workload()
    print(obs.format_report(registry))
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.observe.registry import Registry

_active: Registry | None = None


def _new_registry(trace: bool) -> Registry:
    """A fresh registry; the first one loads ``observe.registry``."""
    from repro.observe.registry import Registry

    return Registry(trace=trace)


class _NullPhase:
    """The shared do-nothing context manager of the disabled path."""

    __slots__ = ()

    def __enter__(self) -> "_NullPhase":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


NULL_PHASE = _NullPhase()


def enable(registry: Registry | None = None, trace: bool = True) -> Registry:
    """Make ``registry`` (or a fresh one) the active registry."""
    global _active
    _active = registry if registry is not None else _new_registry(trace)
    return _active


def disable() -> Registry | None:
    """Deactivate observation; returns the registry that was active."""
    global _active
    registry, _active = _active, None
    return registry


def active() -> Registry | None:
    """The currently active registry, or ``None`` when disabled."""
    return _active


def enabled() -> bool:
    """Whether observation is currently on."""
    return _active is not None


@contextmanager
def observing(registry: Registry | None = None, trace: bool = True):
    """Context manager activating a registry and restoring the previous one."""
    global _active
    previous = _active
    registry = registry if registry is not None else _new_registry(trace)
    _active = registry
    try:
        yield registry
    finally:
        _active = previous


def phase(name: str):
    """Time a phase (``with obs.phase("md.force"): ...``); no-op when disabled."""
    registry = _active
    if registry is None:
        return NULL_PHASE
    return registry.phase(name)


def add(name: str, value: float = 1) -> None:
    """Increment a named counter; no-op when disabled."""
    registry = _active
    if registry is not None:
        registry.add(name, value)
