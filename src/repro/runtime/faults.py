"""Deterministic fault injection for the simmpi runtime.

The paper's production runs are 8.6-hour jobs on 6.6 million cores; at
that scale a rank crash is worth planning for.  This module lets a run
*plan* its crashes ahead of time so the recovery machinery is exercised
deterministically:

* a plan is one string in the DSL below, and :func:`parse_plan` is the
  one parser and validator of it: every clause becomes a
  :class:`FaultSpec`, a rank crash at an engine fault point;
* a :class:`FaultInjector` is a plan's clauses plus the set of crash
  clauses that fired.  It guarantees a crash fires **once** — so a
  supervisor that restarts from a checkpoint converges instead of
  crashing forever — and derives its report from that set;
* :class:`InjectedFault` is what a crashed rank raises; the world then
  aborts exactly as it would for an organic failure.

Every fired crash bumps ``runtime.faults.crashes`` in
:mod:`repro.observe`, so a profiled run shows the fault load next to
the phase tree.

Plan syntax (semicolon-separated clauses, ``crash:key=value,...``)::

    crash:rank=1,cycle=3          # raise on rank 1 at parallel KMC cycle 3
    crash:rank=0,event=120        # raise on rank 0 at serial event 120

A crash takes ``rank`` and exactly one of ``cycle``/``event`` (>= 0).
Any other kind, a key given twice, or a key a crash does not take is an
error naming the clause.  A crash cannot change the final state of a
deterministic program: recovery replays to the same bytes.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

from repro import observe as obs

#: The one fault kind, and the key sets a clause of it may give.
_KIND = "crash"
_KEYS = (("rank", "cycle"), ("rank", "event"))


class InjectedFault(RuntimeError):
    """Raised inside a rank when its planned crash point is reached."""


class FaultPlanError(ValueError):
    """A fault-plan string could not be parsed."""


@dataclass(frozen=True)
class FaultSpec:
    """One clause of a plan: ``rank`` crashes at the ``n``-th ``point``.

    ``point`` is an engine fault point (``kmc.cycle`` or ``kmc.event``,
    numbered from 0 as the engine numbers them).  ``clause`` is the text
    the spec was parsed from.
    """

    clause: str
    rank: int
    point: str
    n: int


def _parse_clause(clause: str) -> FaultSpec:
    kind, _, body = (part.strip() for part in clause.partition(":"))
    if kind != _KIND:
        raise FaultPlanError(
            f"unknown fault kind {kind!r} in {clause!r}; expected {_KIND!r}"
        )
    kw: dict[str, str] = {}
    for item in body.split(",") if body else ():
        key, eq, value = (part.strip() for part in item.partition("="))
        if not eq or key in kw:
            problem = "repeated" if eq else "malformed"
            raise FaultPlanError(f"{problem} key {key!r} in {clause!r}")
        kw[key] = value
    if not any(set(kw) == set(keys) for keys in _KEYS):
        expected = " or ".join(",".join(keys) for keys in _KEYS)
        raise FaultPlanError(
            f"{kind} takes keys {expected}, got {sorted(kw)} in {clause!r}"
        )
    at = "cycle" if "cycle" in kw else "event"
    try:
        spec = FaultSpec(clause, int(kw["rank"]), f"kmc.{at}", int(kw[at]))
    except ValueError as exc:
        raise FaultPlanError(f"bad value in {clause!r}: {exc}") from exc
    if spec.rank < 0 or spec.n < 0:
        raise FaultPlanError(f"rank and {at} must be >= 0 in {clause!r}")
    return spec


def parse_plan(text: str) -> tuple[FaultSpec, ...]:
    """The clauses of a plan (see the module docstring), in order.

    Raises :class:`FaultPlanError` naming the first bad clause; a plan
    with no clauses (``""``, ``" ; "``) parses to ``()``.
    """
    return tuple(
        _parse_clause(clause.strip())
        for clause in text.split(";")
        if clause.strip()
    )


class FaultInjector:
    """A plan's clauses plus the crashes that fired, shared by every rank.

    The injector survives recovery attempts: a restarted world keeps the
    same injector, whose fired-crash set prevents the planned crash from
    firing again — the in-process analogue of "the failed node was
    replaced".

    Thread-safe: ranks are threads and consult the injector concurrently.
    On the process backend every child works on a forked copy and the
    parent merges its fired set back at join (:meth:`export_state` /
    :meth:`absorb_state`), so this object always holds the whole state.
    """

    def __init__(self, plan: str) -> None:
        self.plan = plan
        self.specs = parse_plan(plan)
        self._lock = threading.Lock()
        #: Indices into ``specs`` of the crashes that fired.
        self._fired: set[int] = set()

    def crash_point(self, rank: int, site: str, index: int) -> None:
        """Raise :class:`InjectedFault` if a crash is planned here.

        Called by the engines at named execution points (e.g. the AKMC
        drivers call it at the top of every cycle / event).  Each crash
        spec fires at most once, ever.
        """
        for i, spec in enumerate(self.specs):
            if (spec.rank, spec.point, spec.n) != (rank, site, index):
                continue
            with self._lock:
                if i in self._fired:
                    continue
                self._fired.add(i)
            obs.add("runtime.faults.crashes")
            raise InjectedFault(
                f"planned crash: rank {rank} at {site}[{index}]"
            )

    def export_state(self) -> set[int]:
        """The fired-crash set — picklable.

        A forked child's injector copy mutates independently of the
        parent's; the child ships this set back at exit, and the parent
        absorbs it so crash one-shot-ness survives a recovery supervisor
        re-forking the world.
        """
        with self._lock:
            return set(self._fired)

    def absorb_state(self, fired: set[int]) -> None:
        """Merge an :meth:`export_state` by union.

        Idempotent, so a child's copy of history it inherited at fork
        is never counted twice.
        """
        with self._lock:
            self._fired |= fired

    def snapshot(self) -> dict:
        """The crashes that fired so far (for reports/results), and the plan."""
        with self._lock:
            return {"crashes": len(self._fired), "plan": self.plan}
