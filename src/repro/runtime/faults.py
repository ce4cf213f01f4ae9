"""Deterministic fault injection for the simmpi runtime.

The paper's production runs are 8.6-hour jobs on 6.6 million cores; at
that scale a rank crash is worth planning for.  This module lets a run
*plan* its faults ahead of time so the recovery machinery is exercised
deterministically:

* a plan is one string in the DSL below, and :func:`parse_plan` is the
  one parser and validator of it: every clause becomes a
  :class:`FaultSpec`, a rank crash at an engine fault point or a pause
  of one of a rank's sends or one-sided puts;
* a :class:`FaultInjector` is a plan's clauses plus what fired: the
  crash clauses that raised and each rank's send/put ordinals.  It
  decides which operation a delay fires on, guarantees a crash fires
  **once** — so a supervisor that restarts from a checkpoint converges
  instead of crashing forever — and derives its report from that state;
* :class:`InjectedFault` is what a crashed rank raises; the world then
  aborts exactly as it would for an organic failure.

Every injected action bumps ``runtime.faults.injected`` (and a per-kind
counter) in :mod:`repro.observe`, so a profiled run shows the fault load
next to the phase tree.

Plan syntax (semicolon-separated clauses, ``kind:key=value,...``)::

    crash:rank=1,cycle=3          # raise on rank 1 at parallel KMC cycle 3
    crash:rank=0,event=120        # raise on rank 0 at serial event 120
    delay:rank=1,nth=5,seconds=0.05      # rank 1's 5th send pauses 50 ms
    delay:rank=1,nth=2,seconds=0.02,op=put   # ... or its 2nd window put

A crash takes ``rank`` and exactly one of ``cycle``/``event`` (>= 0); a
delay takes ``rank``, ``nth`` (>= 1), a finite ``seconds`` > 0 and
optionally ``op``.  A key given twice, or one the kind does not take, is
an error naming the clause.

A delay is a *sender-side* pause, so MPI's per-(source, tag) FIFO
ordering is preserved and no byte moves differently.  Neither kind can
change the final state of a deterministic program: crashes are survived
by recovery, and a delay only perturbs timing.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

from repro import observe as obs

#: Per kind, the key sets a clause may give.
_KEYS = {
    "crash": (("rank", "cycle"), ("rank", "event")),
    "delay": (("rank", "nth", "seconds"), ("rank", "nth", "seconds", "op")),
}


class InjectedFault(RuntimeError):
    """Raised inside a rank when its planned crash point is reached."""


class FaultPlanError(ValueError):
    """A fault-plan string could not be parsed."""


@dataclass(frozen=True)
class FaultSpec:
    """One clause of a plan: on ``rank``, the ``n``-th ``point`` faults.

    For a crash, ``point`` is an engine fault point (``kmc.cycle`` or
    ``kmc.event``, numbered from 0 as the engine numbers them); for a
    delay it is an operation stream (``send`` or ``put``, counted from
    1), and that operation pauses ``seconds``.  ``clause`` is the text
    the spec was parsed from.
    """

    clause: str
    kind: str
    rank: int
    point: str
    n: int
    seconds: float = 0.0


def _parse_clause(clause: str) -> FaultSpec:
    kind, _, body = (part.strip() for part in clause.partition(":"))
    if kind not in _KEYS:
        raise FaultPlanError(
            f"unknown fault kind {kind!r} in {clause!r}; "
            f"expected one of {list(_KEYS)}"
        )
    kw: dict[str, str] = {}
    for item in body.split(",") if body else ():
        key, eq, value = (part.strip() for part in item.partition("="))
        if not eq or key in kw:
            problem = "repeated" if eq else "malformed"
            raise FaultPlanError(f"{problem} key {key!r} in {clause!r}")
        kw[key] = value
    if not any(set(kw) == set(keys) for keys in _KEYS[kind]):
        expected = " or ".join(",".join(keys) for keys in _KEYS[kind])
        raise FaultPlanError(
            f"{kind} takes keys {expected}, got {sorted(kw)} in {clause!r}"
        )
    try:
        if kind == "crash":
            at = "cycle" if "cycle" in kw else "event"
            spec = FaultSpec(
                clause, kind, int(kw["rank"]), f"kmc.{at}", int(kw[at])
            )
        else:
            spec = FaultSpec(
                clause, kind, int(kw["rank"]), kw.get("op", "send"),
                int(kw["nth"]), float(kw["seconds"]),
            )
    except ValueError as exc:
        raise FaultPlanError(f"bad value in {clause!r}: {exc}") from exc
    if spec.rank < 0 or spec.n < (1 if kind == "delay" else 0):
        raise FaultPlanError(
            f"rank and cycle/event must be >= 0, nth >= 1, in {clause!r}"
        )
    if kind == "delay" and spec.point not in ("send", "put"):
        raise FaultPlanError(f"op must be send or put in {clause!r}")
    # NaN fails the comparison; beyond TIMEOUT_MAX time.sleep overflows.
    if kind == "delay" and not 0 < spec.seconds <= threading.TIMEOUT_MAX:
        raise FaultPlanError(f"seconds must be finite and > 0 in {clause!r}")
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
    """A plan's clauses plus what fired, shared by every rank of a world.

    The injector survives recovery attempts: a restarted world keeps the
    same injector, whose fired-crash set prevents the planned crash from
    firing again — the in-process analogue of "the failed node was
    replaced".  Send/put ordinals also keep counting across attempts, so
    a delay is one-shot too.

    Thread-safe: ranks are threads and consult the injector concurrently.
    On the process backend every child works on a forked copy and the
    parent merges it back at join (:meth:`export_state` /
    :meth:`absorb_state`), so this object always holds the whole state.
    """

    def __init__(self, plan: str) -> None:
        self.plan = plan
        self.specs = parse_plan(plan)
        self._lock = threading.Lock()
        #: Indices into ``specs`` of the crashes that fired.
        self._fired: set[int] = set()
        #: Per operation, per rank: how many sends/puts so far.
        self._ordinals: dict[str, dict[int, int]] = {"send": {}, "put": {}}

    def crash_point(self, rank: int, site: str, index: int) -> None:
        """Raise :class:`InjectedFault` if a crash is planned here.

        Called by the engines at named execution points (e.g. the AKMC
        drivers call it at the top of every cycle / event).  Each crash
        spec fires at most once, ever.
        """
        for i, spec in enumerate(self.specs):
            if (spec.kind, spec.rank, spec.point, spec.n) != (
                "crash", rank, site, index
            ):
                continue
            with self._lock:
                if i in self._fired:
                    continue
                self._fired.add(i)
            obs.add("runtime.faults.injected")
            obs.add("runtime.faults.crashes")
            raise InjectedFault(
                f"planned crash: rank {rank} at {site}[{index}]"
            )

    def pause(self, rank: int, op: str) -> float:
        """Count ``rank``'s next ``op``; seconds a planned delay holds it.

        Consulted by every send and one-sided put; ``0.0`` when no
        delay fires on this operation.  Ordinals only grow, so each
        delay fires at most once.
        """
        with self._lock:
            ordinals = self._ordinals[op]
            n = ordinals[rank] = ordinals.get(rank, 0) + 1
        seconds = max(
            (
                spec.seconds for spec in self.specs
                if (spec.kind, spec.rank, spec.point, spec.n)
                == ("delay", rank, op, n)
            ),
            default=0.0,
        )
        if seconds:
            obs.add("runtime.faults.injected")
            obs.add("runtime.faults.delays")
        return seconds

    def export_state(self) -> dict:
        """Fired crashes and operation ordinals — picklable.

        A forked child's injector copy mutates independently of the
        parent's; the child ships this dict back at exit, and the parent
        absorbs it so crash one-shot-ness and the send/put ordinals
        survive a recovery supervisor re-forking the world.
        """
        with self._lock:
            return {
                "fired": set(self._fired),
                "ordinals": {op: dict(n) for op, n in self._ordinals.items()},
            }

    def absorb_state(self, state: dict) -> None:
        """Merge an :meth:`export_state`: union of fired, max of ordinals.

        Idempotent, so a child's copy of history it inherited at fork
        is never counted twice.
        """
        with self._lock:
            self._fired |= state["fired"]
            for op, counts in state["ordinals"].items():
                mine = self._ordinals[op]
                for rank, n in counts.items():
                    mine[rank] = max(n, mine.get(rank, 0))

    def snapshot(self) -> dict:
        """What was injected so far (for reports/results), and the plan."""
        with self._lock:
            crashes = len(self._fired)
            delays = sum(
                spec.kind == "delay"
                and self._ordinals[spec.point].get(spec.rank, 0) >= spec.n
                for spec in self.specs
            )
        return {
            "injected": crashes + delays,
            "crashes": crashes,
            "delays": delays,
            "plan": self.plan,
        }
