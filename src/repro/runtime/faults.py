"""Deterministic fault injection for the simmpi runtime.

The paper's production runs are 8.6-hour jobs on 6.6 million cores; at
that scale a rank crash is worth planning for.  This module lets a run
*plan* its faults ahead of time so the recovery machinery is exercised
deterministically:

* a :class:`FaultPlan` is a parsed, immutable list of :class:`FaultSpec`
  actions: a rank crash at a named execution point, or a pause of one
  of a rank's sends or one-sided puts;
* a :class:`FaultInjector` is the per-run mutable state the runtime
  consults: it counts each rank's sends and puts, decides which operation
  a delay fires on, and guarantees a crash fires **once** — so a
  supervisor that restarts from a checkpoint converges instead of
  crashing forever;
* :class:`InjectedFault` is what a crashed rank raises; the world then
  aborts exactly as it would for an organic failure.

Every injected action bumps ``runtime.faults.injected`` (and a per-kind
counter) in :mod:`repro.observe`, so a profiled run shows the fault load
next to the phase tree.

Plan syntax (semicolon-separated clauses, ``kind:key=value,...``)::

    crash:rank=1,cycle=3          # raise on rank 1 at KMC cycle 3
    crash:rank=0,event=120        # raise on rank 0 at serial event 120
    crash:rank=2,site=md.step,index=10   # any named fault point
    delay:rank=1,nth=5,seconds=0.05      # rank 1's 5th send pauses 50 ms
    delay:rank=1,nth=2,seconds=0.02,op=put   # ... or its 2nd window put

A delay is a *sender-side* pause, so MPI's per-(source, tag) FIFO
ordering is preserved and no byte moves differently.  Neither kind can
change the final state of a deterministic program: crashes are survived
by recovery, and a delay only perturbs timing.
"""

from __future__ import annotations

import threading
from dataclasses import asdict, dataclass

from repro import observe as obs

#: Execution-point names used by the built-in engines.
SITE_KMC_CYCLE = "kmc.cycle"
SITE_KMC_EVENT = "kmc.event"

_KINDS = ("crash", "delay")
#: The operation streams a delay counts.
_OPS = ("send", "put")


class InjectedFault(RuntimeError):
    """Raised inside a rank when its planned crash point is reached."""


class FaultPlanError(ValueError):
    """A fault-plan string could not be parsed."""


@dataclass(frozen=True)
class FaultSpec:
    """One planned fault action.

    Attributes
    ----------
    kind:
        ``crash`` | ``delay``.
    rank:
        Target rank.
    site / index:
        Crash trigger: the named execution point and its ordinal (e.g.
        ``("kmc.cycle", 3)``).
    nth:
        Delay trigger: fire on the rank's nth send or put (1-based,
        counted from the injector's creation).
    seconds:
        Pause duration of a ``delay``.
    op:
        Which operation stream a ``delay`` counts: ``"send"`` (default)
        or ``"put"`` (one-sided window traffic).
    """

    kind: str
    rank: int
    site: str | None = None
    index: int | None = None
    nth: int | None = None
    seconds: float = 0.0
    op: str = "send"

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise FaultPlanError(f"unknown fault kind {self.kind!r}")
        if self.kind == "crash":
            if self.rank < 0 or self.site is None or self.index is None:
                raise FaultPlanError(
                    "crash needs rank plus cycle=/event=/site=+index="
                )
            return
        if self.rank < 0 or self.nth is None or self.nth < 1:
            raise FaultPlanError("delay needs rank= and nth>=1")
        if self.seconds <= 0:
            raise FaultPlanError("delay needs seconds>0")
        if self.op not in _OPS:
            raise FaultPlanError(f"op must be send or put, got {self.op!r}")

    def describe(self) -> str:
        if self.kind == "crash":
            return f"crash rank {self.rank} at {self.site}[{self.index}]"
        return (
            f"delay {self.op} #{self.nth} of rank {self.rank} "
            f"by {self.seconds}s"
        )


_CLAUSE_KEYS = {
    "crash": {"rank", "cycle", "event", "site", "index"},
    "delay": {"rank", "nth", "seconds", "op"},
}


def _parse_clause(clause: str) -> FaultSpec:
    kind, _, body = clause.partition(":")
    kind = kind.strip()
    if kind not in _KINDS:
        raise FaultPlanError(
            f"unknown fault kind {kind!r} in {clause!r}; "
            f"expected one of {list(_KINDS)}"
        )
    kw: dict[str, str] = {}
    if body.strip():
        for item in body.split(","):
            key, eq, value = item.partition("=")
            if not eq:
                raise FaultPlanError(f"malformed {key!r} in {clause!r}")
            key = key.strip()
            if key not in _CLAUSE_KEYS[kind]:
                raise FaultPlanError(
                    f"unknown key {key!r} for {kind!r} in {clause!r}; "
                    f"expected one of {sorted(_CLAUSE_KEYS[kind])}"
                )
            kw[key] = value.strip()
    try:
        if kind == "crash":
            site, index = kw.get("site"), kw.get("index")
            if "cycle" in kw:
                site, index = SITE_KMC_CYCLE, kw["cycle"]
            elif "event" in kw:
                site, index = SITE_KMC_EVENT, kw["event"]
            return FaultSpec(
                kind="crash",
                rank=int(kw["rank"]),
                site=site,
                index=None if index is None else int(index),
            )
        return FaultSpec(
            kind="delay",
            rank=int(kw["rank"]),
            nth=int(kw["nth"]),
            seconds=float(kw.get("seconds", 0.0)),
            op=kw.get("op", "send"),
        )
    except KeyError as exc:
        raise FaultPlanError(f"{clause!r} is missing {exc.args[0]}=") from exc
    except FaultPlanError as exc:
        raise FaultPlanError(f"{exc} in {clause!r}") from None
    except ValueError as exc:
        raise FaultPlanError(f"bad value in {clause!r}: {exc}") from exc


@dataclass(frozen=True)
class FaultPlan:
    """An immutable schedule of faults for one run."""

    specs: tuple[FaultSpec, ...] = ()

    @classmethod
    def parse(cls, text) -> "FaultPlan":
        """Parse the semicolon-separated plan DSL (see module docstring).

        Idempotent: an already-parsed :class:`FaultPlan` passes through.
        """
        if isinstance(text, FaultPlan):
            return text
        if text is None:
            return cls()
        return cls(tuple(
            _parse_clause(clause.strip())
            for clause in text.split(";")
            if clause.strip()
        ))

    def describe(self) -> str:
        if not self.specs:
            return "no faults planned"
        return "; ".join(s.describe() for s in self.specs)

    def __bool__(self) -> bool:
        return bool(self.specs)


@dataclass
class _Counters:
    crashes: int = 0
    delays: int = 0

    @property
    def injected(self) -> int:
        return self.crashes + self.delays


class FaultInjector:
    """Per-run mutable fault state shared by every rank of a world.

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

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self._lock = threading.Lock()
        self._fired: set[int] = set()
        #: Per-rank count of sends and puts so far (delay triggers).
        self._ordinals: dict[str, dict[int, int]] = {op: {} for op in _OPS}
        self.counters = _Counters()

    def crash_point(self, rank: int, site: str, index: int) -> None:
        """Raise :class:`InjectedFault` if a crash is planned here.

        Called by the engines at named execution points (e.g. the AKMC
        drivers call it at the top of every cycle / event).  Each crash
        spec fires at most once, ever.
        """
        for i, spec in enumerate(self.plan.specs):
            if spec.kind != "crash" or spec.rank != rank:
                continue
            if spec.site != site or spec.index != index:
                continue
            with self._lock:
                if i in self._fired:
                    continue
                self._fired.add(i)
                self.counters.crashes += 1
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
        seconds = 0.0
        with self._lock:
            ordinals = self._ordinals[op]
            n = ordinals[rank] = ordinals.get(rank, 0) + 1
            for spec in self.plan.specs:
                if (spec.kind, spec.op, spec.rank, spec.nth) == (
                    "delay", op, rank, n
                ):
                    self.counters.delays += 1
                    seconds = max(seconds, spec.seconds)
        if seconds:
            obs.add("runtime.faults.injected")
            obs.add("runtime.faults.delays")
        return seconds

    # ------------------------------------------------------------------
    # Cross-process state transfer (the simmpi process backend)
    # ------------------------------------------------------------------
    def export_state(self) -> dict:
        """Fired crashes, operation ordinals and counters — picklable.

        A forked child's injector copy mutates independently of the
        parent's; the child ships this dict back at exit so the parent
        injector stays the single owner of the state: crash
        one-shot-ness and the send/put ordinals survive a recovery
        supervisor re-forking the world.
        """
        with self._lock:
            return {
                "fired": sorted(self._fired),
                "ordinals": {
                    op: dict(counts) for op, counts in self._ordinals.items()
                },
                "counters": asdict(self.counters),
            }

    def absorb_state(self, state: dict, base: dict | None = None) -> None:
        """Merge a child injector's :meth:`export_state` into this one.

        ``base`` is the child's export at fork time (i.e. this
        injector's state when the world started): counters are absorbed
        as deltas against it so inherited history is not double-counted.
        Send/put ordinals are per-rank and each rank runs in exactly one
        child, so the child's value replaces the parent's.
        """
        with self._lock:
            self._fired.update(int(i) for i in state["fired"])
            for op, counts in state["ordinals"].items():
                mine = self._ordinals[op]
                for rank, n in counts.items():
                    mine[rank] = max(n, mine.get(rank, 0))
            base_counters = (base or {}).get("counters", {})
            c = self.counters
            for key, value in state["counters"].items():
                delta = value - base_counters.get(key, 0)
                if delta > 0:
                    setattr(c, key, getattr(c, key) + delta)

    def snapshot(self) -> dict:
        """Counters of everything injected so far (for reports/results)."""
        with self._lock:
            return {
                "injected": self.counters.injected,
                **asdict(self.counters),
                "plan": self.plan.describe(),
            }


def resolve_plan(faults) -> FaultPlan | None:
    """Normalize a ``--faults`` value: str | FaultPlan | None -> FaultPlan.

    An empty plan is no plan: it resolves to ``None``.
    """
    if faults is None:
        return None
    if isinstance(faults, (FaultPlan, str)):
        plan = FaultPlan.parse(faults)
        return plan if plan else None
    raise TypeError(f"cannot interpret fault plan of type {type(faults)!r}")
