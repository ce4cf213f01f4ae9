"""Deterministic fault injection for the simmpi runtime.

The paper's production runs are 8.6-hour jobs on 6.6 million cores; at
that scale rank failures, straggling messages, and duplicated one-sided
traffic are the norm, not the exception.  This module lets a run *plan*
those faults ahead of time so the recovery machinery can be exercised
deterministically:

* a :class:`FaultPlan` is a parsed, immutable list of :class:`FaultSpec`
  actions (rank crash at a named execution point, delayed or duplicated
  sends, stalled one-sided window puts) plus a seed for the optional
  probabilistic "shake" mode;
* a :class:`FaultInjector` is the per-run mutable state the runtime
  consults: it counts each rank's sends and puts, decides which operation
  a spec fires on, and guarantees a crash fires **once** — so a
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
    delay:rank=1,nth=5,seconds=0.05      # rank 1's 5th send stalls 50 ms
    dup:rank=0,nth=3              # rank 0's 3rd send is delivered twice
    dup:rank=0,nth=1,op=put       # ... or its 1st one-sided put
    stall:rank=1,nth=2,seconds=0.02      # rank 1's 2nd window put stalls
    shake:seed=7,dup=0.05,delay=0.01,seconds=0.001
                                  # seeded random dup/delay on every send

Delays and stalls are *sender-side* pauses, so MPI's per-(source, tag)
FIFO ordering is preserved; duplicates are deduplicated at delivery by
message id (at-least-once transport, exactly-once delivery), so user
code never observes them except through the counters.  None of the fault
kinds can change the final state of a deterministic program — crashes
are survived by recovery, everything else only perturbs timing.
"""

from __future__ import annotations

import threading
from dataclasses import asdict, dataclass

import numpy as np

from repro import observe as obs

#: Execution-point names used by the built-in engines.
SITE_KMC_CYCLE = "kmc.cycle"
SITE_KMC_EVENT = "kmc.event"

_KINDS = ("crash", "delay", "dup", "stall", "shake")
#: The sender-side pause of each operation stream: (spec kind, counter).
_PAUSES = {"send": ("delay", "delays"), "put": ("stall", "stalls")}


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
        ``crash`` | ``delay`` | ``dup`` | ``stall`` | ``shake``.
    rank:
        Target rank (``-1`` = every rank; only meaningful for ``shake``).
    site / index:
        Crash trigger: the named execution point and its ordinal (e.g.
        ``("kmc.cycle", 3)``).
    nth:
        Delay/dup/stall trigger: fire on the rank's nth send or put
        (1-based, counted from world construction).
    seconds:
        Pause duration for ``delay``/``stall``/``shake``.
    op:
        Which operation stream ``dup`` counts: ``"send"`` (default) or
        ``"put"`` (one-sided window traffic).
    p_dup / p_delay:
        ``shake`` probabilities per send, drawn from the plan's seeded
        per-rank streams.
    """

    kind: str
    rank: int = -1
    site: str | None = None
    index: int | None = None
    nth: int | None = None
    seconds: float = 0.0
    op: str = "send"
    p_dup: float = 0.0
    p_delay: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise FaultPlanError(f"unknown fault kind {self.kind!r}")
        if self.kind == "crash":
            if self.rank < 0 or self.site is None or self.index is None:
                raise FaultPlanError(
                    "crash needs rank plus cycle=/event=/site=+index="
                )
        elif self.kind in ("delay", "dup", "stall"):
            if self.rank < 0 or self.nth is None or self.nth < 1:
                raise FaultPlanError(f"{self.kind} needs rank= and nth>=1")
            if self.kind != "dup" and self.seconds <= 0:
                raise FaultPlanError(f"{self.kind} needs seconds>0")
            if self.op not in ("send", "put"):
                raise FaultPlanError(f"op must be send or put, got {self.op!r}")
        elif self.kind == "shake":
            if not (0 <= self.p_dup <= 1 and 0 <= self.p_delay <= 1):
                raise FaultPlanError("shake probabilities must be in [0, 1]")

    def describe(self) -> str:
        if self.kind == "crash":
            return f"crash rank {self.rank} at {self.site}[{self.index}]"
        if self.kind == "shake":
            return (
                f"shake all ranks (p_dup={self.p_dup}, "
                f"p_delay={self.p_delay}, {self.seconds}s)"
            )
        what = {"delay": "delay send", "dup": f"duplicate {self.op}",
                "stall": "stall put"}[self.kind]
        tail = f" by {self.seconds}s" if self.seconds else ""
        return f"{what} #{self.nth} of rank {self.rank}{tail}"


_CLAUSE_KEYS = {
    "crash": {"rank", "cycle", "event", "site", "index"},
    "delay": {"rank", "nth", "seconds"},
    "dup": {"rank", "nth", "op"},
    "stall": {"rank", "nth", "seconds"},
    "shake": {"seed", "dup", "delay", "seconds"},
}


def _parse_clause(clause: str) -> tuple[FaultSpec, int | None]:
    """One clause's spec, and the plan seed if the clause sets one."""
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
        # Only ``shake`` accepts the key (``_CLAUSE_KEYS``).
        seed = int(kw["seed"]) if "seed" in kw else None
        if kind == "crash":
            site, index = kw.get("site"), kw.get("index")
            if "cycle" in kw:
                site, index = SITE_KMC_CYCLE, kw["cycle"]
            elif "event" in kw:
                site, index = SITE_KMC_EVENT, kw["event"]
            spec = FaultSpec(
                kind="crash",
                rank=int(kw["rank"]),
                site=site,
                index=None if index is None else int(index),
            )
        elif kind == "shake":
            spec = FaultSpec(
                kind="shake",
                p_dup=float(kw.get("dup", 0.0)),
                p_delay=float(kw.get("delay", 0.0)),
                seconds=float(kw.get("seconds", 0.001)),
            )
        else:
            spec = FaultSpec(
                kind=kind,
                rank=int(kw["rank"]),
                nth=int(kw["nth"]),
                seconds=float(kw.get("seconds", 0.0)),
                op=kw.get("op", "send"),
            )
        return spec, seed
    except KeyError as exc:
        raise FaultPlanError(f"{clause!r} is missing {exc.args[0]}=") from exc
    except ValueError as exc:
        if isinstance(exc, FaultPlanError):
            raise
        raise FaultPlanError(f"bad value in {clause!r}: {exc}") from exc


@dataclass(frozen=True)
class FaultPlan:
    """An immutable, seeded schedule of faults for one run."""

    specs: tuple[FaultSpec, ...] = ()
    seed: int = 0

    @classmethod
    def parse(cls, text, seed: int = 0) -> "FaultPlan":
        """Parse the semicolon-separated plan DSL (see module docstring).

        Idempotent: an already-parsed :class:`FaultPlan` passes through.
        """
        if isinstance(text, FaultPlan):
            return text
        if text is None or not text.strip():
            return cls(specs=(), seed=seed)
        specs = []
        for clause in text.split(";"):
            clause = clause.strip()
            if clause:
                spec, clause_seed = _parse_clause(clause)
                if clause_seed is not None:
                    seed = clause_seed
                specs.append(spec)
        return cls(specs=tuple(specs), seed=seed)

    def describe(self) -> str:
        if not self.specs:
            return "no faults planned"
        return "; ".join(s.describe() for s in self.specs)

    def __bool__(self) -> bool:
        return bool(self.specs)


@dataclass
class FaultAction:
    """What the injector asks the fault layer to do to one send or put.

    ``pause_s`` is the sender-side delay (send) or stall (put);
    ``msg_id`` is set exactly when the delivery is to be duplicated.
    """

    pause_s: float = 0.0
    duplicate: bool = False
    msg_id: tuple | None = None


@dataclass
class _Counters:
    crashes: int = 0
    delays: int = 0
    duplicates: int = 0
    stalls: int = 0
    dropped: int = 0

    @property
    def injected(self) -> int:
        return self.crashes + self.delays + self.duplicates + self.stalls


class FaultInjector:
    """Per-run mutable fault state shared by every rank of a world.

    The injector survives recovery attempts: a restarted world keeps the
    same injector, whose fired-crash set prevents the planned crash from
    firing again — the in-process analogue of "the failed node was
    replaced".  Send/put ordinals also keep counting across attempts, so
    nth-operation faults are one-shot too.

    Thread-safe: ranks are threads and consult the injector concurrently.
    On the process backend every child works on a forked copy and the
    parent merges it back at join (:meth:`export_state` /
    :meth:`absorb_state`), so this object always holds the whole state.
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self._lock = threading.Lock()
        self._fired: set[int] = set()
        #: Per-rank count of sends and puts so far (nth-operation specs).
        self._ordinals: dict[str, dict[int, int]] = {"send": {}, "put": {}}
        self._shake_rng: dict[int, np.random.Generator] = {}
        self._next_msg_id = 0
        #: Namespace for allocated message ids.  The thread backend keeps
        #: the default 0 (one shared injector); the process backend sets
        #: it to ``rank + 1`` in each forked child, so ids allocated by
        #: independent per-process injector copies never collide at the
        #: delivery-side dedup.
        self.msg_id_tag = 0
        self.counters = _Counters()

    # ------------------------------------------------------------------
    def _rank_shake_rng(self, rank: int) -> np.random.Generator:
        rng = self._shake_rng.get(rank)
        if rng is None:
            rng = np.random.default_rng(
                np.random.SeedSequence(entropy=self.plan.seed,
                                       spawn_key=(0xFA, rank))
            )
            self._shake_rng[rank] = rng
        return rng

    # ------------------------------------------------------------------
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

    def on_send(self, rank: int, dest: int, tag: int) -> FaultAction | None:
        """Consulted by every ``send``; returns the action to apply (or None)."""
        return self._consult(rank, "send")

    def on_put(self, rank: int, target: int) -> FaultAction | None:
        """Consulted by every one-sided ``put``; like :meth:`on_send`."""
        return self._consult(rank, "put")

    def _consult(self, rank: int, op: str) -> FaultAction | None:
        """Count ``rank``'s next ``op`` and collect what the plan does to it.

        Sends can be delayed, puts stalled (the same sender-side pause
        under the name each transport uses), either duplicated by an
        nth-operation spec; ``shake`` perturbs sends only.
        """
        pause_kind, pause_counter = _PAUSES[op]
        ordinals = self._ordinals[op]
        action: FaultAction | None = None
        with self._lock:
            n = ordinals[rank] = ordinals.get(rank, 0) + 1
            for i, spec in enumerate(self.plan.specs):
                if spec.kind == "shake":
                    if op == "send":
                        rng = self._rank_shake_rng(rank)
                        if spec.p_dup and rng.random() < spec.p_dup:
                            action = self._duplicated(action)
                        if spec.p_delay and rng.random() < spec.p_delay:
                            action = self._paused(action, spec, pause_counter)
                elif spec.rank != rank or spec.nth != n or i in self._fired:
                    continue
                elif spec.kind == pause_kind:
                    self._fired.add(i)
                    action = self._paused(action, spec, pause_counter)
                elif spec.kind == "dup" and spec.op == op:
                    self._fired.add(i)
                    action = self._duplicated(action)
        if action is not None:
            obs.add("runtime.faults.injected")
            if action.pause_s:
                obs.add(f"runtime.faults.{pause_counter}")
            if action.duplicate:
                obs.add("runtime.faults.duplicates")
        return action

    def _paused(self, action, spec: FaultSpec, counter: str) -> FaultAction:
        action = action or FaultAction()
        action.pause_s = max(action.pause_s, spec.seconds)
        setattr(self.counters, counter, getattr(self.counters, counter) + 1)
        return action

    def _duplicated(self, action) -> FaultAction:
        action = action or FaultAction()
        if not action.duplicate:
            action.duplicate = True
            self._next_msg_id += 1
            action.msg_id = ("fault-dup", self.msg_id_tag, self._next_msg_id)
            self.counters.duplicates += 1
        return action

    def record_dropped_duplicate(self) -> None:
        """Called by the delivery layers when an id-dedup drops a message."""
        with self._lock:
            self.counters.dropped += 1

    # ------------------------------------------------------------------
    # Cross-process state transfer (the simmpi process backend)
    # ------------------------------------------------------------------
    def export_state(self, ranks=None) -> dict:
        """Fired specs, operation ordinals, shake streams, counters — picklable.

        A forked child's injector copy mutates independently of the
        parent's; the child ships this dict back at exit so the parent
        injector stays the single owner of the state: crash
        one-shot-ness, nth-operation ordinals and the per-rank shake
        streams all survive a recovery supervisor re-forking the world.
        ``ranks`` names the ranks the exporting child hosted: only their
        shake streams are shipped, because its forked copies of the
        other ranks' streams are stale.
        """
        with self._lock:
            return {
                "fired": sorted(self._fired),
                "ordinals": {
                    op: dict(counts) for op, counts in self._ordinals.items()
                },
                "shake": {
                    rank: rng.bit_generator.state
                    for rank, rng in self._shake_rng.items()
                    if ranks is None or rank in ranks
                },
                "counters": asdict(self.counters),
            }

    def absorb_state(self, state: dict, base: dict | None = None) -> None:
        """Merge a child injector's :meth:`export_state` into this one.

        ``base`` is the child's export at fork time (i.e. this
        injector's state when the world started): counters are absorbed
        as deltas against it so inherited history is not double-counted.
        Send/put ordinals and shake streams are per-rank and each rank
        runs in exactly one child, so the child's absolute value
        replaces the parent's.
        """
        for rank, rng_state in state["shake"].items():
            self._rank_shake_rng(rank).bit_generator.state = rng_state
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
            counts = asdict(self.counters)
            counts["duplicates_dropped"] = counts.pop("dropped")
            return {
                "injected": self.counters.injected,
                **counts,
                "plan": self.plan.describe(),
            }


def resolve_plan(faults) -> FaultPlan | None:
    """Normalize a ``--faults`` value: str | FaultPlan | None -> FaultPlan."""
    if faults is None:
        return None
    if isinstance(faults, FaultPlan):
        return faults if faults else None
    if isinstance(faults, str):
        plan = FaultPlan.parse(faults)
        return plan if plan else None
    raise TypeError(f"cannot interpret fault plan of type {type(faults)!r}")
