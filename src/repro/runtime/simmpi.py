"""Layer 2 of the communication stack: the communicator and the world.

:class:`World` runs the same ``main(comm)`` function on every rank — the
SPMD model of an MPI program — on one of three backends (rank threads,
forked rank processes, or R logical ranks scheduled on P worker slots).
Every backend hands ``main`` the same :class:`RankComm`, with MPI's
semantics:

* ``send`` is eager and buffered (payloads are defensively copied, so a
  sender may immediately reuse its buffers — MPI's eager protocol for
  small/medium messages).
* ``recv`` blocks until a message on the named ``(source, tag)``
  channel arrives, with FIFO ordering per channel as MPI guarantees.
  Every receive names its channel: there are no wildcards, so which
  message a receive gets never depends on arrival order.
* ``probe`` blocks until a message on the channel is available and
  returns its envelope *without* consuming it — the primitive §2.2.1
  uses to learn message sizes "determined at runtime" before posting
  the receive.
* ``iprobe`` is the non-blocking variant.
* ``barrier`` / ``allgather`` / ``allreduce`` / ``bcast`` and window
  creation all lower to one :meth:`RankComm._exchange`, written once
  over point-to-point envelopes; a window ``fence`` is written once on
  top of it.

The stack has two layers: the transport below
(:mod:`repro.runtime.transport`, two implementations) and the
communicator above it, this module's :class:`RankComm` with its
:class:`~repro.runtime.window.Window`.  The communicator applies the
fault plan's sender-side pause and counts each user send and put once,
where it is sent.

Every blocking wait of a rank is one :meth:`RankComm._wait`: a rank
gives up its worker slot and opens a blocked phase only when its
mailbox has nothing to match.  Every such wait is bounded: a
:class:`World` gives each recv, probe, collective and fence
:data:`DEFAULT_WATCHDOG` seconds unless it was built with another
deadline, so a hang fails in about a minute and names its wait site.

Every run also checks the protocol, with no switch: rank 0 compares the
collective each rank contributes to every exchange and fails the world
at once when they differ, and a world whose ranks all return but leave a
user envelope unreceived fails too.  Both raise :class:`ProtocolError`,
naming every rank's collective or each leaking channel.

All traffic is counted, per sending rank, in
:class:`~repro.runtime.stats.TrafficStats`; the runtime prices none of it.
"""

from __future__ import annotations

import threading
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from repro import observe as obs
from repro.runtime.faults import FaultInjector, InjectedFault
from repro.runtime.stats import TrafficStats, payload_nbytes
from repro.runtime.transport import (
    ANY_SOURCE,
    TAG_GATHER,
    TAG_RESULT,
    TAG_WINDOW_BASE,
    LocalTransport,
    WatchdogTimeout,
    WorldAborted,
    freeze,
)

__all__ = [
    "BACKENDS",
    "ProtocolError",
    "RankComm",
    "Status",
    "WatchdogTimeout",
    "World",
    "WorldAborted",
    "resolve_backend",
    "resolve_watchdog",
    "resolve_workers",
]


#: Seconds any blocking recv/probe/collective/fence of a :class:`World`
#: may wait unless the world was given another ``watchdog``.
DEFAULT_WATCHDOG: float = 60.0


class ProtocolError(RuntimeError):
    """The ranks broke the SPMD protocol: they ran different collectives
    at one exchange, or returned leaving user envelopes unreceived."""


@dataclass(frozen=True)
class Status:
    """Envelope information returned by probe operations."""

    source: int
    tag: int
    nbytes: int


def reduce_values(values: list, op: str):
    """Rank-ordered reduction of an allgathered list."""
    if op == "sum":
        out = values[0]
        for v in values[1:]:
            out = out + v
        return out
    if op == "min":
        out = values[0]
        for v in values[1:]:
            out = np.minimum(out, v) if isinstance(out, np.ndarray) else min(out, v)
        return out
    if op == "max":
        out = values[0]
        for v in values[1:]:
            out = np.maximum(out, v) if isinstance(out, np.ndarray) else max(out, v)
        return out
    raise ValueError(f"unknown reduction op {op!r}")


#: The observe phase a wait is charged to, by ``Mailbox.match`` op.
_PHASES = {
    "recv": "runtime.recv",
    "probe": "runtime.probe",
    "collective": "runtime.collective",
    "fence": "runtime.collective",
}


def _blocked_around(rank: int, scheduler):
    """What a rank's wait on an empty mailbox runs inside, or ``None``.

    Outside, the ``runtime.*`` phase the wait is charged to, when
    observation is on as the rank starts — so time queued for a slot
    counts as blocked time; inside, on the overdecomposed backend, the
    rank's worker slot goes back to the scheduler for the wait.
    """
    if not obs.enabled():
        if scheduler is None:
            return None
        return lambda op: scheduler.waiting(rank)
    if scheduler is None:
        return lambda op: obs.phase(_PHASES[op])

    @contextmanager
    def around(op):
        with obs.phase(_PHASES[op]), scheduler.waiting(rank):
            yield

    return around


class RankComm:
    """The communicator handle passed to each rank's ``main`` function.

    The one communicator class of the runtime, speaking straight to the
    transport: the public MPI-style API validates, freezes and costs its
    arguments, and :meth:`_exchange` and :meth:`_fence` write every
    collective and window epoch once over point-to-point envelopes.  A
    user send or put is counted once, where it is sent, after the fault
    plan's sender-side pause.  The envelopes an exchange or a fence
    moves internally use reserved tags, so they are never frozen per
    receiver, metered, paused or visible to user receives.

    ``watchdog`` bounds each blocking wait, in seconds; ``None`` leaves
    the waits unbounded.  A :class:`World` always passes a deadline.
    What the waits run inside is decided here, once per rank.
    """

    def __init__(
        self,
        rank: int,
        size: int,
        transport: LocalTransport,
        stats: TrafficStats,
        faults: FaultInjector | None = None,
        watchdog: float | None = None,
        scheduler=None,
    ) -> None:
        self.rank = rank
        self.size = size
        #: The world-wide traffic accounting object.
        self.stats = stats
        self._faults = faults
        self._post = transport.post
        self._match = transport.mailbox(rank).match
        self._watchdog = watchdog
        self._around = _blocked_around(rank, scheduler)
        if self._around is None:
            # Nothing wraps a wait: block directly, with no extra look.
            self._wait = self._match
        self._windows = 0

    def _deadline(self) -> float | None:
        wd = self._watchdog
        return None if wd is None else time.monotonic() + wd

    def _wait(self, source, tag, consume=True, deadline=None, op="recv"):
        """The one blocking match of this rank (``Mailbox.match``'s).

        Looks first, and takes an envelope that is already queued
        without leaving its worker slot.  Only on a miss does the rank
        enter ``around(op)`` — give the slot back, open the blocked
        phase — and block; the wait runs outside the mailbox lock,
        which a rank re-acquiring its slot must never hold, because
        depositors need it.
        """
        match = self._match
        hit = match(source, tag, consume, block=False)
        if hit is not None:
            return hit
        with self._around(op):
            return match(source, tag, consume, deadline=deadline, op=op)

    def _deliver(self, op: str, dest: int, tag: int, payload) -> None:
        """Post a user send or put: copy and cost, pause, count once, post.

        A planned delay pauses the sender before the envelope is counted
        or posted, so FIFO order per (source, tag) survives it (an MPI
        send is allowed to block) and no byte moves differently.
        """
        frozen, nbytes = freeze(payload), payload_nbytes(payload)
        if self._faults is not None:
            seconds = self._faults.pause(self.rank, op)
            if seconds:
                time.sleep(seconds)
        self.stats.record_send(self.rank, nbytes)
        self._post((dest,), self.rank, tag, frozen, nbytes)

    # ------------------------------------------------------------------
    # Two-sided messaging
    # ------------------------------------------------------------------
    def send(self, dest: int, tag: int, payload=None) -> None:
        """Eager buffered send; returns immediately.

        When the world carries a fault plan the injector may impose a
        sender-side delay first.
        """
        self._check(dest, "destination", tag)
        self._deliver("send", dest, tag, payload)

    def _check(self, rank: int, role: str, tag: int) -> None:
        """A user channel names a rank of this world and a tag >= 0
        (negative tags are the runtime's)."""
        if not 0 <= rank < self.size:
            raise ValueError(f"{role} rank {rank} out of range")
        if tag < 0:
            raise ValueError(f"tag must be non-negative, got {tag}")

    def fault_point(self, site: str, index: int) -> None:
        """Consult the world's fault plan at a named execution point.

        Engines call this at their natural restart boundaries (e.g. the
        AKMC drivers at the top of every cycle); a planned crash for
        (rank, site, index) raises
        :class:`~repro.runtime.faults.InjectedFault` here.  No-op when
        the world carries no plan.
        """
        if self._faults is not None:
            self._faults.crash_point(self.rank, site, index)

    def recv(self, source: int, tag: int):
        """Blocking receive; returns ``(source, tag, payload)``."""
        self._check(source, "source", tag)
        return self._wait(source, tag, deadline=self._deadline())[:3]

    def probe(self, source: int, tag: int) -> Status:
        """Blocking probe: envelope of the channel's next message."""
        self._check(source, "source", tag)
        src, t, _payload, nbytes = self._wait(
            source, tag, consume=False, deadline=self._deadline(), op="probe"
        )
        return Status(src, t, nbytes)

    def iprobe(self, source: int, tag: int) -> Status | None:
        """Non-blocking probe; ``None`` if the channel has nothing queued."""
        self._check(source, "source", tag)
        hit = self._match(source, tag, consume=False, block=False)
        return None if hit is None else Status(hit[0], hit[1], hit[3])

    # ------------------------------------------------------------------
    # Collectives
    # ------------------------------------------------------------------
    def _exchange(self, kind, value, metered) -> list:
        """Every rank contributes ``value``; all get the list by rank.

        Gather to rank 0, then fan one shared list out to everybody.
        No sequence numbers are needed: a rank can only contribute to
        the next exchange after receiving this one's result, which rank
        0 posts after it has gathered everything — so rank 0 never holds
        two contributions from one source, and results reach each rank
        in FIFO order.

        Each contribution carries its rank's collective ``kind``
        (``("barrier",)``, ``("allreduce", "sum")``, ...); rank 0
        raises :class:`ProtocolError` naming every rank's when they
        differ, which aborts the world instead of pairing, say, one
        rank's ``barrier`` with another's ``allgather``.  Rank 0 counts
        a ``metered`` exchange as one collective of every rank; control
        plane exchanges count as none.
        """
        if metered and self.rank == 0:
            self.stats.record_collective()
        deadline = self._deadline()
        if self.rank:
            self._post((0,), self.rank, TAG_GATHER, (kind, value), 0)
            result = self._wait(0, TAG_RESULT, deadline=deadline, op="collective")
            return list(result[2])
        kinds = [kind] * self.size
        values = [value] * self.size
        for _ in range(self.size - 1):
            src, _tag, contribution, _n = self._wait(
                ANY_SOURCE, TAG_GATHER, deadline=deadline, op="collective"
            )
            kinds[src], values[src] = contribution
        if kinds.count(kind) != self.size:
            raise ProtocolError(
                "collectives diverge: " + ", ".join(
                    f"rank {r} {' '.join(map(str, k))}"
                    for r, k in enumerate(kinds)
                )
            )
        self._post(range(1, self.size), 0, TAG_RESULT, values, 0)
        return list(values)

    def barrier(self) -> None:
        """Synchronize all ranks."""
        self._exchange(("barrier",), None, True)

    def allgather(self, value) -> list:
        """Every rank contributes ``value``; all get the list by rank."""
        return self._exchange(("allgather",), freeze(value), True)

    def allreduce(self, value, op: str = "sum"):
        """Reduce ``value`` across ranks with ``op`` in {sum, min, max}.

        Works on scalars and NumPy arrays (elementwise); the reduction
        runs in rank order on every rank, so all backends agree bitwise.
        """
        values = self._exchange(("allreduce", op), freeze(value), True)
        return reduce_values(values, op)

    def bcast(self, value=None, root: int = 0):
        """Broadcast ``value`` from ``root`` to all ranks."""
        if not 0 <= root < self.size:
            raise ValueError(f"root rank {root} out of range")
        value = value if self.rank == root else None
        values = self._exchange(("bcast", root), freeze(value), True)
        return values[root]

    # ------------------------------------------------------------------
    # One-sided communication
    # ------------------------------------------------------------------
    def win_create(self):
        """Collectively create a one-sided :class:`Window`.

        Windows are numbered in creation order, which is program order
        on every rank; the (unmetered) exchange checks that the ranks
        agree and synchronizes the creation.
        """
        from repro.runtime.window import Window

        win_id = self._windows
        self._windows += 1
        ids = self._exchange(("win_create",), win_id, False)
        if any(i != win_id for i in ids):
            raise RuntimeError("window creation out of sync across ranks")
        return Window(self, TAG_WINDOW_BASE - win_id)

    def _fence(self, win_tag, counts) -> list:
        """Complete a window epoch; ``counts[t]`` puts went to rank ``t``.

        Rank 0 counts the fence as the two zero-byte synchronizations of
        §2.2.1 — one making the epoch's puts visible, one closing it.
        The opening exchange, unmetered control plane, doubles as the
        completion contract: every rank learns how many puts each origin
        addressed to it and takes exactly that many from its mailbox —
        proof against transport latency, FIFO per origin, returned in
        origin-rank order.  The closing exchange keeps a fast rank from
        starting the next epoch while a slow one still drains this one
        (the paper's "global synchronization ... to guarantee the
        completion").
        """
        if self.rank == 0:
            self.stats.record_collective()
            self.stats.record_collective()
        table = self._exchange(("fence",), counts, False)
        deadline = self._deadline()
        drained = []
        for origin, row in enumerate(table):
            for _ in range(row[self.rank]):
                _src, _tag, payload, _nbytes = self._wait(
                    origin, win_tag, deadline=deadline, op="fence"
                )
                drained.append((origin, payload))
        self._exchange(("fence",), None, False)
        return drained

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RankComm(rank={self.rank}, size={self.size})"


BACKENDS = ("thread", "process", "overdecomposed")


def resolve_backend(backend: str | None) -> str:
    """Normalize a backend choice: ``None`` is the thread backend; anything
    else must be exactly a name in :data:`BACKENDS`."""
    if backend is None:
        return "thread"
    if backend not in BACKENDS:
        raise ValueError(
            f"unknown simmpi backend {backend!r}; expected one of {BACKENDS}"
        )
    return backend


def resolve_watchdog(watchdog: float | None) -> float:
    """Normalize a per-wait deadline: explicit seconds > :data:`DEFAULT_WATCHDOG`.

    An explicit deadline must lie in ``(0, threading.TIMEOUT_MAX]``: a
    longer one would overflow the first timed wait it bounds, deep
    inside a running rank, instead of failing here.
    """
    if watchdog is None:
        return DEFAULT_WATCHDOG
    # NaN fails the comparison too.
    if not 0 < watchdog <= threading.TIMEOUT_MAX:
        raise ValueError(
            f"watchdog must be in (0, {threading.TIMEOUT_MAX:g}] seconds, "
            f"got {watchdog}"
        )
    return watchdog


def resolve_workers(workers: int | None) -> int | None:
    """Normalize a worker count: an ``int`` >= 1, or ``None`` for the
    backend default (the rank count for the process backend, the host's
    core count for the overdecomposed one).  A ``bool`` or a float is
    not a count."""
    if workers is None:
        return None
    if isinstance(workers, bool) or not isinstance(workers, int):
        raise ValueError(f"workers must be a positive integer, got {workers!r}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    return workers


def conclude(
    nranks: int, timeout: float, grace: float,
    stragglers: list[str] | None, what: str, fate: str,
    errors: list[tuple[int, BaseException]], leftover: Counter,
) -> None:
    """The one join epilogue of every backend.

    ``stragglers`` is ``None`` for a run that finished in time, else the
    names of the rank hosts (``what``: threads or processes) that
    outlived the abort grace period and their ``fate``.  A world that
    finished re-raises its first error with the documented precedence: a
    :class:`KeyboardInterrupt` from any rank propagates as itself — an
    interrupt is the user's request to stop, not a rank failure — then
    the typed failures callers dispatch on (the recovery supervisor
    retries an ``InjectedFault``; a ``WatchdogTimeout`` names its wait
    site; a ``ProtocolError`` names every rank's collective), then
    ``RuntimeError('rank N failed')``.  A world whose ranks all returned
    raises :class:`ProtocolError` if ``leftover`` — the user envelopes
    never received, counted by ``(source, dest, tag)`` — is not empty.
    """
    if stragglers is not None:
        detail = "; all ranks exited after the abort"
        if stragglers:
            detail = (
                f"; {len(stragglers)} rank {what} still alive after a "
                f"{grace:g}s abort grace period ({fate}): "
                + ", ".join(stragglers)
            )
        raise TimeoutError(
            f"world of {nranks} ranks timed out after {timeout:g}s" + detail
        )
    if not errors:
        if leftover:
            raise ProtocolError(
                "unreceived messages: " + ", ".join(
                    f"rank {src} -> rank {dest} tag {tag} x{n}"
                    for (src, dest, tag), n in sorted(leftover.items())
                )
            )
        return
    for _rank, exc in errors:
        if isinstance(exc, KeyboardInterrupt):
            raise exc
    rank, exc = errors[0]
    if isinstance(exc, (InjectedFault, WatchdogTimeout, ProtocolError)):
        # Their messages already name the rank and the site: the crash
        # point, the wait's operation, source and tag, or each rank's
        # collective.
        raise exc
    raise RuntimeError(f"rank {rank} failed: {exc!r}") from exc


class World:
    """A fixed-size group of SPMD ranks executed on threads or processes.

    A ``World`` holds configuration and what accumulates over its runs
    (``stats``, the shared fault injector); everything a single run
    needs — transport, abort flag, error list, scheduler — is created
    inside :meth:`run`, so a world can be run again after a failure.

    Parameters
    ----------
    nranks:
        Number of ranks.
    faults:
        Optional :class:`~repro.runtime.faults.FaultInjector` that
        sends, one-sided puts, and engine fault points consult; pass the
        same injector to every world of a recovered run.  ``None`` (the
        default) pauses nothing.  A planned crash aborts the world
        and raises :class:`~repro.runtime.faults.InjectedFault` out of
        :meth:`run` on every backend.
    watchdog:
        Deadline in seconds for each blocking recv/probe/collective/
        fence; when exceeded the waiting rank raises
        :class:`WatchdogTimeout`, naming its wait site, and the world
        aborts.  ``None`` (the default) means :data:`DEFAULT_WATCHDOG`,
        read when the world is built; no wait of a world is unbounded.
        :func:`resolve_watchdog` rejects a value outside
        ``(0, threading.TIMEOUT_MAX]``.
        ``run``'s ``timeout`` is the net for a rank that never reaches a
        wait.
    backend:
        Execution backend: ``"thread"`` (ranks as threads),
        ``"process"`` (one forked OS process per rank — or per rank
        *group* with ``workers`` — via :mod:`repro.runtime.procbackend`,
        for real multi-core parallelism), or ``"overdecomposed"`` (R
        logical ranks cooperatively scheduled on P worker slots via
        :mod:`repro.runtime.scheduler`, for decompositions far beyond
        the host's core count).  ``None`` (the default) is ``"thread"``;
        :func:`resolve_backend` rejects anything not exactly in
        :data:`BACKENDS`.
    workers:
        Physical parallelism P under the logical decomposition.  For
        ``"overdecomposed"`` this is the number of concurrently running
        rank slots (default: the host's core count); for ``"process"``
        it is the number of forked children, each hosting a contiguous
        group of R/P ranks with in-process routing inside the group
        (default: one child per rank).  ``None`` is that backend
        default; :func:`resolve_workers` rejects anything but an ``int``
        >= 1.  Results are bit-identical for every P.  A world runs
        where these two arguments say: the runtime reads no environment.
    """

    def __init__(
        self,
        nranks: int,
        faults: FaultInjector | None = None,
        watchdog: float | None = None,
        backend: str | None = None,
        workers: int | None = None,
    ) -> None:
        if nranks < 1:
            raise ValueError(f"nranks must be >= 1, got {nranks}")
        self.nranks = nranks
        self.backend = resolve_backend(backend)
        self.workers = resolve_workers(workers)
        self.stats = TrafficStats(nranks)
        self.faults = faults
        self.watchdog = resolve_watchdog(watchdog)

    def run(
        self,
        main: Callable[[RankComm], Any],
        timeout: float = 300.0,
        grace: float = 5.0,
    ) -> list:
        """Execute ``main(comm)`` on every rank; return per-rank results.

        If any rank raises, the world is aborted (blocked ranks unblock
        with :class:`WorldAborted`) and the first error is re-raised
        with the precedence of :func:`conclude`; a wait that outlives the
        world's ``watchdog`` is such an error, and so is a collective
        whose kind differs between ranks.  A run whose ranks all return
        but leave a user message unreceived raises :class:`ProtocolError`
        naming each such channel.  ``timeout`` bounds the
        whole run, for a rank that never reaches a wait: once it passes,
        ranks get ``grace`` seconds to exit after the abort; any that
        are still alive are named in the :class:`TimeoutError` (threads
        are leaked, processes terminated).
        """
        return self._launch(main, timeout, grace)

    def _launch(self, main, timeout, grace) -> list:
        """Run the ranks and join them, by one sequence on every backend:
        rank threads and forked children are hosted alike."""
        from repro.runtime.scheduler import RankScheduler, RankThreads, default_workers

        scheduler = None
        if self.backend == "overdecomposed":
            slots = self.workers if self.workers is not None else default_workers()
            scheduler = RankScheduler(min(slots, self.nranks))
        if self.backend == "process":
            from repro.runtime.procbackend import ProcessRanks

            ranks = ProcessRanks(
                main, self.nranks, self.stats, self.faults, self.watchdog,
                self.workers,
            )
            what, fate = "process(es)", "terminated"
        else:
            ranks = RankThreads(
                main, LocalTransport(range(self.nranks)), self.nranks,
                self.stats, self.faults, self.watchdog, scheduler,
            )
            what, fate = "thread(s)", "leaked"
        ranks.start(range(self.nranks))
        stragglers = None
        if not ranks.wait(timeout):
            ranks.abort()
            stragglers = [] if ranks.wait(grace) else ranks.alive()
        if scheduler is not None:
            scheduler.publish()
        conclude(
            self.nranks, timeout, grace, stragglers, what, fate, ranks.errors,
            ranks.leftover(),
        )
        return [ranks.results.get(rank) for rank in range(self.nranks)]
