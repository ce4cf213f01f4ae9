"""Layer 2 of the communication stack: the communicator and the world.

:class:`World` runs the same ``main(comm)`` function on every rank — the
SPMD model of an MPI program — on one of three backends (rank threads,
forked rank processes, or R logical ranks scheduled on P worker slots).
Every backend hands ``main`` the same :class:`RankComm`, with MPI's
semantics:

* ``send`` is eager and buffered (payloads are defensively copied, so a
  sender may immediately reuse its buffers — MPI's eager protocol for
  small/medium messages).
* ``recv`` blocks until a matching message arrives; ``ANY_SOURCE`` /
  ``ANY_TAG`` wildcards are supported, with FIFO ordering per
  (source, tag) pair as MPI guarantees.
* ``probe`` blocks until a matching message is available and returns its
  envelope *without* consuming it — the primitive §2.2.1 uses to learn
  message sizes "determined at runtime" before posting the receive.
* ``iprobe`` is the non-blocking variant.
* ``barrier`` / ``allgather`` / ``allreduce`` / ``bcast`` and window
  creation all lower to one :meth:`Endpoint.exchange`, written once over
  point-to-point envelopes; a window ``fence`` is written once on top of
  it.

The stack has three layers: the transport below
(:mod:`repro.runtime.transport`, two implementations), this module's
:class:`Endpoint` / :class:`RankComm` / :class:`~repro.runtime.window.
Window` in the middle, and the ordered middleware of
:mod:`repro.runtime.layers` between the two halves of this one.

Every blocking wait of a rank is one :meth:`Endpoint._wait`: a rank
gives up its worker slot and opens a blocked phase only when its
mailbox has nothing to match.

All traffic is counted, per rank, in
:class:`~repro.runtime.stats.TrafficStats`; the runtime prices none of it.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from repro import observe as obs
from repro.runtime.faults import FaultInjector, InjectedFault
from repro.runtime.layers import Layer, compose
from repro.runtime.stats import TrafficStats, payload_nbytes
from repro.runtime.transport import (
    ANY_SOURCE,
    ANY_TAG,
    TAG_GATHER,
    TAG_RESULT,
    TAG_WINDOW_BASE,
    LocalTransport,
    WatchdogTimeout,
    WorldAborted,
    freeze,
)

__all__ = [
    "ANY_SOURCE",
    "ANY_TAG",
    "BACKENDS",
    "RankComm",
    "Status",
    "WatchdogTimeout",
    "World",
    "WorldAborted",
    "resolve_backend",
    "resolve_workers",
]


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


class Endpoint:
    """One rank's unlayered attachment to the transport.

    Implements the seven primitives of :mod:`repro.runtime.layers`
    directly over ``post`` and the rank's mailbox.  The envelopes an
    ``exchange`` or a ``fence`` moves internally use reserved tags and
    bypass the middleware, so they are never frozen per receiver,
    metered, fault-injected or visible to user receives.
    """

    def __init__(
        self, transport: LocalTransport, rank: int, size: int,
        watchdog: float | None, around,
    ) -> None:
        self.rank = rank
        self.size = size
        self._post = transport.post
        self._match = transport.mailbox(rank).match
        self._watchdog = watchdog
        self._around = around
        if around is None:
            # Nothing wraps a wait: block directly, with no extra look.
            self._wait = self._match

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

    def send(self, dest, tag, payload, nbytes) -> None:
        self._post((dest,), self.rank, tag, payload, nbytes)

    def recv(self, source, tag):
        return self._wait(source, tag, deadline=self._deadline())

    def probe(self, source, tag) -> Status:
        src, t, _payload, nbytes = self._wait(
            source, tag, consume=False, deadline=self._deadline(), op="probe"
        )
        return Status(src, t, nbytes)

    def iprobe(self, source, tag) -> Status | None:
        hit = self._match(source, tag, consume=False, block=False)
        return None if hit is None else Status(hit[0], hit[1], hit[3])

    def exchange(self, kind, value, metered) -> list:
        """Every rank contributes ``value``; all get the list by rank.

        Gather to rank 0, then fan one shared list out to everybody.
        No sequence numbers are needed: a rank can only contribute to
        the next exchange after receiving this one's result, which rank
        0 posts after it has gathered everything — so rank 0 never holds
        two contributions from one source, and results reach each rank
        in FIFO order.
        """
        deadline = self._deadline()
        if self.rank:
            self._post((0,), self.rank, TAG_GATHER, value, 0)
            result = self._wait(0, TAG_RESULT, deadline=deadline, op="collective")
            return list(result[2])
        values = [value] * self.size
        for _ in range(self.size - 1):
            src, _tag, contribution, _n = self._wait(
                ANY_SOURCE, TAG_GATHER, deadline=deadline, op="collective"
            )
            values[src] = contribution
        self._post(range(1, self.size), 0, TAG_RESULT, values, 0)
        return list(values)

    def put(self, win_tag, target, payload, nbytes) -> None:
        self._post((target,), self.rank, win_tag, payload, nbytes)

    def fence(self, win_tag, counts) -> list:
        """Complete a window epoch; ``counts[t]`` puts went to rank ``t``.

        The opening exchange doubles as the completion contract: every
        rank learns how many puts each origin addressed to it and takes
        exactly that many from its mailbox — proof against transport
        latency, FIFO per origin, returned in origin-rank order.  The
        closing exchange keeps a fast rank from starting the next epoch
        while a slow one still drains this one (the paper's "global
        synchronization ... to guarantee the completion").
        """
        table = self.exchange(None, counts, False)
        deadline = self._deadline()
        drained = []
        for origin, row in enumerate(table):
            for _ in range(row[self.rank]):
                _src, _tag, payload, nbytes = self._wait(
                    origin, win_tag, deadline=deadline, op="fence"
                )
                drained.append((origin, payload, nbytes))
        self.exchange(None, None, False)
        return drained


class RankComm:
    """The communicator handle passed to each rank's ``main`` function.

    The one communicator class of the runtime: the public MPI-style API
    validates, freezes and costs its arguments, then speaks the seven
    primitives to the middleware chain composed over this rank's
    :class:`Endpoint`.  What the endpoint's waits run inside is decided
    here, once per rank.
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
        sanitize: bool = False,
    ) -> None:
        self.rank = rank
        self.size = size
        #: The world-wide traffic accounting object.
        self.stats = stats
        self._faults = faults
        self._chain = chain = compose(
            Endpoint(
                transport, rank, size, watchdog,
                _blocked_around(rank, scheduler),
            ),
            rank=rank, size=size, stats=stats,
            mailbox=transport.mailbox(rank), faults=faults,
            sanitize=sanitize,
        )
        #: The sanitizer layer (always outermost), if this run has one.
        self.sanitizer = chain if sanitize else None
        self._windows = 0

    @property
    def layers(self) -> tuple[str, ...]:
        """Names of the active middleware layers, outermost first."""
        names, layer = [], self._chain
        while isinstance(layer, Layer):
            names.append(layer.name)
            layer = layer.inner
        return tuple(names)

    # ------------------------------------------------------------------
    # Two-sided messaging
    # ------------------------------------------------------------------
    def send(self, dest: int, tag: int, payload=None) -> None:
        """Eager buffered send; returns immediately.

        When the world carries a fault plan the injector may impose a
        sender-side delay (see :class:`~repro.runtime.layers.FaultLayer`).
        """
        if not 0 <= dest < self.size:
            raise ValueError(f"destination rank {dest} out of range")
        if tag < 0:
            raise ValueError(f"tag must be non-negative, got {tag}")
        self._chain.send(dest, tag, freeze(payload), payload_nbytes(payload))

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

    def recv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG):
        """Blocking receive; returns ``(source, tag, payload)``."""
        return self._chain.recv(source, tag)[:3]

    def probe(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Status:
        """Blocking probe: envelope of the next matching message."""
        return self._chain.probe(source, tag)

    def iprobe(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Status | None:
        """Non-blocking probe; ``None`` if no matching message is queued."""
        return self._chain.iprobe(source, tag)

    # ------------------------------------------------------------------
    # Collectives
    # ------------------------------------------------------------------
    def barrier(self) -> None:
        """Synchronize all ranks."""
        self._chain.exchange(("barrier",), None, True)

    def allgather(self, value) -> list:
        """Every rank contributes ``value``; all get the list by rank."""
        return self._chain.exchange(("allgather",), freeze(value), True)

    def allreduce(self, value, op: str = "sum"):
        """Reduce ``value`` across ranks with ``op`` in {sum, min, max}.

        Works on scalars and NumPy arrays (elementwise); the reduction
        runs in rank order on every rank, so all backends agree bitwise.
        """
        values = self._chain.exchange(("allreduce", op), freeze(value), True)
        return reduce_values(values, op)

    def bcast(self, value=None, root: int = 0):
        """Broadcast ``value`` from ``root`` to all ranks."""
        if not 0 <= root < self.size:
            raise ValueError(f"root rank {root} out of range")
        value = value if self.rank == root else None
        values = self._chain.exchange(("bcast", root), freeze(value), True)
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
        ids = self._chain.exchange(("win_create",), win_id, False)
        if any(i != win_id for i in ids):
            raise RuntimeError("window creation out of sync across ranks")
        return Window(self, self._chain, TAG_WINDOW_BASE - win_id)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RankComm(rank={self.rank}, size={self.size})"


BACKENDS = ("thread", "process", "overdecomposed")


def resolve_backend(backend: str | None) -> str:
    """Normalize a backend choice: explicit > ``REPRO_BACKEND`` > thread.

    A ``REPRO_BACKEND`` that is unset, empty, or whitespace-only falls
    back to ``"thread"``; anything else must name a known backend.
    """
    if backend is None:
        env = os.environ.get("REPRO_BACKEND")
        backend = (env.strip() if env is not None else "") or "thread"
    backend = str(backend).strip().lower()
    if backend not in BACKENDS:
        raise ValueError(
            f"unknown simmpi backend {backend!r}; expected one of {BACKENDS}"
        )
    return backend


def resolve_workers(workers: int | str | None) -> int | None:
    """Normalize a worker count: explicit > ``REPRO_WORKERS`` > ``None``.

    ``None`` (with no usable env value) means "backend default": the
    rank count for the process backend, the host's core count for the
    overdecomposed backend.  Mirrors :func:`resolve_backend` — an unset,
    empty, or whitespace-only ``REPRO_WORKERS`` counts as absent.
    """
    if workers is None:
        env = os.environ.get("REPRO_WORKERS", "").strip()
        if not env:
            return None
        workers = env
    try:
        count = int(workers)
    except (TypeError, ValueError):
        raise ValueError(
            f"workers must be a positive integer, got {workers!r}"
        ) from None
    if count < 1:
        raise ValueError(f"workers must be >= 1, got {count}")
    return count


def sanitize_enabled(override: bool | None = None) -> bool:
    """Whether sanitized execution is requested: explicit > ``REPRO_SANITIZE``.

    Lives here, not in :mod:`repro.runtime.sanitize`, so that an
    unsanitized run never loads the sanitizer to learn that it is off.
    """
    if override is not None:
        return bool(override)
    env = os.environ.get("REPRO_SANITIZE", "").strip().lower()
    return env in ("1", "true", "yes", "on")


def conclude(
    nranks: int, timeout: float, grace: float,
    stragglers: list[str] | None, what: str, fate: str,
    errors: list[tuple[int, BaseException]],
) -> None:
    """The one join epilogue of every backend.

    ``stragglers`` is ``None`` for a run that finished in time, else the
    names of the rank hosts (``what``: threads or processes) that
    outlived the abort grace period and their ``fate``.  A world that
    finished re-raises its first error with the documented precedence: a
    :class:`KeyboardInterrupt` from any rank propagates as itself — an
    interrupt is the user's request to stop, not a rank failure — then
    the typed failures the recovery supervisor dispatches on, then
    ``RuntimeError('rank N failed')``.
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
        return
    for _rank, exc in errors:
        if isinstance(exc, KeyboardInterrupt):
            raise exc
    rank, exc = errors[0]
    if isinstance(exc, (InjectedFault, WatchdogTimeout)):
        # Their messages already carry the rank and location.
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
        default) composes no fault layer and keeps every hot path
        exactly as before.  A planned crash aborts the world
        and raises :class:`~repro.runtime.faults.InjectedFault` out of
        :meth:`run` on every backend.
    watchdog:
        Optional deadline in seconds for each blocking recv/probe/
        collective/fence; when exceeded the waiting rank raises
        :class:`WatchdogTimeout` and the world aborts.  ``None`` (the
        default) disables the deadline entirely — blocked waits stay
        timer-free.
    backend:
        Execution backend: ``"thread"`` (ranks as threads),
        ``"process"`` (one forked OS process per rank — or per rank
        *group* with ``workers`` — via :mod:`repro.runtime.procbackend`,
        for real multi-core parallelism), or ``"overdecomposed"`` (R
        logical ranks cooperatively scheduled on P worker slots via
        :mod:`repro.runtime.scheduler`, for decompositions far beyond
        the host's core count).  ``None`` (the default) defers to the
        ``REPRO_BACKEND`` environment variable, falling back to
        ``"thread"``.
    workers:
        Physical parallelism P under the logical decomposition.  For
        ``"overdecomposed"`` this is the number of concurrently running
        rank slots (default: the host's core count); for ``"process"``
        it is the number of forked children, each hosting a contiguous
        group of R/P ranks with in-process routing inside the group
        (default: one child per rank).  ``None`` defers to the
        ``REPRO_WORKERS`` environment variable, falling back to the
        backend default.  Results are bit-identical for every P.
    sanitize:
        ``True``/``False`` force the communication sanitizer
        (:mod:`repro.runtime.sanitize`) on/off for this world; ``None``
        defers to ``REPRO_SANITIZE``.
    """

    def __init__(
        self,
        nranks: int,
        faults: FaultInjector | None = None,
        watchdog: float | None = None,
        backend: str | None = None,
        workers: int | None = None,
        sanitize: bool | None = None,
    ) -> None:
        if nranks < 1:
            raise ValueError(f"nranks must be >= 1, got {nranks}")
        if watchdog is not None and watchdog <= 0:
            raise ValueError(f"watchdog must be positive, got {watchdog}")
        self.nranks = nranks
        self.backend = resolve_backend(backend)
        self.workers = resolve_workers(workers)
        self.stats = TrafficStats(nranks)
        self.faults = faults
        self.watchdog = watchdog
        self.sanitize = sanitize
        self._pending = 0

    def run(
        self,
        main: Callable[[RankComm], Any],
        timeout: float = 300.0,
        grace: float = 5.0,
    ) -> list:
        """Execute ``main(comm)`` on every rank; return per-rank results.

        If any rank raises, the world is aborted (blocked ranks unblock
        with :class:`WorldAborted`) and the first error is re-raised
        with the precedence of :func:`conclude`.  On timeout, ranks get
        ``grace`` seconds to exit after the abort; any that are still
        alive are named in the :class:`TimeoutError` (threads are
        leaked, processes terminated).
        """
        sanitizing = sanitize_enabled(self.sanitize)
        results = self._launch(main, timeout, grace, sanitizing)
        if not sanitizing:
            return results
        from repro.runtime.sanitize import finish_world

        return finish_world(results)

    def _launch(self, main, timeout, grace, sanitizing) -> list:
        """Run the ranks and join them, by one sequence on every backend:
        rank threads and forked children are hosted alike.  Sanitized
        results stay sealed."""
        if sanitizing:
            from repro.runtime.sanitize import wrap_main

            main = wrap_main(main)
        from repro.runtime.scheduler import RankScheduler, RankThreads, default_workers

        scheduler = None
        if self.backend == "overdecomposed":
            slots = self.workers if self.workers is not None else default_workers()
            scheduler = RankScheduler(min(slots, self.nranks))
        if self.backend == "process":
            from repro.runtime.procbackend import ProcessRanks

            ranks = ProcessRanks(
                main, self.nranks, self.stats, self.faults, self.watchdog,
                sanitizing, self.workers,
            )
            what, fate = "process(es)", "terminated"
        else:
            ranks = RankThreads(
                main, LocalTransport(range(self.nranks)), self.nranks,
                self.stats, self.faults, self.watchdog, sanitizing, scheduler,
            )
            what, fate = "thread(s)", "leaked"
        ranks.start(range(self.nranks))
        stragglers = None
        if not ranks.wait(timeout):
            ranks.abort()
            stragglers = [] if ranks.wait(grace) else ranks.alive()
        self._pending = ranks.pending()
        if scheduler is not None:
            scheduler.publish()
        conclude(
            self.nranks, timeout, grace, stragglers, what, fate, ranks.errors
        )
        return [ranks.results.get(rank) for rank in range(self.nranks)]

    def pending_messages(self) -> int:
        """Messages sent but never received in the last run (should be 0)."""
        return self._pending
