"""Rank threads and the elastic scheduler: R logical ranks on P workers.

:class:`RankThreads` is the one rank-thread host of the runtime: the
thread and overdecomposed backends run every rank of the world through
it, and each forked child of the process backend runs its hosted rank
group through it.  The thread backend is simply the overdecomposed one
with no scheduler.

The paper's headline figures live in the thousands-of-ranks regime, far
beyond any host's core count.  ``backend="overdecomposed"`` decouples the
*logical* decomposition from the *physical* parallelism the way the
production codes on Sunway do: one rank program per logical rank, but
only ``workers=P`` of them may execute at any instant
(:class:`RankScheduler`).  Scheduling is cooperative and happens exactly
at the communication waits that find nothing to match:

* a rank whose ``recv``/``probe``/collective/fence finds its envelope
  already queued takes it and keeps computing on its slot;
* a rank whose mailbox has nothing to match *yields* its worker slot
  back to the scheduler before parking on the mailbox (the
  communicator's one wait point,
  :meth:`~repro.runtime.simmpi.RankComm._wait`);
* an idle worker slot is *stolen* by the longest-waiting runnable rank
  (FIFO run queue — a released slot is handed directly to the queue
  head, never bounced through a free pool, so admission is O(1) and
  starvation-free);
* when the wait completes, the rank re-enters the run queue and resumes
  once a slot frees up.

A rank holds a slot only while it computes or takes an envelope that is
already queued, so R > P cannot deadlock: a rank parked in a collective
holds no slot, so the remaining parties always get to run.  And because
scheduling only reorders *timing* — every receive names its
(source, tag) and collectives return rank-ordered lists — R
ranks on P workers produce physics bit-identical to R ranks on R
threads, the same argument (and the same tests) that
make the thread and process backends interchangeable.
"""

from __future__ import annotations

import os
import threading
import time
from collections import deque
from contextlib import contextmanager
from typing import Any, Callable, Iterable

from repro import observe as obs
from repro.runtime.simmpi import RankComm
from repro.runtime.transport import LocalTransport, WorldAborted


class RankScheduler:
    """FIFO run-queue admission of R logical ranks to P worker slots.

    A rank *holds* a slot while computing and *yields* it across every
    communication wait that finds its mailbox empty.  Released slots are
    handed directly to the head of the run queue (each queued rank parks
    on its own event, so a hand-off wakes exactly one thread).
    :meth:`release_all` opens the gate permanently — the world-abort
    path, after which admission and release become no-ops and every rank
    runs free to observe the abort flag and exit.
    """

    def __init__(self, workers: int) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self._lock = threading.Lock()
        self._active = 0
        #: FIFO of (rank, event) waiting for a slot.
        self._queue: deque[tuple[int, threading.Event]] = deque()
        self._drain = False
        #: Times a rank gave up its slot at a communication wait that
        #: found nothing queued (schedule-dependent when P > 1).
        self.yields = 0
        #: Times a freed slot was handed to a queued (stolen by an idle
        #: worker, in the deque-of-runnable-ranks picture) rank.
        self.steals = 0
        self.peak_queued = 0

    def acquire(self, rank: int) -> None:
        """Block until a worker slot is available (FIFO order)."""
        with self._lock:
            if self._drain:
                return
            if self._active < self.workers and not self._queue:
                self._active += 1
                return
            gate = threading.Event()
            self._queue.append((rank, gate))
            self.peak_queued = max(self.peak_queued, len(self._queue))
        gate.wait()

    def release(self, rank: int) -> None:
        """Give the slot back; hand it straight to the queue head."""
        with self._lock:
            if self._drain:
                return
            if self._queue:
                _next_rank, gate = self._queue.popleft()
                self.steals += 1
                gate.set()  # slot ownership transfers; _active unchanged
            else:
                self._active -= 1

    @contextmanager
    def waiting(self, rank: int):
        """Wrap a blocking wait: yield the slot, re-acquire afterwards."""
        with self._lock:
            self.yields += 1
        self.release(rank)
        try:
            yield
        finally:
            self.acquire(rank)

    def release_all(self) -> None:
        """Abort path: open the gate; all queued and future ranks run."""
        with self._lock:
            self._drain = True
            queued = list(self._queue)
            self._queue.clear()
        for _rank, gate in queued:
            gate.set()

    def publish(self) -> None:
        """Add this run's totals to the observe registry."""
        obs.add("runtime.scheduler.yields", self.yields)
        obs.add("runtime.scheduler.steals", self.steals)


def default_workers() -> int:
    """P when none was given: every core the OS grants us."""
    try:
        return len(os.sched_getaffinity(0)) or 1
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


class RankThreads:
    """The rank threads hosted in this process, for one run.

    Each rank runs ``main(comm)`` with its own
    :class:`~repro.runtime.simmpi.RankComm` on its own daemon thread,
    holding a scheduler slot while it computes when there is a
    scheduler.  A rank that raises aborts the world and its error is
    kept for the join epilogue; ranks unblocked by that abort exit
    quietly.  What the mailboxes still hold once every rank has returned
    (:meth:`leftover`) is the epilogue's unreceived-message check.
    """

    def __init__(
        self, main: Callable, transport: LocalTransport, size: int, stats,
        faults=None, watchdog: float | None = None,
        scheduler: RankScheduler | None = None,
    ) -> None:
        self._main = main
        self._transport = transport
        self._scheduler = scheduler
        #: What every rank's communicator is built from, besides its rank.
        self._comm_options = dict(
            size=size, transport=transport, stats=stats, faults=faults,
            watchdog=watchdog, scheduler=scheduler,
        )
        self._lock = threading.Lock()
        self._threads: list[threading.Thread] = []
        self.results: dict[int, Any] = {}
        self.errors: list[tuple[int, BaseException]] = []

    def start(self, ranks: Iterable[int]) -> None:
        for rank in ranks:
            thread = threading.Thread(
                target=self._run_rank, args=(rank,),
                name=f"simmpi-rank-{rank}", daemon=True,
            )
            self._threads.append(thread)
            thread.start()

    def _run_rank(self, rank: int) -> None:
        scheduler = self._scheduler
        if scheduler is not None:
            scheduler.acquire(rank)
        try:
            comm = RankComm(rank, **self._comm_options)
            self.results[rank] = self._main(comm)
        except WorldAborted:
            pass
        except BaseException as exc:  # noqa: BLE001 - rank-thread boundary: _fail records any failure for the join to re-raise
            self._fail(rank, exc)
        finally:
            if scheduler is not None:
                scheduler.release(rank)

    def _fail(self, rank: int, exc: BaseException) -> None:
        with self._lock:
            self.errors.append((rank, exc))
        self.abort()

    def abort(self) -> None:
        """Abort the world.  The scheduler gate opens first, so ranks
        queued for a worker slot run free to observe the abort flag."""
        if self._scheduler is not None:
            self._scheduler.release_all()
        self._transport.abort()

    def wait(self, timeout: float | None) -> bool:
        """Join every rank thread; ``False`` if ``timeout`` seconds pass
        first."""
        deadline = None if timeout is None else time.monotonic() + timeout
        for thread in self._threads:
            thread.join(
                None if deadline is None
                else max(0.0, deadline - time.monotonic())
            )
            if thread.is_alive():
                return False
        return True

    def alive(self) -> list[str]:
        """Names of the rank threads still running."""
        return [t.name for t in self._threads if t.is_alive()]

    def leftover(self):
        """User envelopes of this run never received, by channel."""
        return self._transport.leftover()
