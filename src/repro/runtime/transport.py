"""Layer 1 of the communication stack: the transport.

A transport moves *envelopes* — ``(source, tag, payload, nbytes)`` —
into per-rank :class:`Mailbox` objects and knows how to abort the world:
``post``, ``mailbox``, ``abort``, ``leftover`` and the ``aborted`` flag
are the whole interface, and it has exactly two implementations:

* :class:`LocalTransport` (here) — every rank lives in this process, so
  a post is a deposit into the destination's mailbox;
* :class:`~repro.runtime.procbackend.ForkedTransport` — ranks live in
  forked children; a post to a co-hosted rank is still a direct deposit,
  anything else crosses a ``multiprocessing.Queue``, which pickles the
  whole payload, and a pump thread deposits it on arrival.

Everything above — matching semantics, collectives, window fences,
fault injection, accounting — is written once against this surface, by
the communicator (:mod:`repro.runtime.simmpi`).

Reserved tags
-------------
User tags are non-negative; negative tags belong to the runtime:
collective contributions and results and one-sided window puts travel
through the *same* mailboxes under them.  The communicator rejects a
negative tag in every user call, and :meth:`Mailbox.leftover` does not
list them, so user code cannot observe the control plane.
"""

from __future__ import annotations

import threading
import time
from collections import Counter
from typing import Any, Iterable

import numpy as np

from repro import observe as obs

#: Any source: only rank 0's gather in ``RankComm._exchange`` matches
#: with it, on ``TAG_GATHER``, and it stores each contribution by source,
#: so arrival order cannot matter.  No user call can name it.
ANY_SOURCE: int = -1
#: Collective contribution, every rank -> rank 0.
TAG_GATHER: int = -2
#: Collective result, rank 0 -> every rank.
TAG_RESULT: int = -3
#: Puts into window ``w`` travel under ``TAG_WINDOW_BASE - w``.
TAG_WINDOW_BASE: int = -4


def freeze(obj):
    """Defensive copy of a payload (MPI buffered-send semantics)."""
    if isinstance(obj, np.ndarray):
        return obj.copy()
    if isinstance(obj, tuple):
        return tuple(freeze(x) for x in obj)
    if isinstance(obj, list):
        return [freeze(x) for x in obj]
    if isinstance(obj, dict):
        return {k: freeze(v) for k, v in obj.items()}
    return obj


class WorldAborted(RuntimeError):
    """Raised in surviving ranks when another rank failed."""


class WatchdogTimeout(TimeoutError):
    """A blocking recv/probe/collective/fence exceeded the world's watchdog.

    Every wait of a world has a deadline — its ``watchdog``, by default
    :data:`~repro.runtime.simmpi.DEFAULT_WATCHDOG` — so a hang raises
    this instead of blocking until the run's timeout.  The message names
    the waiting rank, the operation, and the source and tag it waited on.
    """


def _wait_site(rank: int, op: str, source: int, tag: int) -> str:
    """``rank R <op> (source S, tag T)``, reserved values by name."""
    src = "any" if source == ANY_SOURCE else source
    if tag <= TAG_WINDOW_BASE:
        tag = f"window {TAG_WINDOW_BASE - tag}"
    else:
        tag = {TAG_GATHER: "gather", TAG_RESULT: "result"}.get(tag, tag)
    return f"rank {rank} {op} (source {src}, tag {tag})"


class Mailbox:
    """FIFO envelope store of one rank with condition-variable waiting.

    Matching follows MPI: the first queued envelope whose source and tag
    fit wins, which gives FIFO order per (source, tag) pair.
    """

    def __init__(self, aborted: threading.Event, rank: int) -> None:
        self._cond = threading.Condition()
        self._queue: list[tuple[int, int, Any, int]] = []
        self._aborted = aborted
        self._rank = rank

    def deposit(self, src: int, tag: int, payload, nbytes: int) -> None:
        """Enqueue an envelope and wake the waiters."""
        with self._cond:
            self._queue.append((src, tag, payload, nbytes))
            self._cond.notify_all()

    def _find(self, source: int, tag: int) -> int | None:
        for idx, (src, t, _payload, _n) in enumerate(self._queue):
            if t == tag and source in (ANY_SOURCE, src):
                return idx
        return None

    def match(
        self,
        source: int,
        tag: int,
        consume: bool = True,
        block: bool = True,
        deadline: float | None = None,
        op: str = "recv",
    ):
        """The first matching envelope, removed from the queue if ``consume``.

        Non-blocking calls return ``None`` on a miss.  Blocking calls
        wait on the mailbox condition without a polling timeout: a
        matching :meth:`deposit` or a world abort (:meth:`wake`)
        delivers the wakeup directly, so a blocked receive adds no
        scheduling-interval floor to the latency.  A queued match is
        returned even after an abort; only an empty-handed waiter raises
        :class:`WorldAborted`.  ``deadline`` is a ``time.monotonic()``
        instant — every wait of a world has one, from its watchdog — and
        the wait raises :class:`WatchdogTimeout` once it passes; ``None``
        waits without one.
        """
        with self._cond:
            while True:
                idx = self._find(source, tag)
                if idx is not None:
                    return self._queue.pop(idx) if consume else self._queue[idx]
                if not block:
                    return None
                if self._aborted.is_set():
                    raise WorldAborted(f"world aborted while waiting in {op}")
                if deadline is None:
                    self._cond.wait()
                elif not self._cond.wait(deadline - time.monotonic()):
                    obs.add("runtime.watchdog.expired")
                    site = _wait_site(self._rank, op, source, tag)
                    raise WatchdogTimeout(
                        f"watchdog: {site} did not complete before the deadline"
                    )

    def wake(self) -> None:
        """Wake every blocked waiter (abort path; they re-check the flag)."""
        with self._cond:
            self._cond.notify_all()

    def leftover(self) -> list[tuple[int, int]]:
        """``(source, tag)`` of each user envelope deposited but not received."""
        with self._cond:
            return [(env[0], env[1]) for env in self._queue if env[1] >= 0]


class LocalTransport:
    """The in-process transport, and the interface of both.

    Hosts the mailboxes of ``ranks`` — all of the world for the thread
    and overdecomposed backends.  :class:`~repro.runtime.procbackend.
    ForkedTransport` extends it with the leg to ranks in other processes.
    """

    def __init__(self, ranks: Iterable[int]) -> None:
        #: Set once the world is aborting; blocked waiters re-check it.
        self.aborted = threading.Event()
        self._mailboxes = {rank: Mailbox(self.aborted, rank) for rank in ranks}

    def post(
        self, dests: Iterable[int], src: int, tag: int, payload, nbytes: int
    ) -> None:
        """Deliver one envelope to every rank in ``dests``.

        The payload is shared, not copied per receiver: callers post
        values that are already frozen (or immutable control data).
        """
        for dest in dests:
            self._mailboxes[dest].deposit(src, tag, payload, nbytes)

    def mailbox(self, rank: int) -> Mailbox:
        """The mailbox of a rank hosted in this process."""
        return self._mailboxes[rank]

    def abort(self) -> None:
        """Abort the world: every blocked waiter wakes with WorldAborted.

        The flag is raised *before* the mailbox conditions are notified,
        and waiters re-check it while holding their condition lock — so
        no blocked rank can miss the wakeup.
        """
        self.aborted.set()
        for mailbox in self._mailboxes.values():
            mailbox.wake()

    def leftover(self) -> Counter:
        """User envelopes delivered to this process but never received,
        counted by ``(source, dest, tag)`` channel."""
        return Counter(
            (src, dest, tag)
            for dest, mailbox in self._mailboxes.items()
            for src, tag in mailbox.leftover()
        )
