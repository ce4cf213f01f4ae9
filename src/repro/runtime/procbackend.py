"""True multi-process execution backend for the simmpi runtime.

The thread backend runs every rank as a Python *thread*: correct, fast to
spawn, but serialized by the GIL wherever the force and rate kernels run
Python-level code — a strong-scaling experiment on the thread backend
measures scheduling, not speedup.  This module provides
``backend="process"``: each rank (or contiguous rank *group*) becomes a
forked OS process, so MD force work and KMC rate kernels genuinely run
in parallel on multi-core hosts.  Ranks get the very same
:class:`~repro.runtime.simmpi.RankComm`, pausing and counting at the
send as on every backend; only the transport underneath differs.

Transport
---------
:class:`ForkedTransport` is the second of the two transport
implementations (see :mod:`repro.runtime.transport`).  Every child owns
one ``multiprocessing.Queue`` inbox and one daemon *pump thread* that
drains it into the :class:`~repro.runtime.transport.Mailbox` of the
addressed hosted rank, so matching, per-(source, tag) FIFO, watchdog
deadlines and abort wakeups are literally the same code as in-process.
A post to a rank hosted in the same child skips the queue altogether;
one posted to several ranks of another child (a collective result)
crosses the process boundary once.  The queue pickles every payload,
which is the one byte path between children: ``freeze`` has already
made each array the C-contiguous copy the thread backend hands over,
and ``payload_nbytes`` has already costed it, so trajectories and the
traffic ledger do not depend on the backend.  Collectives and window
puts need nothing of their own: they are reserved-tag envelopes through
the same inboxes.

Launch and join
---------------
:class:`ProcessRanks` hosts the children the way
:class:`~repro.runtime.scheduler.RankThreads` hosts rank threads, with
the same ``start`` / ``wait`` / ``abort`` / ``alive`` protocol, so
:class:`~repro.runtime.simmpi.World` runs one launch/join sequence on
every backend.  Teardown never blocks on a queue: a child that has
reported is joined, not terminated; while children exit, the parent
drains the inboxes that no child reads any more, so no child stalls
flushing an envelope nobody will receive (each user envelope it drops
is counted by channel, for the world's unreceived-message check); and
the parent reads an inbox only while every child is alive or exited
cleanly, so it never waits on an envelope a dying child left truncated.

Aggregation at join
-------------------
Each child records into its own :class:`TrafficStats`, observe
:class:`~repro.observe.registry.Registry`, and (forked copy of the)
:class:`~repro.runtime.faults.FaultInjector`; at exit it ships those
through a result pipe and the parent merges them, so ``world.stats``,
the active observe registry, and the shared injector end up equivalent
to a thread-backend run.  Each report also lists the user envelopes its
mailboxes hold unreceived, so the world's leftover channels are those of
a thread-backend run too.  The injector merge (a union of fired crash
specs) is idempotent, so history a child inherited at fork counts once
and a recovery supervisor re-forking the world continues exactly where
a thread-backend rerun would.

Determinism
-----------
Every receive names its (source, tag) — the communicator offers no
wildcard — and collectives return rank-ordered lists, so a deterministic program produces results
bit-identical to the thread backend — asserted by the backend-parity
tests for all three parallel-KMC schemes and the distributed damage MD.
"""

from __future__ import annotations

import multiprocessing
import pickle
import queue as _stdlib_queue
import threading
import time
from collections import Counter
from multiprocessing import connection as _mpconn
from typing import Any, Callable, Iterable, Sequence

import numpy as np

from repro import observe as obs
from repro.runtime.scheduler import RankThreads
from repro.runtime.stats import TrafficStats
from repro.runtime.transport import LocalTransport

#: Envelope kinds carried by the inbox queues.
_MSG = "msg"
_ABORT = "abort"
_QUIESCE = "quiesce"


def fork_available() -> bool:
    """Whether the platform can run the process backend (needs fork)."""
    return "fork" in multiprocessing.get_all_start_methods()


def _rank_groups(ranks: Sequence[int], workers: int) -> list[list[int]]:
    """Contiguous split of ``ranks`` over ``workers`` children.

    Mirrors the paper's block decomposition of subdomains over nodes:
    neighbouring ranks land in the same child wherever possible, so the
    halo traffic that dominates the exchange schemes stays in-process.
    """
    n_groups = max(1, min(int(workers), len(ranks)))
    return [g.tolist() for g in np.array_split(np.asarray(ranks), n_groups)]


def _names(gi: int, ranks: list[int]) -> dict[str, str]:
    """What one child is called: as a process, in observe, in errors."""
    if len(ranks) == 1:
        r = ranks[0]
        return {"process": f"simmpi-rank-{r}", "observe": f"rank{r}/",
                "error": f"rank {r}"}
    return {"process": f"simmpi-group-{gi}", "observe": f"group{gi}/",
            "error": f"rank group {ranks[0]}-{ranks[-1]}"}


class _Endpoints:
    """All shared transport state, created in the parent before forking."""

    def __init__(self, ctx, groups: list[list[int]]) -> None:
        self.groups = groups
        #: One inbox per child, shared by the ranks it hosts.
        self.inboxes = [ctx.Queue() for _ in groups]
        self.group_of = {
            rank: gi for gi, ranks in enumerate(groups) for rank in ranks
        }

    def abort_all(self) -> None:
        """Wake every blocked rank of every child."""
        for q in self.inboxes:
            q.put((_ABORT,))


class ForkedTransport(LocalTransport):
    """One child's end of the process transport (its hosted rank group)."""

    def __init__(self, endpoints: _Endpoints, gi: int) -> None:
        super().__init__(endpoints.groups[gi])
        self._endpoints = endpoints
        self._inbox = endpoints.inboxes[gi]
        self._pump = threading.Thread(
            target=self._pump_loop, name=f"simmpi-pump-{gi}", daemon=True
        )
        self._pump.start()

    def post(self, dests, src, tag, payload, nbytes) -> None:
        remote: dict[int, list[int]] = {}
        for dest in dests:
            mailbox = self._mailboxes.get(dest)
            if mailbox is not None:
                # Same child: straight into the peer's mailbox — no
                # queue, no pickle, no feeder-thread latency.
                mailbox.deposit(src, tag, payload, nbytes)
            else:
                remote.setdefault(self._endpoints.group_of[dest], []).append(dest)
        if not remote:
            return
        # The payload is frozen, so the pickle performed later by the
        # queue's feeder thread cannot observe sender-side mutations.
        for gi, members in remote.items():
            self._endpoints.inboxes[gi].put(
                (_MSG, members, src, tag, payload, nbytes)
            )

    def abort(self) -> None:
        super().abort()
        self._endpoints.abort_all()

    def _pump_loop(self) -> None:
        while True:
            try:
                item = self._inbox.get()
            except (EOFError, OSError):  # pragma: no cover - teardown race
                return
            if item[0] == _QUIESCE:
                return
            if item[0] == _ABORT:
                super().abort()
                return
            self._deliver(item)

    def _deliver(self, item) -> None:
        super().post(*item[1:])  # (_MSG, dests, src, tag, payload, nbytes)

    def quiesce(self) -> None:
        """Stop the pump and fold already-arrived envelopes into the mailboxes.

        Called once the hosted ranks have returned, before the exit
        report is built, so the reported leftover envelopes are exact: every
        inbound envelope is either deposited here (and counted by a
        mailbox) or still in the queue for the parent's residual sweep —
        never lost in the pump's hand-off window.
        """
        self._inbox.put((_QUIESCE,))
        self._pump.join(timeout=10.0)
        while True:
            try:
                item = self._inbox.get_nowait()
            except _stdlib_queue.Empty:
                return
            if item[0] == _MSG:
                self._deliver(item)


def _ensure_picklable(exc: BaseException) -> BaseException:
    """The exception itself if it survives pickling, else a summary."""
    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception:  # noqa: BLE001 - a custom __reduce__ can raise anything; the downgrade is counted
        obs.add("runtime.procbackend.unpicklable_errors")
        return RuntimeError(f"{type(exc).__name__}: {exc}")


def _child_entry(
    gi, endpoints, conn, obs_trace, main, nranks, faults, watchdog,
) -> None:
    """Entry point of one forked child hosting a contiguous rank group.

    The default configuration forks one child per rank (the group is a
    singleton); with ``workers=P < nranks`` each child hosts ``~R/P``
    ranks as threads sharing one traffic ledger, observe registry, and
    injector copy — the overdecomposition analogue of several subdomains
    pinned to one physical node.
    """
    ranks = endpoints.groups[gi]
    child_registry = None
    if obs_trace is not None:
        from repro.observe.registry import Registry

        child_registry = obs.enable(Registry(trace=obs_trace))
    stats = TrafficStats(nranks)
    transport = ForkedTransport(endpoints, gi)

    # A rank error aborts the whole world from inside the child, exactly
    # as the parent would: every child's pump sees the sentinel.
    threads = RankThreads(main, transport, nranks, stats, faults, watchdog)
    threads.start(ranks)
    threads.wait(None)
    transport.quiesce()
    report = {
        "results": threads.results,
        "errors": [
            (rank, _ensure_picklable(exc)) for rank, exc in threads.errors
        ],
        "stats": stats.export_state(),
        "obs": (
            child_registry.export_state() if child_registry is not None else None
        ),
        "faults": faults.export_state() if faults is not None else None,
        "leftover": transport.leftover(),
    }
    try:
        conn.send(report)
    except (pickle.PicklingError, TypeError, AttributeError) as exc:
        # A result failed to pickle: count it, then resend a stub
        # report so the parent is never left blocking on the pipe.
        obs.add("runtime.procbackend.unpicklable_results")
        report["results"] = {}
        report["errors"] = [
            (
                ranks[0],
                RuntimeError(
                    f"{_names(gi, ranks)['error']} produced an unpicklable "
                    f"result: {exc}"
                ),
            )
        ]
        conn.send(report)
    finally:
        conn.close()


class ProcessRanks:
    """The forked children hosting a world's ranks, for one run.

    The process counterpart of
    :class:`~repro.runtime.scheduler.RankThreads`, with the same
    protocol: ``start``, ``wait``, ``abort``, ``alive``, then
    ``results``, ``errors`` and :meth:`leftover`.  ``workers=None`` forks
    one child per rank; ``workers=P`` forks ``min(P, R)`` children, each
    hosting a contiguous group of ~R/P ranks as threads with in-process
    routing inside the group — the overdecomposed process topology.
    Every report a child sends is merged into ``stats``, ``faults`` and
    the active observe registry.
    """

    def __init__(
        self, main: Callable, size: int, stats: TrafficStats, faults=None,
        watchdog: float | None = None, workers: int | None = None,
    ) -> None:
        if not fork_available():
            raise RuntimeError(
                "the process backend requires the 'fork' start method "
                "(unavailable on this platform); use backend='thread'"
            )
        #: What every child runs its rank group with, as RankThreads does.
        self._child_args = (main, size, faults, watchdog)
        self._stats = stats
        self._faults = faults
        self._workers = size if workers is None else workers
        self._procs: list = []
        self._conns: list = []
        #: Children that reported or died; no child reads their inboxes.
        self._done: set[int] = set()
        #: Reports not merged yet, by child.
        self._arrived: dict[int, dict] = {}
        self._aborted = False
        self._leftover: Counter = Counter()
        self.results: dict[int, Any] = {}
        self.errors: list[tuple[int, BaseException]] = []

    def start(self, ranks: Iterable[int]) -> None:
        self._groups = _rank_groups(list(ranks), self._workers)
        ctx = multiprocessing.get_context("fork")
        self._endpoints = _Endpoints(ctx, self._groups)
        self._registry = obs.active()
        obs_trace = self._registry._trace if self._registry is not None else None
        with obs.phase("runtime.spawn_processes"):
            for gi, group in enumerate(self._groups):
                conn, child_conn = ctx.Pipe(duplex=False)
                proc = ctx.Process(
                    target=_child_entry,
                    args=(
                        gi, self._endpoints, child_conn, obs_trace,
                        *self._child_args,
                    ),
                    name=_names(gi, group)["process"],
                    daemon=True,
                )
                proc.start()
                # The child holds the only write end, so a child that
                # dies mid-report leaves an EOF, not a read that blocks.
                child_conn.close()
                self._procs.append(proc)
                self._conns.append(conn)

    def wait(self, timeout: float) -> bool:
        """Collect reports until every child has exited; ``False`` if
        ``timeout`` seconds pass first.  What arrived is merged, in
        child order, before this returns."""
        deadline = time.monotonic() + timeout
        try:
            while True:
                # Sampled before the reads: once no child runs, all it
                # wrote is in the pipes, and that drain is the last one.
                running = [p for p in self._procs if p.exitcode is None]
                self._collect()
                self._drain()
                if not running:
                    return True
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return False
                waitables = [
                    conn for g, conn in enumerate(self._conns)
                    if g not in self._done
                ] + [proc.sentinel for proc in running]
                if self._done:
                    # A child may be flushing into a finished child's
                    # inbox: come back to drain it every 10 ms.
                    remaining = min(remaining, 0.01)
                _mpconn.wait(waitables, timeout=remaining)
        finally:
            self._merge()

    def _collect(self) -> None:
        """Take the reports that arrived; a pipe that closes without one
        means its child died."""
        for g, conn in enumerate(self._conns):
            if g in self._done or not conn.poll():
                continue
            self._done.add(g)
            try:
                report = conn.recv()
            except (EOFError, OSError):
                proc = self._procs[g]
                proc.join(timeout=1.0)
                who = _names(g, self._groups[g])["error"]
                self._fail(
                    self._groups[g][0],
                    RuntimeError(
                        f"{who} process exited with code {proc.exitcode} "
                        "without reporting"
                    ),
                )
                continue
            self._arrived[g] = report
            for rank, exc in report["errors"]:
                self._fail(rank, exc)

    def _drain(self) -> None:
        """Count by channel and drop what sits in the inboxes of finished
        children.

        Nobody else reads those inboxes any more, and a child still
        flushing into one cannot exit until somebody does.  Once a child
        has exited uncleanly it may have left an envelope truncated, and
        reading that would block for ever, so then nothing is read.
        """
        if any(proc.exitcode not in (None, 0) for proc in self._procs):
            return
        for g in self._done:
            inbox = self._endpoints.inboxes[g]
            while True:
                try:
                    item = inbox.get_nowait()
                except _stdlib_queue.Empty:
                    break
                # (_MSG, dests, src, tag, ...); user tags are >= 0.
                if item[0] == _MSG and item[3] >= 0:
                    for dest in item[1]:
                        self._leftover[(item[2], dest, item[3])] += 1

    def _merge(self) -> None:
        """Fold the reports that arrived into the world, in child order."""
        for g in sorted(self._arrived):
            report = self._arrived.pop(g)
            self.results.update(report["results"])
            self._stats.absorb_state(report["stats"])
            if report["faults"] is not None:
                self._faults.absorb_state(report["faults"])
            if report["obs"] is not None and self._registry is not None:
                label = _names(g, self._groups[g])["observe"]
                self._registry.absorb_state(report["obs"], label=label)
            self._leftover.update(report["leftover"])

    def _fail(self, rank: int, exc: BaseException) -> None:
        self.errors.append((rank, exc))
        self.abort()

    def abort(self) -> None:
        """Wake every blocked rank of every child (once)."""
        if self._aborted:
            return
        self._aborted = True
        for inbox in self._endpoints.inboxes:
            # The parent's exit must not wait on a wake-up nobody reads.
            inbox.cancel_join_thread()
        self._endpoints.abort_all()

    def alive(self) -> list[str]:
        """Terminate the children still running; return their names."""
        stragglers = [proc for proc in self._procs if proc.is_alive()]
        for proc in stragglers:
            proc.terminate()
        for proc in stragglers:
            proc.join(timeout=1.0)
        return [proc.name for proc in stragglers]

    def leftover(self) -> Counter:
        """User envelopes of this run never received, by channel."""
        return self._leftover
