"""True multi-process execution backend for the simmpi runtime.

The thread backend runs every rank as a Python *thread*: correct, fast to
spawn, but serialized by the GIL wherever the force and rate kernels run
Python-level code — a strong-scaling experiment on the thread backend
measures scheduling, not speedup.  This module provides
``backend="process"``: each rank (or contiguous rank *group*) becomes a
forked OS process, so MD force work and KMC rate kernels genuinely run
in parallel on multi-core hosts.  Ranks get the very same
:class:`~repro.runtime.simmpi.RankComm` over the very same middleware;
only the transport underneath differs.

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
crosses the process boundary once.  Bulk arrays ride the shared-memory
pool (:mod:`repro.runtime.shm`) and the queue carries headers only.
Collectives and window puts need nothing of their own: they are
reserved-tag envelopes through the same inboxes.

Aggregation at join
-------------------
Each child records into its own :class:`TrafficStats`, observe
:class:`~repro.observe.registry.Registry`, and (forked copy of the)
:class:`~repro.runtime.faults.FaultInjector`; at exit it ships those
through a result pipe and the parent merges them, so ``world.stats``,
the active observe registry, and the shared injector end up equivalent
to a thread-backend run — fired crash specs and operation ordinals
included, so a recovery supervisor re-forking the world continues
exactly where a thread-backend rerun would.

Determinism
-----------
Engines address receives by explicit (source, tag) and collectives
return rank-ordered lists, so a deterministic program produces results
bit-identical to the thread backend — asserted by the backend-parity
tests for all three parallel-KMC schemes and the distributed damage MD.
"""

from __future__ import annotations

import multiprocessing
import pickle
import queue as _stdlib_queue
import threading
import time
from multiprocessing import connection as _mpconn

from repro import observe as obs
from repro.runtime import shm as _shm
from repro.runtime.scheduler import RankThreads
from repro.runtime.simmpi import conclude
from repro.runtime.stats import TrafficStats
from repro.runtime.transport import LocalTransport

#: Envelope kinds carried by the inbox queues.
_MSG = "msg"
_ABORT = "abort"
_QUIESCE = "quiesce"


def fork_available() -> bool:
    """Whether the platform can run the process backend (needs fork)."""
    return "fork" in multiprocessing.get_all_start_methods()


def _rank_groups(nranks: int, workers: int) -> list[list[int]]:
    """Contiguous split of ``nranks`` ranks over ``workers`` children.

    Mirrors the paper's block decomposition of subdomains over nodes:
    neighbouring ranks land in the same child wherever possible, so the
    halo traffic that dominates the exchange schemes stays in-process.
    """
    n_groups = max(1, min(int(workers), nranks))
    base, extra = divmod(nranks, n_groups)
    groups, start = [], 0
    for gi in range(n_groups):
        size = base + (1 if gi < extra else 0)
        groups.append(list(range(start, start + size)))
        start += size
    return groups


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

    def __init__(self, ctx, groups: list[list[int]], pool=None) -> None:
        self.groups = groups
        #: One inbox per child, shared by the ranks it hosts.
        self.inboxes = [ctx.Queue() for _ in groups]
        self.group_of = {
            rank: gi for gi, ranks in enumerate(groups) for rank in ranks
        }
        #: Optional zero-copy array transport (see repro.runtime.shm):
        #: queues then carry slot headers instead of pickled array bytes.
        self.pool = pool

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
        self._pool = endpoints.pool
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
        # With a pool, bulk arrays move to shared memory here — encoded
        # once, pinned for every receiving child — and the queue pickles
        # only the slot headers.
        if self._pool is not None:
            payload = self._pool.encode(payload, nrefs=len(remote))
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
        _kind, dests, src, tag, payload, nbytes = item
        if self._pool is not None:
            payload = self._pool.decode(payload)
        super().post(dests, src, tag, payload, nbytes)

    def quiesce(self) -> None:
        """Stop the pump and fold already-arrived envelopes into the mailboxes.

        Called once the hosted ranks have returned, before the exit
        report is built, so the reported pending count is exact: every
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
        pickle.loads(pickle.dumps(exc))  # repro: noqa(REP007) error path only, once per failed rank, never a message payload
        return exc
    except Exception:
        # A custom __reduce__ can raise anything, so the catch must stay
        # broad — but the downgrade is counted, never silent.
        obs.add("runtime.procbackend.unpicklable_errors")
        return RuntimeError(f"{type(exc).__name__}: {exc}")


def _child_entry(
    main, gi, endpoints, conn, nranks, faults, watchdog, sanitize,
    obs_trace,
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
    threads = RankThreads(
        main, transport, nranks, stats, faults, watchdog, sanitize
    )
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
        "pending": transport.pending(),
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


def run_process_world(
    world, main, timeout: float, grace: float, workers: int | None,
    sanitize: bool,
) -> list:
    """Execute ``main(comm)`` with forked processes hosting the ranks.

    The process half of :meth:`~repro.runtime.simmpi.World.run`: same
    result list, same join epilogue (:func:`~repro.runtime.simmpi.
    conclude`) — and the world's stats/faults plus the active observe
    registry absorb every child's measurements before control returns.

    ``workers=None`` (default) forks one child per rank.  ``workers=P``
    forks ``min(P, nranks)`` children, each hosting a contiguous group
    of ~R/P ranks as threads with in-process routing inside the group —
    the overdecomposed process topology.
    """
    if not fork_available():
        raise RuntimeError(
            "the process backend requires the 'fork' start method "
            "(unavailable on this platform); use backend='thread'"
        )
    nranks = world.nranks
    groups = _rank_groups(nranks, workers if workers is not None else nranks)
    ctx = multiprocessing.get_context("fork")
    pool = _shm.create_pool(ctx, nranks)
    endpoints = _Endpoints(ctx, groups, pool)
    try:
        return _run_forked(world, main, timeout, grace, ctx, endpoints, sanitize)
    finally:
        # Unconditional teardown: no run — clean, aborted, or timed out —
        # may leak /dev/shm space past the world's lifetime.
        if pool is not None:
            leaked = pool.leaked_slots()
            world.shm_leaked_slots = leaked  # the sanitizer reads this
            if leaked:  # a terminated child died holding slots
                obs.add("runtime.shm.leaked_slots", leaked)
            pool.destroy()


def _run_forked(
    world, main, timeout: float, grace: float, ctx, endpoints: _Endpoints,
    sanitize: bool,
) -> list:
    """Fork/collect/merge core of :func:`run_process_world`."""
    nranks = world.nranks
    groups = endpoints.groups
    registry = obs.active()
    obs_trace = registry._trace if registry is not None else None
    faults_base = (
        world.faults.export_state() if world.faults is not None else None
    )
    procs, conns = [], []
    for gi, ranks in enumerate(groups):
        parent_conn, child_conn = ctx.Pipe(duplex=False)
        proc = ctx.Process(
            target=_child_entry,
            args=(
                main, gi, endpoints, child_conn, nranks, world.faults,
                world.watchdog, sanitize, obs_trace,
            ),
            name=_names(gi, ranks)["process"],
            daemon=True,
        )
        procs.append(proc)
        conns.append(parent_conn)
    with obs.phase("runtime.spawn_processes"):
        for proc in procs:
            proc.start()

    reports: dict[int, dict] = {}
    errors: list[tuple[int, BaseException]] = []
    aborted = False

    def abort() -> None:
        nonlocal aborted
        if not aborted:
            aborted = True
            endpoints.abort_all()

    def collect(deadline: float) -> None:
        """Drain reports/exits until all children reported or time ran out."""
        pending = set(range(len(groups))) - set(reports)
        while pending:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                return
            waitables = [conns[g] for g in pending]
            waitables += [procs[g].sentinel for g in pending]
            _mpconn.wait(waitables, timeout=remaining)
            for g in list(pending):
                if conns[g].poll():
                    try:
                        rep = conns[g].recv()
                    except (EOFError, OSError):
                        rep = None
                    if rep is not None:
                        reports[g] = rep
                        pending.discard(g)
                        if rep["errors"]:
                            errors.extend(rep["errors"])
                            abort()
                        continue
                if not procs[g].is_alive() and not conns[g].poll():
                    pending.discard(g)
                    who = _names(g, groups[g])["error"]
                    errors.append(
                        (
                            groups[g][0],
                            RuntimeError(
                                f"{who} process exited with code "
                                f"{procs[g].exitcode} without reporting"
                            ),
                        )
                    )
                    abort()

    collect(time.monotonic() + timeout)
    timed_out = len(reports) < len(groups)
    if timed_out:
        abort()
        collect(time.monotonic() + grace)
    for proc in procs:
        proc.join(timeout=0.1 if not timed_out else grace)
        if proc.is_alive():
            proc.terminate()
            proc.join(timeout=1.0)
    for conn in conns:
        conn.close()

    # Merge every child's measurements into the parent-side registries.
    pending_msgs = 0
    results: dict[int, object] = {}
    for gi, ranks in enumerate(groups):
        rep = reports.get(gi)
        if rep is None:
            continue
        results.update(rep["results"])
        world.stats.absorb_state(rep["stats"])
        if rep["faults"] is not None:
            world.faults.absorb_state(rep["faults"], base=faults_base)
        if rep["obs"] is not None and registry is not None:
            label = _names(gi, ranks)["observe"]
            registry.absorb_state(rep["obs"], label=label)
        pending_msgs += rep["pending"]

    # Residual sweep: an envelope can still sit in a child's inbox queue
    # when that child quiesces (queue feeder threads flush asynchronously,
    # so a send that "happened before" the receiver's exit may reach the
    # pipe after it).  All children have exited by now, which flushes
    # their feeders, so whatever remains here is the exact set of
    # undelivered envelopes — count the user messages.
    pool = endpoints.pool
    for q in endpoints.inboxes:
        while True:
            try:
                item = q.get_nowait()
            except _stdlib_queue.Empty:
                break
            except (EOFError, OSError, pickle.UnpicklingError):
                break  # a terminated child left a truncated write
            if item[0] != _MSG:
                continue
            _kind, dests, _src, tag, payload, _nbytes = item
            if pool is not None:
                # Abort-while-slot-held: the receivers are gone, so the
                # parent drops this envelope's slot references.
                pool.release_refs(payload)
            if tag >= 0:
                pending_msgs += len(dests)
    world._pending = pending_msgs

    stragglers = None
    if timed_out:
        stragglers = [
            procs[g].name for g in range(len(groups)) if g not in reports
        ]
    conclude(
        nranks, timeout, grace, stragglers, "process(es)", "terminated", errors
    )
    return [results.get(rank) for rank in range(nranks)]
