"""In-process message-passing runtime (the reproduction's "MPI").

The paper runs on MPI over 40,960 Sunway nodes.  This package provides a
single-machine runtime with MPI semantics so the *same parallel
algorithms* (domain-decomposed MD ghost exchange, sector-synchronous KMC,
on-demand communication with probe or one-sided windows) execute for
real.  It is one communication stack in two layers:

1. **Transport** (:mod:`~repro.runtime.transport`) — post an envelope to
   a rank's :class:`~repro.runtime.transport.Mailbox`, match, abort.  Two
   implementations: in-process mailboxes, and forked processes whose
   queues pickle every payload (:mod:`~repro.runtime.procbackend`).
2. **Communicator** (:mod:`~repro.runtime.simmpi`,
   :mod:`~repro.runtime.window`) — the one
   :class:`~repro.runtime.simmpi.RankComm` (``send`` / ``recv`` /
   ``probe`` / ``iprobe``, ``barrier`` / ``allreduce`` / ``allgather`` /
   ``bcast``) and the one :class:`~repro.runtime.window.Window`
   (``put`` + ``fence``, the MPI-3 RMA pattern §2.2.1 proposes for
   eliminating zero-size probe messages); collectives and fences are
   written once over point-to-point envelopes.  A user send or put
   first takes the fault plan's sender-side pause
   (:mod:`~repro.runtime.faults`), when the world has one, then is
   counted once, where it is sent.  A rank gives up its worker slot and
   opens a ``runtime.*`` blocked phase at the communicator's one wait
   point, and only when its mailbox has nothing to match.
   :class:`~repro.runtime.simmpi.World` runs an SPMD ``main(comm)`` on
   every rank — as threads, as forked processes, or as R logical ranks
   on P worker slots (:mod:`~repro.runtime.scheduler`).

Every run checks its own protocol: a collective whose kind differs
between ranks, or a world that returns with a user message unreceived,
raises :class:`~repro.runtime.simmpi.ProtocolError`.

:class:`~repro.runtime.stats.TrafficStats` counts every message and
byte per sending rank and every collective (the measurements behind
Figures 12-13).  The runtime prices none of it: modeled Sunway
communication time comes from those counts through
:class:`~repro.perfmodel.machine.ScalingNetwork`, the one network model
of the repository.

Importing the package loads nothing: it exports no names, and each
submodule imports only what every use of it executes.
:mod:`~repro.runtime.simmpi` is the entry point of a run;
``multiprocessing`` is imported by the first process-backend run, and
the scheduler by the first thread or overdecomposed run.
"""
