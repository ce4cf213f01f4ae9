"""Layer 3 of the communication stack: ordered middleware.

Everything a rank communicates goes through seven primitives —
``send / recv / probe / iprobe / exchange / put / fence`` — implemented
once over the transport by :class:`~repro.runtime.simmpi.Endpoint`.
Each cross-cutting capability is a :class:`Layer` that intercepts the
primitives it cares about and delegates inward; :func:`compose` stacks
the active ones in one fixed order, identical on every backend.

Primitive signatures (what a layer sees)::

    send(dest, tag, payload, nbytes)
    recv(source, tag) -> (source, tag, payload, nbytes)
    probe(source, tag) -> Status
    iprobe(source, tag) -> Status | None
    exchange(kind, value, metered) -> [value of rank 0, ..., of rank n-1]
    put(win_tag, target, payload, nbytes)
    fence(win_tag, counts) -> [(origin, payload, nbytes), ...]

``payload`` is already frozen and ``nbytes`` already costed by
:class:`~repro.runtime.simmpi.RankComm`; ``kind`` names the collective
(``("barrier",)``, ``("allreduce", "sum")``, ...), which the endpoint
checks is the same on every rank, and ``metered`` is false for
control-plane exchanges, which count as no collective.  The
point-to-point traffic an ``exchange`` or ``fence`` generates *inside*
the endpoint travels under reserved tags straight through the transport:
no layer ever sees it.

Waiting is not a layer: yielding the worker slot and charging the wait
to a ``runtime.*`` phase happen at the endpoint's one wait point
(:meth:`~repro.runtime.simmpi.Endpoint._wait`), and only when the
mailbox has nothing to match.
"""

from __future__ import annotations

import time

PRIMITIVES = ("send", "recv", "probe", "iprobe", "exchange", "put", "fence")


class Layer:
    """Base of a middleware layer: define the primitives it intercepts.

    Every primitive a subclass does not define is bound straight to the
    inner layer's at construction, so a layer costs a call only where it
    has something to do.
    """

    name = "layer"

    def __init__(self, inner) -> None:
        self.inner = inner
        for prim in PRIMITIVES:
            if not hasattr(type(self), prim):
                setattr(self, prim, getattr(inner, prim))


class TrafficLayer(Layer):
    """Meter what goes over the wire into :class:`TrafficStats`.

    A collective is charged once (by rank 0) to every rank.  A fence is
    charged as the two zero-byte synchronizations of §2.2.1 — one making
    the epoch's puts visible, one closing it; its put-count exchange is
    control plane and unmetered.
    """

    name = "traffic"

    def __init__(self, inner, stats, rank: int) -> None:
        super().__init__(inner)
        self._stats = stats
        self._rank = rank

    def send(self, dest, tag, payload, nbytes):
        self._stats.record_send(self._rank, dest, nbytes)
        self.inner.send(dest, tag, payload, nbytes)

    def recv(self, source, tag):
        envelope = self.inner.recv(source, tag)
        self._stats.record_recv(self._rank, envelope[3])
        return envelope

    def exchange(self, kind, value, metered):
        if metered and self._rank == 0:
            self._stats.record_collective()
        return self.inner.exchange(kind, value, metered)

    def put(self, win_tag, target, payload, nbytes):
        self._stats.record_send(self._rank, target, nbytes)
        self.inner.put(win_tag, target, payload, nbytes)

    def fence(self, win_tag, counts):
        if self._rank == 0:
            self._stats.record_collective()
            self._stats.record_collective()
        drained = self.inner.fence(win_tag, counts)
        for _origin, _payload, nbytes in drained:
            self._stats.record_recv(self._rank, nbytes)
        return drained


class FaultLayer(Layer):
    """Apply the fault plan's delays.

    A delay pauses the sender before the operation goes inward, so FIFO
    order per (source, tag) survives it (an MPI send is allowed to
    block) and no byte moves differently.
    """

    name = "faults"

    def __init__(self, inner, injector, rank: int) -> None:
        super().__init__(inner)
        self._pause = injector.pause
        self._rank = rank

    def _hold(self, op: str) -> None:
        seconds = self._pause(self._rank, op)
        if seconds:
            time.sleep(seconds)

    def send(self, dest, tag, payload, nbytes):
        self._hold("send")
        self.inner.send(dest, tag, payload, nbytes)

    def put(self, win_tag, target, payload, nbytes):
        self._hold("put")
        self.inner.put(win_tag, target, payload, nbytes)


def compose(endpoint, *, rank, stats, faults=None):
    """Stack the active layers over ``endpoint``; return the outermost.

    The order, innermost first, and why it is that order:

    1. **traffic** — innermost, so it meters exactly what reaches the
       endpoint.
    2. **faults** (world has a plan) — outermost: it pauses an operation
       before it is metered or sent.
    """
    chain = TrafficLayer(endpoint, stats, rank)
    if faults is not None:
        chain = FaultLayer(chain, faults, rank)
    return chain
