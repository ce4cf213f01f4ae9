"""The protocol checks every run makes, on every backend.

A world fails with :class:`ProtocolError` when its ranks run different
collectives at one exchange (rank 0 compares the kinds it gathers, so
the failure comes at once, not at the watchdog) or when they all return
leaving a user message unreceived (named by channel).  The fixture
worlds are tiny hand-written SPMD mains; the real halo-exchange
protocols run under the same checks in every conformance cell
(``tests/test_runtime_conformance.py``).
"""

import time

import pytest

from repro.runtime.simmpi import ProtocolError, World
from tests.markers import needs_fork

#: (backend, workers): free threads, one child per rank, one child for
#: all ranks, and logical ranks on two scheduled slots.
BACKENDS = [
    pytest.param(("thread", None), id="thread"),
    pytest.param(("process", None), id="process-wNone", marks=needs_fork),
    pytest.param(("process", 1), id="process-w1", marks=needs_fork),
    pytest.param(("overdecomposed", 2), id="overdecomposed-w2"),
]

#: Deadline of every wait: a mismatch must fail long before it.
WATCHDOG = 30.0


def run(backend, main, nranks=3):
    name, workers = backend
    world = World(nranks, watchdog=WATCHDOG, backend=name, workers=workers)
    return world.run(main, timeout=60.0)


def fails_fast(backend, main) -> str:
    """Run ``main``; it must raise ProtocolError well inside the watchdog."""
    t0 = time.monotonic()
    with pytest.raises(ProtocolError) as err:
        run(backend, main)
    assert time.monotonic() - t0 < 5.0
    return str(err.value)


@pytest.mark.parametrize("backend", BACKENDS)
class TestUnreceived:
    def test_unreceived_send_names_its_channel(self, backend):
        def leak(comm):
            if comm.rank == 0:
                comm.send(1, 42, "orphan")
                comm.send(1, 42, "orphan")
            if comm.rank == 2:
                comm.send(0, 7, b"orphan")
            comm.barrier()

        assert fails_fast(backend, leak) == (
            "unreceived messages: rank 0 -> rank 1 tag 42 x2, "
            "rank 2 -> rank 0 tag 7 x1"
        )


@pytest.mark.parametrize("backend", BACKENDS)
class TestCollectiveKinds:
    def test_barrier_against_allgather(self, backend):
        def diverge(comm):
            if comm.rank == 0:
                comm.barrier()  # deliberate divergence under test
            else:
                comm.allgather(comm.rank)

        assert fails_fast(backend, diverge) == (
            "collectives diverge: rank 0 barrier, rank 1 allgather, "
            "rank 2 allgather"
        )

    def test_allreduce_sum_against_max(self, backend):
        # Unchecked, this returned [6, 3, 3]: each rank reduced the same
        # contributions with its own op.
        def diverge(comm):
            return comm.allreduce(comm.rank + 1, op="max" if comm.rank else "sum")

        assert fails_fast(backend, diverge) == (
            "collectives diverge: rank 0 allreduce sum, "
            "rank 1 allreduce max, rank 2 allreduce max"
        )

    def test_fence_against_barrier(self, backend):
        def diverge(comm):
            win = comm.win_create()
            if comm.rank == 1:
                comm.barrier()
            else:
                win.fence()

        assert fails_fast(backend, diverge) == (
            "collectives diverge: rank 0 fence, rank 1 barrier, rank 2 fence"
        )


@pytest.mark.parametrize("backend", BACKENDS)
class TestCleanWorlds:
    def test_put_and_fence(self, backend):
        def onesided(comm):
            win = comm.win_create()
            win.put((comm.rank + 1) % comm.size, comm.rank * 10)
            drained = win.fence()
            left = (comm.rank - 1) % comm.size
            assert drained == [(left, left * 10)]
            return len(drained)

        assert run(backend, onesided) == [1, 1, 1]

    def test_pinned_source_receives(self, backend):
        def pinned(comm):
            if comm.rank in (1, 2):
                comm.send(0, 7, comm.rank)
            comm.barrier()
            if comm.rank == 0:
                return [comm.recv(source, 7)[2] for source in (2, 1)]
            return None

        assert run(backend, pinned) == [[2, 1], None, None]
