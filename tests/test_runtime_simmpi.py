"""In-process runtime tests: messaging semantics, collectives, failure."""

import numpy as np
import pytest

from repro.runtime.simmpi import World, WorldAborted


class TestMessaging:
    def test_ring_exchange(self, world_backend):
        def main(comm):
            right = (comm.rank + 1) % comm.size
            left = (comm.rank - 1) % comm.size
            comm.send(right, tag=1, payload=comm.rank)
            src, tag, value = comm.recv(left, tag=1)
            assert (src, tag) == (left, 1)
            return value

        results = World(4, **world_backend).run(main)
        assert results == [3, 0, 1, 2]

    def test_fifo_per_source_and_tag(self, world_backend):
        def main(comm):
            if comm.rank == 0:
                for i in range(5):
                    comm.send(1, tag=7, payload=i)
                return None
            received = [comm.recv(source=0, tag=7)[2] for _ in range(5)]
            return received

        assert World(2, **world_backend).run(main)[1] == [0, 1, 2, 3, 4]

    def test_tag_selectivity(self, world_backend):
        def main(comm):
            if comm.rank == 0:
                comm.send(1, tag=1, payload="a")
                comm.send(1, tag=2, payload="b")
                return None
            # Receive tag 2 first even though tag 1 arrived first.
            _s, _t, b = comm.recv(source=0, tag=2)
            _s, _t, a = comm.recv(source=0, tag=1)
            return (a, b)

        assert World(2, **world_backend).run(main)[1] == ("a", "b")

    def test_send_buffering_allows_reuse(self, world_backend):
        # MPI eager semantics: mutating the buffer after send must not
        # corrupt the message.
        def main(comm):
            if comm.rank == 0:
                buf = np.arange(5)
                comm.send(1, tag=1, payload=buf)
                buf[:] = -1
                return None
            _s, _t, data = comm.recv(0, 1)
            return data.tolist()

        assert World(2, **world_backend).run(main)[1] == [0, 1, 2, 3, 4]

    def test_send_validation(self, world_backend):
        def main(comm):
            with pytest.raises(ValueError, match="destination"):
                comm.send(99, tag=0)
            with pytest.raises(ValueError, match="tag"):
                comm.send(0, tag=-1)

        World(1, **world_backend).run(main)

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_every_receive_names_a_channel(self, backend):
        # No wildcard is representable: a source outside the world or a
        # negative tag is refused by recv, probe and iprobe alike.
        def main(comm):
            refused = []
            for call in (comm.recv, comm.probe, comm.iprobe):
                for source, tag in ((-1, 0), (comm.size, 0), (0, -1)):
                    try:
                        call(source, tag)
                    except ValueError as exc:
                        refused.append(str(exc))
            return refused

        refused = World(2, backend=backend).run(main)[1]
        expected = [
            "source rank -1 out of range",
            "source rank 2 out of range",
            "tag must be non-negative, got -1",
        ]
        assert refused == expected * 3

    def test_no_messages_left_behind(self, world_backend):
        def main(comm):
            comm.send((comm.rank + 1) % comm.size, tag=0, payload=b"x")
            comm.recv((comm.rank - 1) % comm.size, tag=0)

        # A message left unreceived would raise ProtocolError here.
        assert World(3, **world_backend).run(main) == [None] * 3


class TestProbe:
    def test_probe_reports_envelope_without_consuming(self, world_backend):
        def main(comm):
            if comm.rank == 0:
                comm.send(1, tag=9, payload=b"12345")
                return None
            status = comm.probe(source=0, tag=9)
            assert status.tag == 9
            assert status.nbytes == 5
            # Message still there.
            _s, _t, data = comm.recv(source=status.source, tag=status.tag)
            return data

        assert World(2, **world_backend).run(main)[1] == b"12345"

    def test_iprobe_nonblocking(self, world_backend):
        def main(comm):
            if comm.rank == 0:
                assert comm.iprobe(source=1, tag=2) is None  # not sent yet...
                comm.send(1, tag=1, payload=None)
                comm.recv(source=1, tag=2)
                return None
            comm.recv(source=0, tag=1)
            comm.send(0, tag=2, payload=None)
            return None

        World(2, **world_backend).run(main)

    def test_probe_zero_size_message(self, world_backend):
        # The §2.2.1 pattern: zero-size messages still match probes.
        def main(comm):
            if comm.rank == 0:
                comm.send(1, tag=5, payload=np.empty(0, dtype=np.int64))
                return None
            status = comm.probe(source=0, tag=5)
            assert status.nbytes == 0
            comm.recv(source=0, tag=5)

        World(2, **world_backend).run(main)


class TestCollectives:
    def test_allreduce_sum(self, world_backend):
        results = World(5, **world_backend).run(lambda comm: comm.allreduce(comm.rank))
        assert results == [10] * 5

    def test_allreduce_min_max(self, world_backend):
        def main(comm):
            return (
                comm.allreduce(comm.rank + 3, op="min"),
                comm.allreduce(comm.rank + 3, op="max"),
            )

        assert World(4, **world_backend).run(main) == [(3, 6)] * 4

    def test_allreduce_arrays_elementwise(self, world_backend):
        def main(comm):
            v = np.array([comm.rank, 1.0])
            return comm.allreduce(v)

        for out in World(3, **world_backend).run(main):
            assert np.allclose(out, [3.0, 3.0])

    def test_allreduce_unknown_op(self, world_backend):
        def main(comm):
            with pytest.raises(ValueError, match="op"):
                comm.allreduce(1, op="median")

        World(2, **world_backend).run(main)

    def test_allgather_ordered_by_rank(self, world_backend):
        world = World(4, **world_backend)
        results = world.run(lambda comm: comm.allgather(comm.rank * 10))
        assert results == [[0, 10, 20, 30]] * 4

    def test_bcast(self, world_backend):
        def main(comm):
            return comm.bcast("hello" if comm.rank == 2 else None, root=2)

        assert World(4, **world_backend).run(main) == ["hello"] * 4

    def test_bcast_bad_root(self, world_backend):
        def main(comm):
            with pytest.raises(ValueError, match="root"):
                comm.bcast(1, root=9)

        World(2, **world_backend).run(main)

    def test_barrier_many_rounds(self, world_backend):
        # Reusability of the barrier across many generations.
        def main(comm):
            for _ in range(20):
                comm.barrier()
            return True

        assert all(World(6, **world_backend).run(main))


class TestFailures:
    def test_error_propagates_and_unblocks(self, world_backend):
        def main(comm):
            if comm.rank == 0:
                raise RuntimeError("boom")
            comm.recv(0, 0)  # would deadlock without abort

        with pytest.raises(RuntimeError, match="boom"):
            World(3, **world_backend).run(main)

    def test_error_during_collective_unblocks(self, world_backend):
        def main(comm):
            if comm.rank == 1:
                raise ValueError("bad rank")
            comm.barrier()

        with pytest.raises(RuntimeError, match="bad rank"):
            World(3, **world_backend).run(main)

    def test_abort_unblocks_blocking_probe(self, world_backend):
        def main(comm):
            if comm.rank == 0:
                raise RuntimeError("boom")
            comm.probe(0, 0)  # blocked in peek, not take

        with pytest.raises(RuntimeError, match="boom"):
            World(3, **world_backend).run(main)

    def test_abort_wakes_blocked_ranks_promptly(self, world_backend):
        # Blocked waiters sleep on a condition and are notified on abort
        # (no polling): a failing world must not hang its siblings.
        import time

        def main(comm):
            if comm.rank == 0:
                time.sleep(0.01)
                raise RuntimeError("late failure")
            comm.recv(0, 0)

        t0 = time.perf_counter()
        with pytest.raises(RuntimeError, match="late failure"):
            World(8, **world_backend).run(main)
        # Generous: a lost wakeup would hit World.run's join timeout.
        assert time.perf_counter() - t0 < 2.0

    def test_send_wakes_blocked_receiver(self, world_backend):
        import time

        def main(comm):
            if comm.rank == 0:
                time.sleep(0.05)
                comm.send(1, tag=1, payload=b"go")
                return None
            t0 = time.perf_counter()
            comm.recv(source=0, tag=1)
            return time.perf_counter() - t0

        waited = World(2, **world_backend).run(main)[1]
        # Receiver was asleep for the sender's 50 ms, then woke on the
        # deposit notification rather than a poll tick.
        assert 0.0 < waited < 1.0

    def test_world_size_validation(self):
        with pytest.raises(ValueError, match="nranks"):
            World(0)

    def test_results_indexed_by_rank(self, world_backend):
        results = World(7, **world_backend).run(lambda comm: comm.rank**2)
        assert results == [r**2 for r in range(7)]


class TestAbortRecoveryContract:
    """The failure-semantics contract the recovery supervisor builds on."""

    def test_raise_mid_collective_delivers_worldaborted_to_all_peers(self):
        # Every surviving rank blocked in the collective must come back
        # with WorldAborted (not hang, not see a partial exchange).
        # Observed through a shared list, so this needs the thread
        # backend; the process backend's abort contract is covered by
        # test_runtime_procbackend.TestFailureParity.
        import threading

        seen = []
        seen_lock = threading.Lock()

        def main(comm):
            if comm.rank == 2:
                raise RuntimeError("rank 2 dies mid-collective")
            try:
                comm.allgather(comm.rank)
            except WorldAborted as exc:
                with seen_lock:
                    seen.append((comm.rank, type(exc).__name__))
                raise

        with pytest.raises(RuntimeError, match="rank 2 dies"):
            World(4, backend="thread").run(main)
        assert sorted(r for r, _ in seen) == [0, 1, 3]
        assert all(name == "WorldAborted" for _, name in seen)

    def test_raise_mid_recv_delivers_worldaborted_to_all_peers(self):
        import threading

        seen = []
        seen_lock = threading.Lock()

        def main(comm):
            if comm.rank == 0:
                raise RuntimeError("boom")
            try:
                comm.recv(0, 0)
            except WorldAborted:
                with seen_lock:
                    seen.append(comm.rank)
                raise

        # Thread backend: the shared `seen` list needs shared memory.
        with pytest.raises(RuntimeError, match="boom"):
            World(3, backend="thread").run(main)
        assert sorted(seen) == [1, 2]

    def test_keyboard_interrupt_propagates_unwrapped(self, world_backend):
        # An interrupt is the user's request to stop — it must reach the
        # caller as KeyboardInterrupt, not be reported as a rank failure.
        def main(comm):
            if comm.rank == 0:
                raise KeyboardInterrupt
            comm.recv(0, 0)

        with pytest.raises(KeyboardInterrupt):
            World(2, **world_backend).run(main)

    def test_keyboard_interrupt_still_unblocks_peers(self, world_backend):
        import time

        def main(comm):
            if comm.rank == 0:
                raise KeyboardInterrupt
            comm.recv(0, 0)

        t0 = time.perf_counter()
        with pytest.raises(KeyboardInterrupt):
            World(4, **world_backend).run(main)
        assert time.perf_counter() - t0 < 2.0

    def test_timeout_reports_still_alive_ranks(self, world_backend):
        # A rank that ignores the abort (stuck in non-runtime code) must
        # be named in the TimeoutError instead of silently leaking.
        import time

        def main(comm):
            if comm.rank == 1:
                time.sleep(1.5)  # longer than timeout + grace
            return comm.rank

        with pytest.raises(TimeoutError, match="simmpi-rank-1"):
            World(2, **world_backend).run(main, timeout=0.2, grace=0.2)

    def test_timeout_message_when_ranks_exit_after_abort(self, world_backend):
        # Ranks blocked in the runtime DO exit on abort: the message
        # says so instead of naming leaked threads.
        def main(comm):
            if comm.rank == 0:
                comm.recv(0, 0)  # blocks forever; woken by the abort
            return comm.rank

        with pytest.raises(TimeoutError, match="all ranks exited"):
            World(2, **world_backend).run(main, timeout=0.2, grace=1.0)
