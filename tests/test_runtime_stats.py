"""Traffic accounting and payload sizing tests."""

import numpy as np

from repro.runtime.simmpi import World
from repro.runtime.stats import TrafficStats, payload_nbytes


class Counting:
    """Payload object that counts how often it gets pickled."""

    pickles = 0

    def __reduce__(self):
        Counting.pickles += 1
        return (Counting, ())


class Mutating:
    """Payload object whose pickled size changes with its state."""

    def __init__(self):
        self.blob = b""

    def __getstate__(self):
        return {"blob": self.blob}

    def __setstate__(self, state):
        self.blob = state["blob"]


class TestPayloadNbytes:
    def test_none_is_zero(self):
        assert payload_nbytes(None) == 0

    def test_numpy_exact(self):
        assert payload_nbytes(np.zeros(10)) == 80
        assert payload_nbytes(np.zeros((4, 3), dtype=np.int32)) == 48

    def test_bytes_exact(self):
        assert payload_nbytes(b"abcde") == 5

    def test_scalars(self):
        assert payload_nbytes(7) == 8
        assert payload_nbytes(1.5) == 8
        assert payload_nbytes(np.float64(2.0)) == 8

    def test_containers_sum(self):
        payload = (np.zeros(2), [np.zeros(3), b"xy"])
        assert payload_nbytes(payload) == 16 + 24 + 2

    def test_dict_counts_keys_and_values(self):
        assert payload_nbytes({1: np.zeros(1)}) == 16

    def test_unpicklable_fallback(self):
        import threading

        assert payload_nbytes(threading.Lock()) == 64

    def test_numpy_scalar_fast_path(self):
        # numpy scalars cost one word, same as their Python counterparts
        # (not their pickled size, which is ~10x larger).
        assert payload_nbytes(np.int32(7)) == 8
        assert payload_nbytes(np.bool_(True)) == 8

    def test_pickle_fallback_memoized_within_message(self):
        single = payload_nbytes(Counting())
        Counting.pickles = 0
        obj = Counting()
        assert payload_nbytes([obj] * 10) == 10 * single
        # One pickle.dumps for all ten references to the same object.
        assert Counting.pickles == 1

    def test_memo_does_not_leak_across_messages(self):
        obj = Mutating()
        before = payload_nbytes([obj])
        obj.blob = b"x" * 100
        after = payload_nbytes([obj])
        assert after > before  # a new message re-measures the object

    def test_views_and_noncontiguous_cost_logical_nbytes(self, monkeypatch):
        """The array fast path covers every numeric layout, pickle-free.

        What crosses between processes is a C-contiguous copy of the
        logical elements, so a strided view costs its own nbytes — not
        the base buffer's, and never a pickle round-trip.
        """
        import pickle as _pickle

        def forbidden(*a, **k):  # arrays must never reach pickle costing
            raise AssertionError("pickle.dumps called for an array payload")

        monkeypatch.setattr(
            "repro.runtime.stats.pickle.dumps", forbidden
        )
        base = np.arange(120, dtype=np.float64).reshape(10, 12)
        assert payload_nbytes(base[::2, ::3]) == 5 * 4 * 8
        assert payload_nbytes(base.T) == base.nbytes
        assert payload_nbytes(np.asfortranarray(base)) == base.nbytes
        assert payload_nbytes(base[3]) == 12 * 8  # view of a row
        structured = np.zeros(4, dtype=[("a", np.int64), ("b", np.float32)])
        assert payload_nbytes(structured) == structured.nbytes
        del _pickle

    def test_object_dtype_arrays_cost_pickled_size(self):
        """Object arrays hold pointers; nbytes would undercount wildly."""
        arr = np.array([b"x" * 1000, b"y" * 1000], dtype=object)
        cost = payload_nbytes(arr)
        assert cost > 2000  # the referents, not 2 x 8 pointer bytes
        assert cost != arr.nbytes


class TestTrafficStats:
    def test_record_send_accumulates(self):
        stats = TrafficStats(2)
        stats.record_send(0, 100)
        stats.record_send(0, 50)
        assert stats.total_sent_bytes == 150
        assert stats.total_messages == 2

    def test_collective_charged_to_all_ranks(self):
        stats = TrafficStats(4)
        stats.record_collective()
        assert stats.total_collectives == 4
        assert all(c.collectives == 1 for c in stats.ranks)

    def test_snapshot_keys(self):
        snap = TrafficStats(3).snapshot()
        assert set(snap) == {
            "nranks",
            "total_sent_bytes",
            "total_messages",
            "total_collectives",
            "sent_messages",
            "sent_bytes",
        }

    def test_snapshot_counts_sends_per_rank(self):
        stats = TrafficStats(3)
        stats.record_send(0, 100)
        stats.record_send(2, 7)
        stats.record_send(2, 0)
        snap = stats.snapshot()
        assert snap["sent_messages"] == [1, 0, 2]
        assert snap["sent_bytes"] == [100, 0, 7]
        assert snap["total_messages"] == 3
        assert snap["total_sent_bytes"] == 107

    def test_world_counts_real_traffic(self, world_backend):
        def main(comm):
            if comm.rank == 0:
                comm.send(1, tag=0, payload=np.zeros(100))
            else:
                comm.recv(0, 0)

        w = World(2, **world_backend)
        w.run(main)
        assert w.stats.total_sent_bytes == 800

