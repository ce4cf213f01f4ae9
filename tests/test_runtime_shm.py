"""Payload shapes across the process backend's queues.

The process backend once carried large arrays through a shared-memory
slot pool (hence this module's name); now every payload is pickled onto
the receiving child's queue. Each test sends one payload shape through a
process-backend world and checks it arrives exactly as the thread
backend hands it over: equal values, and arrays equal in dtype, shape
and C-contiguous layout. The world tests run a bulk program of sends,
an allgather and window puts, and compare results and traffic ledgers.
"""

import numpy as np

from repro.runtime.simmpi import World
from tests.markers import needs_fork

pytestmark = needs_fork

BACKENDS = ("thread", "process")


def _assert_same(got, want):
    """Equal values; arrays also equal in dtype, shape and C layout."""
    assert type(got) is type(want)
    if isinstance(want, np.ndarray):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want)
        assert got.flags.c_contiguous and want.flags.c_contiguous
    elif isinstance(want, (tuple, list)):
        assert len(got) == len(want)
        for g, w in zip(got, want):
            _assert_same(g, w)
    elif isinstance(want, dict):
        assert got.keys() == want.keys()
        for key in want:
            _assert_same(got[key], want[key])
    else:
        assert got == want


def _assert_roundtrip(make_payloads, nranks=2):
    """Every payload ``make_payloads()`` builds, through a send, a bcast
    and a window put, arrives on the process backend as on the thread
    backend."""

    def main(comm):
        right = (comm.rank + 1) % comm.size
        left = (comm.rank - 1) % comm.size
        received = []
        for payload in make_payloads():
            comm.send(right, 11, payload)
            received.append(comm.recv(left, 11)[2])
            received.append(comm.bcast(payload if comm.rank == 0 else None))
            win = comm.win_create()
            win.put(right, payload)
            received.append(win.fence())
        comm.barrier()
        return received

    results = {
        backend: World(nranks, backend=backend).run(main, timeout=60.0)
        for backend in BACKENDS
    }
    _assert_same(results["process"], results["thread"])
    return results["process"]


# ----------------------------------------------------------------------
# One payload shape at a time
# ----------------------------------------------------------------------
class TestEncodeDecode:
    def test_nested_payload_roundtrip(self):
        out = _assert_roundtrip(lambda: [{
            "rows": np.arange(64, dtype=np.int64),
            "x": [np.linspace(0, 1, 50), ("tag", np.ones((4, 5)))],
            "meta": 7,
        }])
        assert out[1][0]["x"][1][0] == "tag"

    def test_noncontiguous_and_fortran_arrays(self):
        def payloads():
            base = np.arange(120, dtype=np.float64).reshape(10, 12)
            return [base[::2, ::3], base.T, np.asfortranarray(base)]

        out = _assert_roundtrip(payloads)
        for got, want in zip(out[1][0::3], payloads()):
            assert np.array_equal(got, want)
            assert got.flags.c_contiguous  # the copy freeze makes

    def test_structured_dtype_roundtrip(self):
        def payloads():
            arr = np.zeros(16, dtype=[("row", np.int64), ("e", np.float64)])
            arr["row"] = np.arange(16)
            arr["e"] = np.linspace(-1, 1, 16)
            return [arr]

        out = _assert_roundtrip(payloads)
        assert np.array_equal(out[1][0], payloads()[0])

    def test_object_dtype_stays_inline(self):
        out = _assert_roundtrip(
            lambda: [np.array([{"a": 1}, None, "s"], dtype=object)]
        )
        assert out[1][0][0] == {"a": 1} and out[1][0][1] is None

    def test_small_and_empty_arrays_stay_inline(self):
        out = _assert_roundtrip(lambda: [
            np.arange(4),
            np.empty(0),
            np.empty((0, 3), dtype=np.int32),
        ])
        assert [a.shape for a in out[1][0::3]] == [(4,), (0,), (0, 3)]

    def test_oversized_array_uses_oneshot_segment(self):
        """A 16 MiB array: far past a pipe buffer, one pickled envelope."""
        out = _assert_roundtrip(lambda: [np.arange(1 << 21, dtype=np.float64)])
        assert out[1][0].nbytes == 16 << 20


# ----------------------------------------------------------------------
# End-to-end through the process backend
# ----------------------------------------------------------------------
def _bulk_main(comm):
    right = (comm.rank + 1) % comm.size
    left = (comm.rank - 1) % comm.size
    data = np.full(5000, float(comm.rank))
    comm.send(right, 11, {"ghost": data, "step": comm.rank})
    _s, _t, payload = comm.recv(left, 11)
    gathered = comm.allgather(np.full(2000, float(comm.rank)))
    win = comm.win_create()
    win.put(right, np.full(3000, float(comm.rank) + 0.5))
    puts = win.fence()
    comm.barrier()
    return (
        float(payload["ghost"][0]),
        payload["step"],
        [float(g[0]) for g in gathered],
        [(origin, float(arr[0])) for origin, arr in puts],
    )


class TestWorldIntegration:
    def test_bulk_traffic_travels_via_shm(self):
        # One child per rank, so every message crosses a process boundary.
        results = World(3, backend="process").run(_bulk_main, timeout=60.0)
        assert results == World(3, backend="thread").run(_bulk_main, 60.0)

    def test_traffic_ledger_matches_pickle_transport(self):
        ledgers = {}
        for backend in BACKENDS:
            world = World(3, backend=backend)
            world.run(_bulk_main, timeout=60.0)
            ledgers[backend] = world.stats.snapshot()
        for key in ("total_sent_bytes", "total_messages", "total_collectives"):
            assert ledgers["process"][key] == ledgers["thread"][key]

    def test_pool_disabled_world_still_runs(self):
        """Rank groups: two children host three ranks, so the bulk program
        mixes in-child and cross-process messages."""
        results = World(3, backend="process", workers=2).run(
            _bulk_main, timeout=60.0
        )
        assert results == World(3, backend="thread").run(_bulk_main, 60.0)
