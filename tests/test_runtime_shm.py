"""The zero-copy shared-memory transport of the process backend.

Pool mechanics first (slot refcounts, exhaustion fallback, one-shot
segments, encode/decode walkers, release without copy), then the
end-to-end properties: a world whose arrays all travel through shared
memory produces the same results and traffic ledger as the pickle
transport, reclaims every slot even when a receiver exits with the slot
still held, and never leaves a segment behind in ``/dev/shm``.
"""

import multiprocessing
import os

import numpy as np
import pytest

from repro import observe as obs
from repro.observe.registry import Registry
from repro.runtime import shm
from repro.runtime.procbackend import fork_available
from repro.runtime.simmpi import World

pytestmark = pytest.mark.skipif(
    not fork_available(), reason="process backend needs the fork start method"
)


@pytest.fixture
def ctx():
    return multiprocessing.get_context("fork")


@pytest.fixture
def pool(ctx):
    p = shm.ShmPool(ctx, nslots=4, slot_bytes=4096, min_bytes=1)
    yield p
    p.destroy()


def _shm_names() -> set:
    try:
        return set(os.listdir("/dev/shm"))
    except FileNotFoundError:  # pragma: no cover - non-Linux
        return set()


# ----------------------------------------------------------------------
# Slot lifecycle
# ----------------------------------------------------------------------
class TestPoolSlots:
    def test_acquire_release_refcounts(self, pool):
        slot = pool.acquire(100, nrefs=3)
        assert slot is not None
        assert pool.free_slots() == pool.nslots - 1
        pool.release(slot)
        pool.release(slot)
        assert pool.free_slots() == pool.nslots - 1  # still pinned
        pool.release(slot)
        assert pool.free_slots() == pool.nslots  # last ref frees

    def test_exhaustion_returns_none_then_reclaims(self, pool):
        held = [pool.acquire(10) for _ in range(pool.nslots)]
        assert all(s is not None for s in held)
        assert pool.acquire(10) is None  # ring full: caller falls back
        pool.release(held[2])
        assert pool.acquire(10) == held[2]  # freed slot recycles

    def test_oversized_payload_rejected(self, pool):
        assert pool.acquire(pool.slot_bytes + 1) is None

    def test_release_is_idempotent_past_zero(self, pool):
        slot = pool.acquire(10)
        pool.release(slot)
        pool.release(slot)  # double release must not underflow
        assert pool.free_slots() == pool.nslots


# ----------------------------------------------------------------------
# Encode / decode walkers
# ----------------------------------------------------------------------
class TestEncodeDecode:
    def test_nested_payload_roundtrip(self, pool):
        payload = {
            "rows": np.arange(64, dtype=np.int64),
            "x": [np.linspace(0, 1, 50), ("tag", np.ones((4, 5)))],
            "meta": 7,
        }
        enc = pool.encode(payload)
        assert isinstance(enc["rows"], shm.SlotRef)
        assert enc["meta"] == 7
        out = pool.decode(enc)
        assert np.array_equal(out["rows"], payload["rows"])
        assert np.array_equal(out["x"][0], payload["x"][0])
        assert out["x"][1][0] == "tag"
        assert np.array_equal(out["x"][1][1], payload["x"][1][1])
        assert pool.free_slots() == pool.nslots  # decode released all

    def test_noncontiguous_and_fortran_arrays(self, pool):
        base = np.arange(120, dtype=np.float64).reshape(10, 12)
        for arr in (base[::2, ::3], base.T, np.asfortranarray(base)):
            out = pool.decode(pool.encode(arr))
            assert np.array_equal(out, arr)
            assert out.flags.c_contiguous  # same layout _freeze produces

    def test_structured_dtype_roundtrip(self, pool):
        dt = np.dtype([("row", np.int64), ("e", np.float64)])
        arr = np.zeros(16, dtype=dt)
        arr["row"] = np.arange(16)
        arr["e"] = np.linspace(-1, 1, 16)
        out = pool.decode(pool.encode(arr))
        assert np.array_equal(out, arr)

    def test_object_dtype_stays_inline(self, pool):
        arr = np.array([{"a": 1}, None, "s"], dtype=object)
        assert pool.encode(arr) is arr  # pickle path, never shm

    def test_small_and_empty_arrays_stay_inline(self, ctx):
        p = shm.ShmPool(ctx, nslots=2, slot_bytes=4096, min_bytes=256)
        try:
            small = np.arange(4)  # 32 bytes < min_bytes
            assert p.encode(small) is small
            empty = np.empty(0)
            assert p.encode(empty) is empty
        finally:
            p.destroy()

    def test_exhausted_pool_falls_back_inline(self, pool):
        held = [pool.acquire(10) for _ in range(pool.nslots)]
        arr = np.arange(8, dtype=np.int64)
        assert pool.encode(arr) is arr  # small enough for a slot, none free
        for s in held:
            pool.release(s)

    def test_oversized_array_uses_oneshot_segment(self, pool):
        before = _shm_names()
        big = np.arange(pool.slot_bytes // 8 + 10, dtype=np.float64)
        enc = pool.encode(big)
        assert isinstance(enc, shm.SegRef)
        out = pool.decode(enc)
        assert np.array_equal(out, big)
        # The consumer unlinked the one-shot segment.
        assert _shm_names() <= before
        with pytest.raises(FileNotFoundError):
            from multiprocessing import shared_memory

            shared_memory.SharedMemory(name=enc.name)

    def test_oversized_broadcast_stays_inline(self, pool):
        big = np.arange(pool.slot_bytes // 8 + 10, dtype=np.float64)
        # Multi-consumer one-shots would need shared teardown; the pool
        # keeps broadcasts that miss the ring on the pickle path instead.
        assert pool.encode(big, nrefs=2) is big

    def test_release_refs_frees_without_copy(self, pool):
        enc = pool.encode([np.arange(64), np.ones(32)])
        assert pool.free_slots() == pool.nslots - 2
        pool.release_refs(enc)
        assert pool.free_slots() == pool.nslots

    def test_release_refs_unlinks_oneshot(self, pool):
        big = np.arange(pool.slot_bytes // 8 + 10, dtype=np.float64)
        enc = pool.encode(big)
        assert isinstance(enc, shm.SegRef)
        pool.release_refs(enc)
        with pytest.raises(FileNotFoundError):
            from multiprocessing import shared_memory

            shared_memory.SharedMemory(name=enc.name)


# ----------------------------------------------------------------------
# Configuration
# ----------------------------------------------------------------------
class TestCreatePool:
    def test_geometry_env_knobs(self, ctx, monkeypatch):
        """The geometry is three module constants (environment knobs
        until nothing but this file set them); tests patch them."""
        monkeypatch.setattr(shm, "SLOTS", (0, 3))
        monkeypatch.setattr(shm, "SLOT_BYTES", 512)
        monkeypatch.setattr(shm, "MIN_BYTES", 0)
        p = shm.create_pool(ctx, 4)
        try:
            assert (p.nslots, p.slot_bytes, p.min_bytes) == (3, 512, 0)
        finally:
            p.destroy()

    def test_default_geometry_scales_with_world(self, ctx):
        p = shm.create_pool(ctx, 6)
        try:
            assert p.nslots == 4 * 6 + 8
            assert p.slot_bytes == 1 << 20
        finally:
            p.destroy()

    def test_bad_geometry_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            shm.ShmPool(multiprocessing.get_context("fork"), 0, 1024)


# ----------------------------------------------------------------------
# End-to-end through the process backend
# ----------------------------------------------------------------------
def _no_pool(monkeypatch):
    """Run the process backend pickle-only, as on a host without
    ``/dev/shm`` (``create_pool`` returns ``None`` there)."""
    monkeypatch.setattr(shm, "create_pool", lambda ctx, nranks: None)


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
    def test_bulk_traffic_travels_via_shm(self, monkeypatch):
        monkeypatch.setattr(shm, "MIN_BYTES", 0)
        # One child per rank, so every message crosses a process
        # boundary: the slot count below assumes no rank-group routing.
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        registry = obs.enable(Registry())
        try:
            results = World(3, backend="process").run(_bulk_main, timeout=60.0)
        finally:
            obs.disable()
        assert results == World(3, backend="thread").run(_bulk_main, 60.0)
        # Sends, gathers, broadcasts, and puts all moved through slots.
        assert registry.counters["runtime.shm.slot_msgs"] >= 9
        assert "runtime.shm.leaked_slots" not in registry.counters

    def test_traffic_ledger_matches_pickle_transport(self, monkeypatch):
        ledgers = {}
        for transport in ("shm", "pickle"):
            if transport == "pickle":
                _no_pool(monkeypatch)
            world = World(3, backend="process")
            world.run(_bulk_main, timeout=60.0)
            ledgers[transport] = world.stats.snapshot()
        for key in ("total_sent_bytes", "total_messages", "total_collectives"):
            assert ledgers["pickle"][key] == ledgers["shm"][key]

    def test_abort_while_slot_held_reclaims(self, monkeypatch):
        """A receiver that exits with envelopes undelivered leaks nothing."""
        monkeypatch.setattr(shm, "MIN_BYTES", 0)
        before = _shm_names()

        def main(comm):
            if comm.rank == 0:
                comm.send(1, 3, np.arange(4000, dtype=np.float64))
            comm.barrier()
            return None  # rank 1 never receives: the slot stays held

        registry = obs.enable(Registry())
        try:
            # The orphaned send is the point: the sanitizer would call it
            # an unmatched send.
            world = World(2, backend="process", sanitize=False)
            world.run(main, timeout=60.0)
        finally:
            obs.disable()
        assert world.pending_messages() == 1
        # The residual sweep released the orphaned slot, so teardown saw a
        # whole ring, and the pool segment itself is gone from /dev/shm.
        assert "runtime.shm.leaked_slots" not in registry.counters
        assert _shm_names() <= before

    def test_pool_disabled_world_still_runs(self, monkeypatch):
        _no_pool(monkeypatch)
        results = World(2, backend="process").run(_bulk_main, timeout=60.0)
        assert results == World(2, backend="thread").run(_bulk_main, 60.0)
