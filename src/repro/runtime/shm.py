"""Zero-copy shared-memory transport for the process backend.

The process backend's queues pickle every payload through a socket pair:
for the bulk numpy arrays that dominate real traffic (ghost rows,
density exchanges, occupancy gathers, checkpoints) that is two full
copies plus serialization on the critical path.  This module gives
:mod:`repro.runtime.procbackend` the paper's packed-buffer alternative:
a per-world pool of ``multiprocessing.shared_memory`` ring slots through
which array payloads travel as raw bytes, while the existing queues
carry only tiny pickled *headers* — ``(slot, offset, dtype, shape)`` —
exactly how the Sunway implementation packs halo payloads into
pre-registered exchange buffers and sends descriptors.

Mechanics
---------
* The parent creates one :class:`ShmPool` before forking; children
  inherit the mapping, the slot refcount array, and its lock.
* ``encode`` walks a payload (tuples/lists/dicts of arrays) and moves
  each eligible array into a free slot, replacing it with a
  :class:`SlotRef`.  A payload that doesn't fit a slot goes through a
  one-shot ``SharedMemory`` segment (:class:`SegRef`); if the pool is
  exhausted or shared memory is unavailable the array simply stays
  inline — the queue pickles it as before, so the pool can never
  deadlock a world, only speed it up.
* ``decode`` copies the bytes back out into a fresh C-contiguous array
  (the same layout ``freeze``'s defensive ``copy()`` produces on the
  thread backend — bit-identity is preserved) and releases the slot
  immediately; reclamation is deterministic, not GC-driven.
* Slots are refcounted: a broadcast encoded once with ``nrefs=nranks``
  is decoded by every rank, and the last decode frees the slot.  The
  parent's residual sweep calls ``release_refs`` on undelivered
  envelopes (abort-while-slot-held), and ``destroy`` unlinks the whole
  segment in a ``finally`` so no run can leak ``/dev/shm`` space.

The pool is always on where shared memory exists; a host without
``/dev/shm`` gets no pool and runs the pickle-only transport every
payload can always fall back to.  The ring geometry is fixed
(:data:`SLOTS`, :data:`SLOT_BYTES`, :data:`MIN_BYTES`); no ledger row
moves with it.
"""

from __future__ import annotations

from dataclasses import dataclass
from multiprocessing import shared_memory

import numpy as np

from repro import observe as obs

__all__ = [
    "SlotRef",
    "SegRef",
    "ShmPool",
    "create_pool",
]

#: Ring slots ``(per rank, base)``: a world of R ranks gets
#: ``SLOTS[0] * R + SLOTS[1]``.  Each rank typically has a handful of
#: in-flight envelopes (halo sends to face neighbours plus one
#: collective contribution); bursts overflow to one-shot segments.
SLOTS = (4, 8)
#: Bytes per ring slot; larger arrays always use one-shot segments.
SLOT_BYTES = 1 << 20
#: Arrays smaller than this stay inline (header + memcpy overhead beats
#: pickle only past ~1 KiB).  The parity tests patch it to 0 to force
#: everything through shared memory.
MIN_BYTES = 1024


@dataclass(slots=True)
class SlotRef:
    """Header of an array parked in a pool slot."""

    slot: int
    offset: int
    shape: tuple
    dtype: np.dtype
    nbytes: int


@dataclass(slots=True)
class SegRef:
    """Header of an array in a one-shot shared-memory segment."""

    name: str
    shape: tuple
    dtype: np.dtype
    nbytes: int


def _map_leaves(obj, leaf_types, fn):
    """Rebuild a payload of tuples/lists/dicts with ``fn`` applied to
    every ``leaf_types`` instance; everything else passes through."""
    if isinstance(obj, leaf_types):
        return fn(obj)
    if isinstance(obj, tuple):
        return tuple(_map_leaves(x, leaf_types, fn) for x in obj)
    if isinstance(obj, list):
        return [_map_leaves(x, leaf_types, fn) for x in obj]
    if isinstance(obj, dict):
        return {k: _map_leaves(v, leaf_types, fn) for k, v in obj.items()}
    return obj


class ShmPool:
    """Fixed ring of shared-memory slots with refcounted reclamation.

    Created in the parent before forking; every child inherits the
    mapping, the shared refcount array, and the lock, so ``acquire`` /
    ``release`` coordinate across the whole world.
    """

    def __init__(
        self, ctx, nslots: int, slot_bytes: int, min_bytes: int = 1024
    ) -> None:
        if nslots <= 0 or slot_bytes <= 0:
            raise ValueError(
                f"pool geometry must be positive, got {nslots} x {slot_bytes}"
            )
        self.nslots = int(nslots)
        self.slot_bytes = int(slot_bytes)
        self.min_bytes = int(min_bytes)
        # Resource-tracker note: the parent creates this segment before
        # forking, so every child inherits the same tracker process and
        # whichever process calls ``unlink`` (parent teardown, a one-shot
        # consumer) unregisters it there — no manual bookkeeping needed.
        self._shm = shared_memory.SharedMemory(
            create=True, size=self.nslots * self.slot_bytes
        )
        #: Per-slot consumer refcounts; 0 = free.  lock=False because the
        #: explicit pool lock below guards every access.
        self._refs = ctx.Array("q", self.nslots, lock=False)
        self._lock = ctx.Lock()
        self._destroyed = False

    # ------------------------------------------------------------------
    # Slot lifecycle
    # ------------------------------------------------------------------
    #: The critical sections below are microseconds long, so a lock wait
    #: this long means the holder was terminated mid-section.  Giving up
    #: (fall back to pickle / leave the slot pinned) is always safe: the
    #: parent's ``destroy`` unlinks the whole segment regardless.
    _LOCK_TIMEOUT = 2.0

    def _locked(self) -> bool:
        if self._lock.acquire(timeout=self._LOCK_TIMEOUT):
            return True
        obs.add("runtime.shm.lock_timeout")  # pragma: no cover - dead holder
        return False  # pragma: no cover

    def acquire(self, nbytes: int, nrefs: int = 1) -> int | None:
        """A free slot able to hold ``nbytes``, pinned for ``nrefs``
        consumers; ``None`` if the payload is oversized or the ring is
        momentarily full (callers fall back, never block)."""
        if nbytes > self.slot_bytes:
            return None
        if not self._locked():
            return None  # pragma: no cover - dead holder
        try:
            for s in range(self.nslots):
                if self._refs[s] == 0:
                    self._refs[s] = nrefs
                    return s
        finally:
            self._lock.release()
        obs.add("runtime.shm.pool_exhausted")
        return None

    def release(self, slot: int) -> None:
        """Drop one consumer reference; the last one frees the slot."""
        if not self._locked():
            return  # pragma: no cover - dead holder; destroy() reclaims
        try:
            if self._refs[slot] > 0:
                self._refs[slot] -= 1
        finally:
            self._lock.release()

    def free_slots(self) -> int:
        """Currently free slots (diagnostics and tests)."""
        if not self._locked():
            return 0  # pragma: no cover - dead holder
        try:
            return sum(1 for s in range(self.nslots) if self._refs[s] == 0)
        finally:
            self._lock.release()

    # ------------------------------------------------------------------
    # Raw array moves
    # ------------------------------------------------------------------
    def _write(self, slot: int, arr: np.ndarray) -> None:
        dest = np.ndarray(
            arr.shape,
            arr.dtype,
            buffer=self._shm.buf,
            offset=slot * self.slot_bytes,
        )
        np.copyto(dest, arr, casting="no")
        del dest

    def _read(self, ref: SlotRef) -> np.ndarray:
        src = np.ndarray(
            ref.shape, ref.dtype, buffer=self._shm.buf, offset=ref.offset
        )
        out = src.copy()  # C-order, matching freeze's defensive copy
        del src
        return out

    # ------------------------------------------------------------------
    # Payload walkers
    # ------------------------------------------------------------------
    def _eligible(self, arr: np.ndarray) -> bool:
        return (
            not arr.dtype.hasobject
            and arr.nbytes >= max(1, self.min_bytes)
        )

    def _encode_array(self, arr: np.ndarray, nrefs: int):
        nbytes = arr.nbytes
        slot = self.acquire(nbytes, nrefs)
        if slot is not None:
            self._write(slot, arr)
            obs.add("runtime.shm.slot_msgs")
            obs.add("runtime.shm.bytes", nbytes)
            return SlotRef(
                slot, slot * self.slot_bytes, arr.shape, arr.dtype, nbytes
            )
        if nbytes <= self.slot_bytes:
            # Ring momentarily full: stay inline (queue pickles it) —
            # cheaper than churning one-shot segments under pressure.
            return None
        if nrefs != 1:
            # Oversized broadcast: one-shot segments have exactly one
            # unlinking consumer, so multi-consumer overflow stays on
            # the pickle path rather than invent shared teardown.
            return None
        try:
            seg = shared_memory.SharedMemory(create=True, size=max(1, nbytes))
        except OSError:  # pragma: no cover - /dev/shm exhausted
            return None
        dest = np.ndarray(arr.shape, arr.dtype, buffer=seg.buf)
        np.copyto(dest, arr, casting="no")
        del dest
        name = seg.name
        seg.close()
        obs.add("runtime.shm.oneshot_msgs")
        obs.add("runtime.shm.bytes", nbytes)
        return SegRef(name, arr.shape, arr.dtype, nbytes)

    def encode(self, obj, nrefs: int = 1):
        """Payload with eligible arrays replaced by shm references.

        Containers are rebuilt (the originals are already defensive
        ``freeze`` copies); anything ineligible — small arrays, object
        dtypes, non-array values — passes through untouched and rides
        the queue's pickle as before.
        """

        def park(arr: np.ndarray):
            ref = self._encode_array(arr, nrefs) if self._eligible(arr) else None
            return arr if ref is None else ref

        return _map_leaves(obj, np.ndarray, park)

    def decode(self, obj):
        """Payload with shm references materialized as fresh arrays.

        Every reference is released/unlinked as soon as it is copied
        out — reclamation is deterministic and local to the consumer.
        """
        return _map_leaves(obj, (SlotRef, SegRef), self._decode_ref)

    def _decode_ref(self, ref) -> np.ndarray:
        if isinstance(ref, SlotRef):
            out = self._read(ref)
            self.release(ref.slot)
            return out
        seg = shared_memory.SharedMemory(name=ref.name)
        src = np.ndarray(ref.shape, ref.dtype, buffer=seg.buf)
        out = src.copy()
        del src
        seg.close()
        try:
            seg.unlink()
        except FileNotFoundError:  # pragma: no cover - double unlink
            pass
        return out

    def release_refs(self, obj) -> None:
        """Release references in a payload without copying the data.

        The parent's residual sweep applies this to every undelivered
        envelope (a receiver aborted while slots were held), so the ring
        is whole again before the pool reports leak-free teardown.
        """
        _map_leaves(obj, (SlotRef, SegRef), self._release_ref)

    def _release_ref(self, ref) -> None:
        if isinstance(ref, SlotRef):
            self.release(ref.slot)
            return
        try:
            seg = shared_memory.SharedMemory(name=ref.name)
        except FileNotFoundError:
            return
        seg.close()
        try:
            seg.unlink()
        except FileNotFoundError:  # pragma: no cover - race with consumer
            pass

    # ------------------------------------------------------------------
    # Teardown
    # ------------------------------------------------------------------
    def leaked_slots(self) -> int:
        """Slots still pinned (should be 0 after a clean run + sweep)."""
        return self.nslots - self.free_slots()

    def destroy(self) -> None:
        """Unmap and unlink the ring segment (parent-side, idempotent)."""
        if self._destroyed:
            return
        self._destroyed = True
        try:
            self._shm.close()
        except (BufferError, OSError):  # pragma: no cover - exported views
            pass
        try:
            self._shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already gone
            pass


def create_pool(ctx, nranks: int):
    """A world-sized :class:`ShmPool`, or ``None`` without shared memory."""
    per_rank, base = SLOTS
    try:
        return ShmPool(
            ctx, per_rank * nranks + base, SLOT_BYTES, min_bytes=MIN_BYTES
        )
    except (OSError, ValueError):  # pragma: no cover - no /dev/shm
        obs.add("runtime.shm.unavailable")
        return None
