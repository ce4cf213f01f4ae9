"""Streaming chunked trajectory store: crash-safe, append-only, out-of-core.

A coupled run at paper scale (3.2e10 atoms, 8.6 wall-clock hours) can
never hold its occupancy trajectory in memory, let alone write it as one
monolithic ``.npz`` at the end.  This module is the durable-artifact
substrate ROADMAP's "streaming trajectory store" item calls for:

* **One append-only shard.**  A store is a directory holding one binary
  shard of full-lattice frames, ``shard-00000.bin``.  Frames are
  grouped into fixed-size *chunks*; each chunk starts with a full
  **keyframe** (the raw int8 occupancy) followed by **delta** frames
  (row indices + new codes vs the previous frame), and the whole chunk
  is zlib-compressed (level 6).  Deltas make a quiescent lattice nearly
  free; the periodic keyframe bounds the work of random access.  The
  parallel engine gathers to rank 0, which writes the global frames.
* **Index sidecar.**  The shard carries a JSON sidecar
  (``shard-00000.json``) mapping chunks to byte ranges, frame numbers
  and timestamps, plus the lattice metadata and a CRC32 per chunk.  The
  sidecar is rewritten through :func:`repro.io.atomic.atomic_write`
  *after* the shard bytes are written and fsynced, so after any crash
  the index describes only complete, durable chunks — trailing torn
  bytes in the shard are simply unreferenced and are truncated away on
  the next append.
* **Atomic finalize.**  :func:`finalize_store` (or
  ``TrajectoryWriter.close(final=True)``) marks the sidecar final in
  one atomic replace; readers accept non-final stores, so a crashed
  run's store reopens cleanly at its last durable fence.
* **Out-of-core reading.**  :class:`TrajectoryReader` iterates frames
  or random-accesses them by index or time while holding at most one
  decoded chunk.
* **One frame fence.**  :meth:`TrajectoryWriter.record` is the only
  place that decides whether a frame is written: only when the clock
  advanced past the newest one, which makes recording idempotent under
  resume and replay.  :func:`seed_store` writes a run's t=0 frame.

The sidecar keeps the v1 keys ``rank``, ``sites_length`` and
``compression`` at their single values (0, 0, ``"zlib"``), so a store
is byte-identical to one written before per-rank subset shards and the
zstd/none codecs were removed.  A store using any of those — another
codec, a subset shard, a second shard — is rejected with a
:class:`StoreError` naming the file and the field.

Writes are instrumented as ``io.trajectory.*`` observe phases and
counters, so trajectory I/O is a measured phase exactly like the
paper's output stage.
"""

from __future__ import annotations

import json
import os
import struct
import warnings
import zlib
from bisect import bisect_right
from pathlib import Path

import numpy as np

from repro import observe as obs
from repro.io.atomic import atomic_write_bytes
from repro.lattice.bcc import BCCLattice

#: Format marker stored in the shard index sidecar.
FORMAT = "repro-trajectory-store-v1"

#: Default frames per chunk (each chunk opens with a keyframe).
DEFAULT_CHUNK_FRAMES = 16

_KEYFRAME = b"K"
_DELTA = b"D"

#: The one shard a store holds (``.bin`` data, ``.json`` sidecar).
_SHARD = "shard-00000"

#: Sidecar keys every reader and resuming writer relies on.
_REQUIRED = ("dims", "a", "nsites", "chunk_frames", "nframes", "final")

#: v1 sidecar keys that now have exactly one legal value.
_FIXED = {"rank": 0, "sites_length": 0, "compression": "zlib"}


class StoreError(RuntimeError):
    """A trajectory store is malformed, corrupt, or used inconsistently."""


class TornTailWarning(UserWarning):
    """A shard held torn bytes beyond its last indexed chunk.

    Raised (as a warning, recovery still proceeds) when a reopened
    writer truncates unindexed trailing bytes a crash left behind.  A
    deliberate ``UserWarning`` subclass: the numeric-safety CI leg
    promotes ``RuntimeWarning`` to errors, and recovering from a torn
    tail is legitimate, observable behaviour — not a numeric fault.
    """


# ----------------------------------------------------------------------
# Frame record encoding (inside a chunk, before compression)
# ----------------------------------------------------------------------
def _encode_keyframe(occ: np.ndarray) -> bytes:
    return _KEYFRAME + occ.tobytes()


def _encode_delta(prev: np.ndarray, occ: np.ndarray) -> bytes:
    rows = np.flatnonzero(occ != prev)
    return (
        _DELTA
        + struct.pack("<I", len(rows))
        + rows.astype("<i4").tobytes()
        + occ[rows].tobytes()
    )


def _decode_frames(blob: bytes, nsites: int, nframes: int) -> list[np.ndarray]:
    """Decode one decompressed chunk blob into its occupancy frames."""
    frames: list[np.ndarray] = []
    pos = 0
    prev: np.ndarray | None = None
    for k in range(nframes):
        kind = blob[pos : pos + 1]
        pos += 1
        if kind == _KEYFRAME:
            occ = np.frombuffer(blob, dtype=np.int8, count=nsites, offset=pos)
            pos += nsites
            occ = occ.copy()
        elif kind == _DELTA:
            if prev is None:
                raise StoreError(f"chunk frame {k} is a delta with no keyframe")
            (n,) = struct.unpack_from("<I", blob, pos)
            pos += 4
            rows = np.frombuffer(blob, dtype="<i4", count=n, offset=pos)
            pos += 4 * n
            vals = np.frombuffer(blob, dtype=np.int8, count=n, offset=pos)
            pos += n
            occ = prev.copy()
            occ[rows] = vals
        else:
            raise StoreError(f"bad frame marker {kind!r} in chunk")
        frames.append(occ)
        prev = occ
    if pos != len(blob):
        raise StoreError(
            f"chunk has {len(blob) - pos} trailing bytes after {nframes} frames"
        )
    return frames


class TrajectoryWriter:
    """Incremental, crash-safe writer of a trajectory store.

    Parameters
    ----------
    path:
        Store directory (created if missing).
    lattice:
        The :class:`~repro.lattice.bcc.BCCLattice` the frames cover.
        Required when creating a store; optional (validated) when
        reopening one.
    chunk_frames:
        Frames per chunk; every chunk opens with a keyframe, so this is
        also the worst-case delta chain a random access decodes.
    mode:
        ``"a"`` (default) appends to an existing store — reopening after
        a crash resumes at the last indexed chunk and truncates any torn
        tail bytes.  ``"w"`` starts the store over.

    Memory stays bounded by ``chunk_frames`` encoded records plus one
    previous-frame copy — peak RSS does not grow with frame count.
    """

    def __init__(
        self,
        path,
        lattice: BCCLattice | None = None,
        *,
        chunk_frames: int = DEFAULT_CHUNK_FRAMES,
        mode: str = "a",
    ) -> None:
        if chunk_frames < 1:
            raise ValueError(f"chunk_frames must be >= 1, got {chunk_frames}")
        if mode not in ("a", "w"):
            raise ValueError(f"mode must be 'a' or 'w', got {mode!r}")
        self.path = Path(path)
        if self.path.exists() and not self.path.is_dir():
            raise StoreError(f"{self.path} exists and is not a store directory")
        self._bin_path = self.path / (_SHARD + ".bin")
        self._idx_path = self.path / (_SHARD + ".json")
        self._pending: list[bytes] = []
        self._pending_times: list[float] = []
        self._prev: np.ndarray | None = None
        self._closed = False

        if mode == "a" and self._idx_path.exists():
            self._resume(lattice)
            return
        if lattice is None:
            raise StoreError(
                f"{self.path} holds no shard index sidecar; "
                "creating a store requires a lattice"
            )
        self.path.mkdir(parents=True, exist_ok=True)
        self.lattice = lattice
        self.chunk_frames = int(chunk_frames)
        self.nsites = lattice.nsites
        self._chunks: list[dict] = []
        # Unbuffered: chunk writes are single large write() calls, and an
        # abandoned handle (a crashed rank's writer, reclaimed by GC
        # after the store was rewound by the supervisor) must never
        # flush stale buffered bytes over the resumed writer's data.
        self._fh = open(self._bin_path, "wb", buffering=0)
        self._cut_to_index()
        self._write_index()

    def _resume(self, lattice) -> None:
        meta = _load_index(self.path)
        dims = tuple(int(d) for d in meta["dims"])
        a = float(meta["a"])
        if lattice is not None and (
            (lattice.nx, lattice.ny, lattice.nz) != dims
            or abs(lattice.a - a) > 1e-12
        ):
            raise StoreError(
                f"store at {self.path} covers lattice {dims}, "
                f"writer given ({lattice.nx}, {lattice.ny}, {lattice.nz})"
            )
        self.lattice = BCCLattice(*dims, a=a)
        self.chunk_frames = int(meta["chunk_frames"])
        self.nsites = int(meta["nsites"])
        self._chunks = list(meta["chunks"])
        size = os.path.getsize(self._bin_path)
        self._fh = open(self._bin_path, "r+b", buffering=0)
        self._cut_to_index()
        # A torn tail a crash left beyond the last indexed chunk is
        # dropped — but never silently: recovered-from corruption must
        # be observable, as a caught exception must be.  A reopened
        # writer starts a fresh chunk (keyframe), so it never needs to
        # decode the previous frame to continue.
        if size > self._data_end:
            obs.add("io.trajectory.torn_tail")
            warnings.warn(
                f"trajectory shard {self._bin_path.name} in {self.path}: "
                f"dropping {size - self._data_end} unindexed tail byte(s) "
                "left by an interrupted append",
                TornTailWarning,
                stacklevel=3,
            )

    def _cut_to_index(self) -> None:
        """Truncate the shard to its last indexed chunk and continue there."""
        last = self._chunks[-1] if self._chunks else None
        self._nframes = 0 if last is None else int(last["frame0"] + last["nframes"])
        self._last_time = None if last is None else float(last["times"][-1])
        end = 0 if last is None else int(last["offset"]) + int(last["length"])
        self._fh.truncate(end)
        self._fh.seek(end)
        self._data_end = end

    # -- properties -----------------------------------------------------
    @property
    def nframes(self) -> int:
        """Frames appended so far (committed + buffered)."""
        return self._nframes + len(self._pending)

    @property
    def last_time(self) -> float | None:
        """Timestamp of the newest frame (``None`` when empty)."""
        if self._pending_times:
            return self._pending_times[-1]
        return self._last_time

    # -- writing --------------------------------------------------------
    def append(self, time: float, occupancy: np.ndarray) -> None:
        """Buffer one frame; a full chunk is flushed to disk durably.

        ``occupancy`` covers the full lattice.  Times must be
        non-decreasing.
        """
        if self._closed:
            raise StoreError("writer is closed")
        occ = np.asarray(occupancy, dtype=np.int8)
        if len(occ) != self.nsites:
            raise ValueError(
                f"frame has {len(occ)} sites, store covers {self.nsites}"
            )
        time = float(time)
        last = self.last_time
        if last is not None and time < last:
            raise ValueError(f"time must be non-decreasing: {time} < {last}")
        self._buffer(time, occ)
        obs.add("io.trajectory.frames")
        if len(self._pending) >= self.chunk_frames:
            self._commit_chunk()

    def record(self, time: float, occupancy: np.ndarray) -> None:
        """Append a frame only when the clock advanced past the newest one.

        The frame fence both AKMC engines record through.  BKL time
        increments are strictly positive, so a frame at a non-advancing
        clock is a resume or replay re-record of one already in the
        store — skipping it keeps recording idempotent.
        """
        last = self.last_time
        if last is None or time > last:
            with obs.phase("io.trajectory.append"):
                self.append(time, occupancy)

    def _buffer(self, time: float, occ: np.ndarray) -> None:
        """Encode one frame into the pending chunk (keyframe first)."""
        if not self._pending:
            rec = _encode_keyframe(occ)
        else:
            rec = _encode_delta(self._prev, occ)
        self._prev = occ.copy()
        self._pending.append(rec)
        self._pending_times.append(time)

    def _commit_chunk(self) -> None:
        """Compress the buffered frames, append them, publish the index."""
        if not self._pending:
            return
        with obs.phase("io.trajectory.write_chunk"):
            blob = b"".join(self._pending)
            comp = zlib.compress(blob, 6)
            self._fh.seek(self._data_end)
            self._fh.write(comp)
            self._fh.flush()
            os.fsync(self._fh.fileno())
            self._chunks.append(
                {
                    "offset": self._data_end,
                    "length": len(comp),
                    "raw_length": len(blob),
                    "frame0": self._nframes,
                    "nframes": len(self._pending),
                    "times": list(self._pending_times),
                    "crc": zlib.crc32(comp),
                }
            )
            self._data_end += len(comp)
            self._nframes += len(self._pending)
            self._last_time = self._pending_times[-1]
            self._pending = []
            self._pending_times = []
            obs.add("io.trajectory.chunks")
            obs.add("io.trajectory.bytes_written", len(comp))
            self._write_index()

    def _write_index(self, final: bool = False) -> None:
        meta = {
            "format": FORMAT,
            "dims": [self.lattice.nx, self.lattice.ny, self.lattice.nz],
            "a": self.lattice.a,
            "rank": _FIXED["rank"],
            "nsites": self.nsites,
            "sites_length": _FIXED["sites_length"],
            "compression": _FIXED["compression"],
            "chunk_frames": self.chunk_frames,
            "nframes": self._nframes,
            "final": bool(final),
            "chunks": self._chunks,
        }
        with obs.phase("io.trajectory.write_index"):
            atomic_write_bytes(self._idx_path, json.dumps(meta).encode("utf-8"))

    def flush(self) -> None:
        """Force the partial chunk (if any) out to durable storage."""
        self._commit_chunk()

    def rewind(self, time: float) -> None:
        """Drop every frame newer than ``time`` (strictly greater).

        The recovery path: after restoring a checkpoint at clock ``t``,
        frames the crashed attempt wrote beyond ``t`` are discarded so
        the resumed attempt re-records them bit-identically.  The cut
        may fall mid-chunk; the kept prefix of that chunk is re-buffered
        and re-committed on the next flush.
        """
        if self._closed:
            raise StoreError("writer is closed")
        # Decode the buffered tail first: records are a keyframe + delta
        # chain, so trimming it requires the actual frames to rebuild
        # the chain (and ``_prev``) from the kept prefix.
        times: list[float] = []
        frames: list[np.ndarray] = []
        if self._pending:
            times = self._pending_times
            frames = _decode_frames(
                b"".join(self._pending), self.nsites, len(self._pending)
            )
        keep = len(self._chunks)
        while keep and self._chunks[keep - 1]["times"][0] > time:
            keep -= 1
        if keep < len(self._chunks):
            # Committed chunks are being dropped, so every pending frame
            # (recorded after them) is also beyond the cut.
            times, frames = [], []
        if keep and self._chunks[keep - 1]["times"][-1] > time:
            # The cut lands inside chunk ``keep - 1``: decode it and
            # re-buffer the frame prefix at or before the cut.
            keep -= 1
            times = self._chunks[keep]["times"]
            frames = _read_chunk(self._bin_path, self._chunks[keep], self.nsites)
        self._chunks = self._chunks[:keep]
        self._cut_to_index()
        self._pending = []
        self._pending_times = []
        for t, f in zip(times, frames, strict=True):
            if t > time:
                break
            self._buffer(float(t), f)
        self._write_index()

    def close(self, final: bool = False) -> None:
        """Flush and close; ``final=True`` marks the store finalized."""
        if self._closed:
            return
        self._commit_chunk()
        self._write_index(final=final)
        self._fh.close()
        self._closed = True

    def finalize(self) -> None:
        """Flush, mark final, close — the atomic end-of-run commit."""
        self.close(final=True)

    def __enter__(self) -> "TrajectoryWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        # A clean exit finalizes; an exception leaves the store
        # resumable (indexed chunks only) without marking it final.
        if exc_type is None:
            self.finalize()
        else:
            self.close(final=False)


# ----------------------------------------------------------------------
# Reading
# ----------------------------------------------------------------------
def _load_index(store: Path) -> dict:
    """Read and validate a store's sidecar at the boundary."""
    idx_path = store / (_SHARD + ".json")
    for other in sorted(store.glob("shard-*.json")):
        if other.name != idx_path.name:
            raise StoreError(
                f"{other}: second shard; a store holds one full-lattice "
                f"shard, {idx_path.name}"
            )
    try:
        meta = json.loads(idx_path.read_text())
    except FileNotFoundError as exc:
        raise StoreError(f"{store} holds no shard index sidecar") from exc
    except (OSError, ValueError) as exc:
        raise StoreError(f"cannot read shard index {idx_path}: {exc}") from exc
    if not isinstance(meta, dict) or meta.get("format") != FORMAT:
        raise StoreError(f"{idx_path} is not a {FORMAT} sidecar")
    for key in _REQUIRED:
        if key not in meta:
            raise StoreError(f"{idx_path}: missing key {key!r}")
    if not isinstance(meta.get("chunks"), list):
        raise StoreError(f"{idx_path}: key 'chunks' must be a list")
    for key, want in _FIXED.items():
        if meta.get(key) != want:
            raise StoreError(
                f"{idx_path}: {key}={meta.get(key)!r}; this store format "
                f"holds only {key}={want!r}"
            )
    return meta


def _read_chunk(bin_path, chunk: dict, nsites: int) -> list[np.ndarray]:
    """Read, verify, decompress and decode one chunk from the shard."""
    with obs.phase("io.trajectory.read_chunk"):
        with open(bin_path, "rb") as fh:
            fh.seek(int(chunk["offset"]))
            comp = fh.read(int(chunk["length"]))
        if len(comp) != int(chunk["length"]):
            raise StoreError(
                f"{bin_path}: chunk at offset {chunk['offset']} truncated"
            )
        if zlib.crc32(comp) != int(chunk["crc"]):
            raise StoreError(
                f"{bin_path}: chunk at offset {chunk['offset']} fails CRC"
            )
        obs.add("io.trajectory.chunks_read")
        obs.add("io.trajectory.bytes_read", len(comp))
        return _decode_frames(
            zlib.decompress(comp), nsites, int(chunk["nframes"])
        )


class TrajectoryReader:
    """Out-of-core reader over a trajectory store.

    Holds at most one decoded chunk; frames are materialized on demand,
    so iterating a 10^6-frame store costs chunk-sized memory, not
    trajectory-sized.
    """

    def __init__(self, path) -> None:
        self.path = Path(path)
        if not self.path.is_dir():
            raise StoreError(f"{self.path} is not a trajectory store directory")
        meta = _load_index(self.path)
        self.lattice = BCCLattice(
            *(int(d) for d in meta["dims"]), a=float(meta["a"])
        )
        self.nsites = int(meta["nsites"])
        self.nframes = int(meta["nframes"])
        self.final = bool(meta["final"])
        self._bin_path = self.path / (_SHARD + ".bin")
        self._chunks = meta["chunks"]
        self._frame0s = [int(c["frame0"]) for c in self._chunks]
        self.times = np.array(
            [t for c in self._chunks for t in c["times"]], dtype=float
        )
        self._cache_idx: int | None = None
        self._cache_frames: list[np.ndarray] | None = None

    def __len__(self) -> int:
        return self.nframes

    def _resolve(self, frame: int) -> int:
        return int(range(self.nframes)[frame])

    def frame(self, frame: int) -> np.ndarray:
        """One global occupancy frame (negative indices OK)."""
        i = self._resolve(frame)
        obs.add("io.trajectory.frames_read")
        ci = bisect_right(self._frame0s, i) - 1
        if ci != self._cache_idx:
            self._cache_frames = _read_chunk(
                self._bin_path, self._chunks[ci], self.nsites
            )
            self._cache_idx = ci
        return self._cache_frames[i - self._frame0s[ci]].copy()

    def time_of(self, frame: int) -> float:
        """Timestamp of one frame."""
        return float(self.times[self._resolve(frame)])

    def frame_index_at(self, time: float) -> int:
        """Index of the newest frame with timestamp <= ``time``."""
        if self.nframes == 0 or time < self.times[0]:
            raise ValueError(f"no frame at or before t={time}")
        return int(np.searchsorted(self.times, time, side="right") - 1)

    def vacancy_ranks(self, frame: int) -> np.ndarray:
        """Vacancy site ranks of one frame (code 0 = vacancy)."""
        return np.flatnonzero(self.frame(frame) == 0)

    def iter_frames(self, start: int = 0, stop: int | None = None):
        """Yield ``(time, occupancy)`` without loading the frame stack."""
        stop = self.nframes if stop is None else min(stop, self.nframes)
        for i in range(start, stop):
            yield float(self.times[i]), self.frame(i)

    def __iter__(self):
        return self.iter_frames()


# ----------------------------------------------------------------------
# Store-level helpers (the supervisor's and driver's entry points)
# ----------------------------------------------------------------------
def is_store(path) -> bool:
    """True when ``path`` is a trajectory store directory."""
    return (Path(path) / (_SHARD + ".json")).is_file()


def seed_store(path, lattice: BCCLattice, occupancy: np.ndarray) -> None:
    """Start a store over with the t=0 frame; engines append after it."""
    writer = TrajectoryWriter(path, lattice, mode="w")
    try:
        writer.append(0.0, occupancy)
    finally:
        writer.close(final=False)


def rewind_store(path, time: float) -> None:
    """Drop frames newer than ``time`` from a store (recovery path)."""
    writer = TrajectoryWriter(path)
    try:
        writer.rewind(time)
        writer.flush()
    finally:
        writer.close(final=False)


def finalize_store(path) -> None:
    """Atomically mark a store final (end-of-run commit)."""
    TrajectoryWriter(path).finalize()
