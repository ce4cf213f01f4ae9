"""Atomic, durable file replacement — the one write path every
checkpoint, dump, and index sidecar goes through.

The contract (DESIGN §"Trajectory store & checkpoint atomicity"):

* the payload lands in a *uniquely named* sibling temp file first, so
  two concurrent writers targeting the same path (a recovery supervisor
  re-running next to a straggling first attempt, job-layer workers
  sharing a checkpoint directory) can never scribble over each other's
  half-written bytes;
* the temp file is flushed **and fsynced** before ``os.replace``, so a
  power loss after the rename can never leave a truncated file where a
  good one used to be — the rename is only allowed to publish durable
  bytes;
* the rename itself is atomic (POSIX guarantees it within a
  filesystem), so readers observe either the old complete file or the
  new complete file, never a mixture;
* on any failure the temp file is removed and the original is left
  untouched.

Directory durability: after a successful replace the containing
directory is fsynced too (best-effort, POSIX only), so the rename
itself survives a crash.
"""

from __future__ import annotations

import os
import tempfile
from contextlib import contextmanager
from pathlib import Path


def _fsync_dir(path: Path) -> None:
    """Best-effort fsync of a directory (no-op where unsupported)."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:
        # Platforms (or filesystems) that cannot open directories simply
        # skip directory durability; the file itself is already synced.
        return
    try:
        os.fsync(fd)
    except OSError:
        return
    finally:
        os.close(fd)


@contextmanager
def atomic_write(path):
    """Context manager yielding a binary file object; commit on success.

    Usage::

        with atomic_write(path) as fh:
            fh.write(payload)

    The bytes become visible at ``path`` only if the block exits
    cleanly; an exception (including a fault-injected crash mid-write)
    removes the temp file and leaves any previous ``path`` intact.
    The temp file is always fsynced before the rename, and the
    directory after it.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(
        prefix=path.name + ".", suffix=".tmp", dir=path.parent
    )
    tmp = Path(tmp_name)
    try:
        with os.fdopen(fd, "wb") as fh:
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            # Already gone (or undeletable): the original error below is
            # the one that matters.
            pass
        raise
    _fsync_dir(path.parent)


def atomic_write_bytes(path, payload: bytes) -> None:
    """Atomically replace ``path`` with ``payload`` (see :func:`atomic_write`)."""
    with atomic_write(path) as fh:
        fh.write(payload)
