"""Content-addressed result cache: one published directory per spec key.

Layout under a service root::

    cache/<sha256-key>/         published, immutable result entries
        MANIFEST.json           per-file sha256 + sizes, written last
        result.json             deterministic run summary
        vacancies_after_*.npy   deterministic damage states
        trajectory/             chunked store (when the spec asks)
        checkpoint/*.npz        final checkpoints (not bit-deterministic:
                                npz embeds zip timestamps)
        run.json                execution metadata (recoveries, traffic)
    tmp/<key>.<rand>/           staging dirs of in-flight executions

Publish protocol (the atomicity invariant the service tests assert):
the worker stages every artifact into a fresh ``tmp/`` directory,
:meth:`ResultCache.publish` writes the manifest *last*, fsyncs every
staged file, and renames the whole directory onto ``cache/<key>`` in
one ``rename(2)``.  A reader that can see ``MANIFEST.json`` therefore
sees every artifact it describes, complete and durable; a crash at any
earlier instant leaves only an orphaned staging directory that the next
executing :func:`~repro.service.worker.run_service` call sweeps away.
If two executions of one key race (two calls on one root), the first
rename wins and the loser discards its staging — "exactly one published
entry per key" holds without locks.

The manifest separates ``deterministic`` artifacts (bit-identical
across re-executions, schemes, backends, and crash recoveries — the
cache-hit contract) from best-effort ones (checkpoints, run metadata).
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import tempfile
from pathlib import Path

from repro import observe as obs
from repro.io.atomic import _fsync_dir, atomic_write
from repro.service.spec import SPEC_SCHEMA_VERSION, canonical_json

#: Manifest file name; its presence marks an entry as published.
MANIFEST_NAME = "MANIFEST.json"

CACHE_FORMAT = "repro-service-cache-v1"

#: Artifacts guaranteed bit-identical across re-executions of a spec
#: (everything else in an entry is best-effort metadata).
_DETERMINISTIC = ("result.json", "vacancies_after_md.npy",
                  "vacancies_after_kmc.npy", "trajectory/")


class ServiceError(RuntimeError):
    """A cache request named a key with no published entry."""


def _sha256_file(path: Path) -> tuple[str, int]:
    digest = hashlib.sha256()
    size = 0
    with open(path, "rb") as fh:
        while True:
            block = fh.read(1 << 20)
            if not block:
                break
            digest.update(block)
            size += len(block)
    return digest.hexdigest(), size


def _fsync_tree(root: Path) -> None:
    """Fsync every file and directory under ``root`` (and root itself)."""
    for dirpath, _dirnames, filenames in os.walk(root):
        for name in filenames:
            fd = os.open(os.path.join(dirpath, name), os.O_RDONLY)
            try:
                os.fsync(fd)
            finally:
                os.close(fd)
        _fsync_dir(Path(dirpath))


def is_deterministic(rel_path: str) -> bool:
    """Whether a manifest entry is part of the bit-identity contract."""
    return any(
        rel_path == name or (name.endswith("/") and rel_path.startswith(name))
        for name in _DETERMINISTIC
    )


class ResultCache:
    """The ``cache/`` + ``tmp/`` directories of a service root."""

    def __init__(self, root) -> None:
        self.root = Path(root)
        self.dir = self.root / "cache"
        self.tmp = self.root / "tmp"
        self.dir.mkdir(parents=True, exist_ok=True)
        self.tmp.mkdir(parents=True, exist_ok=True)

    def entry_path(self, key: str) -> Path:
        return self.dir / key

    def lookup(self, key: str) -> Path | None:
        """The published entry for ``key``, or ``None``.

        Only a directory containing a manifest counts: the rename that
        publishes an entry is atomic, so this check never sees a
        half-written result.
        """
        entry = self.entry_path(key)
        if (entry / MANIFEST_NAME).is_file():
            return entry
        return None

    def manifest(self, key: str) -> dict:
        entry = self.lookup(key)
        if entry is None:
            raise ServiceError(f"no cache entry for key {key}")
        return json.loads((entry / MANIFEST_NAME).read_text())

    # ------------------------------------------------------------------
    # Staging and publication
    # ------------------------------------------------------------------
    def open_staging(self, key: str) -> Path:
        """A fresh private directory for one execution's artifacts."""
        return Path(tempfile.mkdtemp(prefix=f"{key[:16]}.", dir=self.tmp))

    def discard(self, staging) -> None:
        """Drop a staging directory (failed or superseded execution)."""
        shutil.rmtree(staging, ignore_errors=True)

    def clean_orphans(self) -> int:
        """Remove leftover staging dirs (crashed executions of past runs).

        Only safe while nothing else executes on this root —
        :func:`~repro.service.worker.run_service` calls it before it
        forks, the documented one-caller-per-root topology.
        """
        removed = 0
        for entry in self.tmp.iterdir():
            shutil.rmtree(entry, ignore_errors=True)
            removed += 1
        if removed:
            obs.add("service.cache.orphans_swept", removed)
        return removed

    def publish(self, key: str, staging):
        """Atomically promote a staged execution to ``cache/<key>``.

        Returns ``(entry_path, fresh)``; ``fresh`` is ``False`` when a
        concurrent execution published first (this staging is then
        discarded — first writer wins, entries are immutable).
        """
        staging = Path(staging)
        artifacts = {}
        for path in sorted(staging.rglob("*")):
            if not path.is_file():
                continue
            rel = path.relative_to(staging).as_posix()
            if rel == MANIFEST_NAME:
                continue
            sha, size = _sha256_file(path)
            artifacts[rel] = {
                "sha256": sha,
                "bytes": size,
                "deterministic": is_deterministic(rel),
            }
        manifest = {
            "format": CACHE_FORMAT,
            "schema": SPEC_SCHEMA_VERSION,
            "key": key,
            "artifacts": artifacts,
        }
        with atomic_write(staging / MANIFEST_NAME) as fh:
            fh.write(canonical_json(manifest).encode("ascii"))
        # Durability before visibility: every staged byte reaches disk
        # before the rename can make the entry discoverable.
        _fsync_tree(staging)
        final = self.entry_path(key)
        with obs.phase("service.publish"):
            try:
                os.rename(staging, final)
            except OSError:
                if self.lookup(key) is not None:
                    obs.add("service.cache.race_lost")
                    self.discard(staging)
                    return final, False
                raise
            _fsync_dir(self.dir)
        obs.add("service.cache.published")
        return final, True
