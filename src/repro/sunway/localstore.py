"""Capacity-enforcing local-store allocator.

Each CPE has 64 KB of user-controlled scratchpad ("Each slave core has
64 KB local store, which can be configured as either a user-controlled
buffer or a software-emulated cache ... we use it as a user-controlled
buffer").  Kernel planning allocates named buffers here; exceeding the
capacity raises :class:`LocalStoreOverflow`, which is what forces the
paper's design decisions (compacted tables, block processing, residency
policies) — and our tests assert those decisions are actually forced.
"""

from __future__ import annotations


class LocalStoreOverflow(MemoryError):
    """An allocation exceeded the CPE local store capacity."""


class LocalStore:
    """A named-buffer allocator over a fixed byte budget."""

    def __init__(self, capacity_bytes: int = 64 * 1024) -> None:
        if capacity_bytes <= 0:
            raise ValueError(f"capacity must be positive, got {capacity_bytes}")
        self.capacity = int(capacity_bytes)
        self.buffers: dict[str, int] = {}

    @property
    def used(self) -> int:
        return sum(self.buffers.values())

    @property
    def free(self) -> int:
        return self.capacity - self.used

    def alloc(self, name: str, nbytes: int) -> None:
        """Reserve ``nbytes`` under ``name``; raises on overflow."""
        if nbytes < 0:
            raise ValueError(f"nbytes must be non-negative, got {nbytes}")
        if name in self.buffers:
            raise ValueError(f"buffer {name!r} already allocated")
        if nbytes > self.free:
            raise LocalStoreOverflow(
                f"allocating {name!r} ({nbytes} B) exceeds local store: "
                f"{self.used}/{self.capacity} B used"
            )
        self.buffers[name] = int(nbytes)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"LocalStore(used={self.used}/{self.capacity}, buffers={self.buffers})"
