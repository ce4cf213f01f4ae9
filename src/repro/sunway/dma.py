"""DMA engine: operation accounting + cost model.

Every transfer between main memory and a CPE local store goes through
here.  The counters are the ground truth behind the Figure 9 comparison:
the traditional-table variant's "3 DMA gets per neighbor atom per time
step" show up as measured operation counts, and the compacted variant's
win is the measured disappearance of those operations.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro import observe as obs
from repro.sunway.arch import SunwayArch


@dataclass
class DMAStats:
    """Accumulated DMA counters of one kernel execution."""

    gets: int = 0
    puts: int = 0
    get_bytes: int = 0
    put_bytes: int = 0
    time: float = 0.0

    @property
    def operations(self) -> int:
        return self.gets + self.puts

    @property
    def total_bytes(self) -> int:
        return self.get_bytes + self.put_bytes


@dataclass
class DMAEngine:
    """Prices and records get/put operations for one CPE."""

    arch: SunwayArch = field(default_factory=SunwayArch)

    def __post_init__(self) -> None:
        self.stats = DMAStats()

    def get(self, nbytes: int, count: int = 1) -> float:
        """Record ``count`` DMA gets of ``nbytes`` each; returns the cost."""
        if count < 0 or nbytes < 0:
            raise ValueError("count and nbytes must be non-negative")
        t = count * self.arch.dma_time(nbytes)
        self.stats.gets += count
        self.stats.get_bytes += count * nbytes
        self.stats.time += t
        if obs.enabled():
            obs.add("sunway.dma.gets", count)
            obs.add("sunway.dma.get_bytes", count * nbytes)
            obs.add("sunway.dma.time_modeled_s", t)
        return t

    def put(self, nbytes: int, count: int = 1) -> float:
        """Record ``count`` DMA puts of ``nbytes`` each; returns the cost."""
        if count < 0 or nbytes < 0:
            raise ValueError("count and nbytes must be non-negative")
        t = count * self.arch.dma_time(nbytes)
        self.stats.puts += count
        self.stats.put_bytes += count * nbytes
        self.stats.time += t
        if obs.enabled():
            obs.add("sunway.dma.puts", count)
            obs.add("sunway.dma.put_bytes", count * nbytes)
            obs.add("sunway.dma.time_modeled_s", t)
        return t
