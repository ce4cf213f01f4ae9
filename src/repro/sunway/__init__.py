"""Executable model of the Sunway SW26010 many-core processor (§2.1.2).

No Sunway hardware is available to a reproduction, so this package builds
the machine as an explicit, *executable* model:

* :class:`~repro.sunway.arch.SunwayArch` — the machine description
  (4 core groups x (1 MPE + 64 CPEs), 64 KB CPE local store, DMA between
  main memory and local store, 1.45 GHz) plus the cycle/latency constants
  of the cost model.
* :class:`~repro.sunway.localstore.LocalStore` — a capacity-enforcing
  allocator: a kernel plan that does not fit 64 KB *fails*, exactly like
  the real chip.
* :class:`~repro.sunway.dma.DMAEngine` — counts every get/put and prices
  it with a latency + bandwidth model.
* :class:`~repro.sunway.athread.AthreadPool` — slab partitioning of a
  subdomain over the 64 slave cores.
* :class:`~repro.sunway.kernel.BlockedEAMKernel` — the EAM force kernel
  executed block-by-block under the paper's four optimization variants
  (traditional table / compacted table / + ghost data reuse / + double
  buffer).  The kernel computes *real forces* (verified against the MD
  engine) while the DMA/compute accounting prices each variant — the
  mechanism behind Figure 9.
"""

from repro.sunway.arch import SunwayArch
from repro.sunway.localstore import LocalStore, LocalStoreOverflow
from repro.sunway.dma import DMAEngine, DMAStats
from repro.sunway.athread import AthreadPool, SlabPartition
from repro.sunway.kernel import (
    KernelStrategy,
    BlockedEAMKernel,
    KernelReport,
    STRATEGY_LADDER,
)

__all__ = [
    "AthreadPool",
    "BlockedEAMKernel",
    "DMAEngine",
    "DMAStats",
    "KernelReport",
    "KernelStrategy",
    "LocalStore",
    "LocalStoreOverflow",
    "STRATEGY_LADDER",
    "SlabPartition",
    "SunwayArch",
]
