"""Sunway SW26010 machine description and cost-model constants.

Figures from the paper's §2.1.2/§3 and the TaihuLight system paper [6]:
four core groups per processor, each with one management processing
element (MPE, "master core"), an 8x8 mesh of computing processing
elements (CPEs, "slave cores"), and 8 GB DDR3 per CG; all cores at
1.45 GHz; 64 KB user-controlled local store per CPE; 32 KB L1 + 256 KB
L2 on the MPE.

The cycle and DMA constants below are the calibration points of the cost
model, fitted so Figure 9 lands in the paper's band; the two
table-arithmetic cycle counts are quoted net of the CPE's vector units.
They are not vendor numbers — the reproduction matches *ratios
and shapes*, not absolute Sunway performance — and every experiment that
depends on them says so in EXPERIMENTS.md.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class SunwayArch:
    """Machine and cost-model constants of one SW26010 processor."""

    #: Core clock (MPE and CPE) in Hz.
    clock_hz: float = 1.45e9
    #: Core groups per processor.
    core_groups: int = 4
    #: Slave cores (CPEs) per core group.
    cpes_per_cg: int = 64
    #: CPE local store capacity in bytes.
    local_store_bytes: int = 64 * 1024
    #: Main memory per core group in bytes (8 GB DDR3).
    memory_per_cg: int = 8 * 1024**3
    #: MPE L2 cache in bytes.
    mpe_l2_bytes: int = 256 * 1024
    #: DMA startup latency per operation, in seconds.
    dma_latency_s: float = 2.0e-8
    #: DMA sustained bandwidth, bytes/second (per CPE).
    dma_bandwidth: float = 2.5e9
    #: CPE cycles to evaluate one tabulated cubic segment (gather
    #: coefficients + Horner), net of the 256-bit vector units (4
    #: doubles x fused multiply-add, a factor of 2 on this arithmetic).
    #: Vectorizing speeds the tabulated arithmetic, NOT the DMA
    #: latencies — which is precisely why a vectorized CPE kernel ends
    #: up transfer-bound and the paper finds "not enough computation to
    #: overlap the data transfer".
    eval_cycles: float = 20.0
    #: Extra CPE cycles to reconstruct a segment's coefficients on the fly
    #: from the compacted table (the five-point formula of Figure 5), net
    #: of the vector units as above.
    reconstruct_cycles: float = 12.5
    #: CPE cycles of per-atom overhead in each kernel pass (index
    #: arithmetic, accumulation, loop control).
    atom_cycles: float = 20.0

    @property
    def cores_per_cg(self) -> int:
        """Master + slave cores of one CG (the paper's counting unit)."""
        return 1 + self.cpes_per_cg

    @property
    def cycle_s(self) -> float:
        """Seconds per core cycle."""
        return 1.0 / self.clock_hz

    def dma_time(self, nbytes: int) -> float:
        """Cost of one DMA get/put of ``nbytes``."""
        if nbytes < 0:
            raise ValueError(f"nbytes must be non-negative, got {nbytes}")
        return self.dma_latency_s + nbytes / self.dma_bandwidth

    def compute_time(self, cycles: float) -> float:
        """Seconds for the given CPE cycle count."""
        if cycles < 0:
            raise ValueError(f"cycles must be non-negative, got {cycles}")
        return cycles * self.cycle_s

