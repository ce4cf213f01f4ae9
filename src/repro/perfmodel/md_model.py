"""MD strong/weak scaling model (Figures 10 and 11).

Per step and per core group:

    T = N_cg * t_atom                          (CPE compute)
      + S(N_cg) * t_pack                       (MPE pack/unpack)
      + 26 * alpha + S(N_cg) * bytes * beta(P) (halo exchange, 2 phases)
      + collective(P) + F                      (sync + fixed overhead)

where ``N_cg`` is atoms per core group and ``S`` the boundary-site count
of a cubic subdomain with a 2-cell ghost shell.  Strong scaling shrinks
``N_cg`` (surface-to-volume and fixed costs erode efficiency — the
paper's 41.3% at 6.24M cores); weak scaling keeps ``N_cg`` fixed and the
contention term grows (the paper's 85% at 6.656M cores).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.perfmodel.calibrate import CalibratedCosts
from repro.perfmodel.machine import EXCHANGE_MESSAGES, TAIHULIGHT, MachineSpec

#: Ghost shell width in conventional cells for the MD cutoff (5.6 A).
GHOST_WIDTH_CELLS = 2


def boundary_sites(atoms_per_cg: float, width: int = GHOST_WIDTH_CELLS) -> float:
    """Boundary-site count of a cubic subdomain of ``atoms_per_cg`` sites.

    The sites within ``width`` cells of the faces — what one rank packs
    and ships per exchange phase.
    """
    if atoms_per_cg <= 0:
        raise ValueError(f"atoms_per_cg must be positive, got {atoms_per_cg}")
    cells = atoms_per_cg / 2.0
    side = cells ** (1.0 / 3.0)
    inner = max(side - 2 * width, 0.0)
    return (side**3 - inner**3) * 2.0


@dataclass
class MDScalingModel:
    """Evaluates the MD step-time model over machine scales."""

    costs: CalibratedCosts
    machine: MachineSpec = field(default_factory=lambda: TAIHULIGHT)
    exchange_phases: int = 2  # positions, then densities (§2.1 two-pass EAM)

    def step_time(self, total_atoms: float, cores: int) -> dict:
        """Modeled per-step time breakdown at a core count."""
        cgs = self.machine.cgs_from_cores(cores)
        atoms_per = total_atoms / cgs
        compute = atoms_per * self.costs.md_atom_step_time
        surface = boundary_sites(atoms_per)
        pack = surface * self.costs.mpe_pack_time_per_site
        net = self.machine.network
        comm_bytes = surface * self.costs.md_ghost_bytes_per_site
        comm = self.exchange_phases * net.exchange(
            EXCHANGE_MESSAGES, comm_bytes, cgs
        )
        sync = net.collective(cgs) + self.costs.md_fixed_step_overhead
        total = compute + pack + comm + sync
        return {
            "cores": cores,
            "cgs": cgs,
            "atoms_per_cg": atoms_per,
            "compute": compute,
            "pack": pack,
            "comm": pack + comm,  # the paper lumps pack into comm time
            "network": comm,
            "sync": sync,
            "total": total,
        }

    # ------------------------------------------------------------------
    def strong_scaling(self, total_atoms: float, cores_list: list[int]) -> list[dict]:
        """Speedup/efficiency rows against the first core count (Fig 10)."""
        if not cores_list:
            raise ValueError("cores_list must not be empty")
        base = self.step_time(total_atoms, cores_list[0])
        rows = []
        for cores in cores_list:
            r = self.step_time(total_atoms, cores)
            ideal = cores / cores_list[0]
            speedup = base["total"] / r["total"]
            rows.append(
                {
                    **r,
                    "ideal_speedup": ideal,
                    "speedup": speedup,
                    "efficiency": speedup / ideal,
                }
            )
        return rows

    def weak_scaling(
        self, atoms_per_cg: float, cores_list: list[int]
    ) -> list[dict]:
        """Compute/comm breakdown at fixed per-CG load (Fig 11)."""
        if not cores_list:
            raise ValueError("cores_list must not be empty")
        rows = []
        base_total = None
        for cores in cores_list:
            cgs = self.machine.cgs_from_cores(cores)
            r = self.step_time(atoms_per_cg * cgs, cores)
            if base_total is None:
                base_total = r["total"]
            rows.append({**r, "efficiency": base_total / r["total"]})
        return rows

    def max_atoms_per_cg(self, bytes_per_atom: float) -> float:
        """Memory headroom of a CG at the given per-atom record size."""
        return self.machine.arch.memory_per_cg / bytes_per_atom


def paper_core_counts_strong() -> list[int]:
    """The Fig 10 x-axis: 97,500 .. 6,240,000 master+slave cores."""
    return [97500 * (2**k) for k in range(7)]  # 97.5k, 195k, ..., 6.24M


def paper_core_counts_weak() -> list[int]:
    """The Fig 11 x-axis: 104,000 .. 6,656,000 master+slave cores."""
    return [104000 * (2**k) for k in range(7)]


def paper_kmc_strong_cores() -> list[int]:
    """The Fig 14 x-axis (master cores only): 1,500 .. 48,000."""
    return [1500 * (2**k) for k in range(6)]

