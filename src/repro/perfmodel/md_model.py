"""MD strong/weak scaling model (Figures 10 and 11).

Per step and per core group:

    T = N_cg * t_atom                          (CPE compute)
      + 26 * X * alpha + S(N_cg) * B * beta(P) (halo exchange)
      + collective(P)                          (synchronization)

where ``N_cg`` is atoms per core group and ``S`` the boundary-site count
of a cubic subdomain with the MD engine's ghost shell.  The ghost width,
the exchanges per step ``X`` and the bytes per sent ghost row per step
``B`` are counted from an executed ``ParallelDamageMD`` run
(:func:`~repro.perfmodel.calibrate.executed_traffic`).  Strong scaling
shrinks ``N_cg`` (surface-to-volume and latency costs erode efficiency —
the paper's 41.3% at 6.24M cores); weak scaling keeps ``N_cg`` fixed and
the contention term grows (the paper's 85% at 6.656M cores).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.perfmodel.calibrate import CalibratedCosts, executed_traffic
from repro.perfmodel.machine import EXCHANGE_MESSAGES, TAIHULIGHT, MachineSpec, ScalingNetwork
from repro.perfmodel.machine import strong_scaling_rows, weak_scaling_rows


def boundary_sites(atoms_per_cg: float) -> float:
    """Boundary-site count of a cubic subdomain of ``atoms_per_cg`` sites.

    The sites within the MD engine's ghost width of the faces — what one
    rank packs and ships per exchange.
    """
    if atoms_per_cg <= 0:
        raise ValueError(f"atoms_per_cg must be positive, got {atoms_per_cg}")
    side = (atoms_per_cg / 2.0) ** (1.0 / 3.0)
    inner = max(side - 2 * executed_traffic().md_ghost_width, 0.0)
    return (side**3 - inner**3) * 2.0


def halo_time(atoms_per_cg: float, cgs: int, network: ScalingNetwork) -> float:
    """Network time of one MD step's ghost exchanges on the critical CG."""
    traffic = executed_traffic()
    return network.exchange(
        EXCHANGE_MESSAGES * traffic.md_exchanges_per_step,
        boundary_sites(atoms_per_cg) * traffic.md_bytes_per_row,
        cgs,
    )


@dataclass
class MDScalingModel:
    """Evaluates the MD step-time model over machine scales."""

    costs: CalibratedCosts
    machine: MachineSpec = field(default_factory=lambda: TAIHULIGHT)

    def step_time(self, total_atoms: float, cores: int) -> dict:
        """Modeled per-step time breakdown at a core count."""
        cgs = self.machine.cgs_from_cores(cores)
        atoms_per = total_atoms / cgs
        compute = atoms_per * self.costs.md_atom_step_time
        comm = halo_time(atoms_per, cgs, self.machine.network)
        sync = self.machine.network.collective(cgs)
        return {
            "cores": cores,
            "cgs": cgs,
            "atoms_per_cg": atoms_per,
            "compute": compute,
            "comm": comm,
            "sync": sync,
            "total": compute + comm + sync,
        }

    def strong_scaling(self, total_atoms: float, cores_list: list[int]) -> list[dict]:
        """Speedup/efficiency rows against the first core count (Fig 10)."""
        return strong_scaling_rows(
            lambda cores: self.step_time(total_atoms, cores), cores_list
        )

    def weak_scaling(self, atoms_per_cg: float, cores_list: list[int]) -> list[dict]:
        """Compute/comm breakdown at fixed per-CG load (Fig 11)."""
        cgs = self.machine.cgs_from_cores
        return weak_scaling_rows(
            lambda cores: self.step_time(atoms_per_cg * cgs(cores), cores), cores_list
        )

    def max_atoms_per_cg(self, bytes_per_atom: float) -> float:
        """Memory headroom of a CG at the given per-atom record size."""
        return self.machine.arch.memory_per_cg / bytes_per_atom


def paper_core_counts_strong() -> list[int]:
    """The Fig 10 x-axis: 97,500 .. 6,240,000 master+slave cores."""
    return [97500 * (2**k) for k in range(7)]  # 97.5k, 195k, ..., 6.24M


def paper_core_counts_weak() -> list[int]:
    """The Fig 11 x-axis: 104,000 .. 6,656,000 master+slave cores."""
    return [104000 * (2**k) for k in range(7)]
