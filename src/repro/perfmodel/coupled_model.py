"""Coupled MD-KMC weak scaling model (Figure 16).

One coupled run is an MD phase (50,000 steps of 1 fs = 50 ps of cascade
evolution) followed by a KMC phase (cycles to the time threshold); the
weak-scaling efficiency of the whole is the workload-weighted combination
of the two phases' models at 3.3e5 atoms per core group.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.perfmodel.calibrate import CalibratedCosts
from repro.perfmodel.kmc_model import KMCScalingModel
from repro.perfmodel.machine import TAIHULIGHT, MachineSpec, weak_scaling_rows
from repro.perfmodel.md_model import MDScalingModel


@dataclass
class CoupledScalingModel:
    """Weak scaling of the full MD -> KMC pipeline."""

    costs: CalibratedCosts
    machine: MachineSpec = field(default_factory=lambda: TAIHULIGHT)
    #: MD steps of the coupled run (50 ps at 1 fs).
    md_steps: int = 50_000
    #: KMC cycles to the time threshold.
    kmc_cycles: int = 100_000
    #: Vacancy concentration after the cascade (paper: 2e-6).
    vacancy_concentration: float = 2e-6

    def __post_init__(self) -> None:
        self.md = MDScalingModel(self.costs, self.machine)
        self.kmc = KMCScalingModel(
            self.costs,
            self.machine,
            vacancy_concentration=self.vacancy_concentration,
        )

    def run_time(self, atoms_per_cg: float, cores: int) -> dict:
        """Modeled total runtime of one coupled run at a core count.

        KMC runs on the master cores of the same allocation (one per CG).
        """
        cgs = self.machine.cgs_from_cores(cores)
        md_row = self.md.step_time(atoms_per_cg * cgs, cores)
        kmc_row = self.kmc.cycle_time(atoms_per_cg * cgs, cgs)
        md_time = md_row["total"] * self.md_steps
        kmc_time = kmc_row["total"] * self.kmc_cycles
        return {
            "cores": cores,
            "cgs": cgs,
            "md_time": md_time,
            "kmc_time": kmc_time,
            "total": md_time + kmc_time,
        }

    def weak_scaling(self, atoms_per_cg: float, cores_list: list[int]) -> list[dict]:
        """Efficiency rows at fixed per-CG workload (Fig 16)."""
        return weak_scaling_rows(
            lambda cores: self.run_time(atoms_per_cg, cores), cores_list
        )


def paper_coupled_cores() -> list[int]:
    """Fig 16 x-axis: 97,500 .. 6,240,000 master+slave cores."""
    return [97500, 390000, 1560000, 6240000]


def paper_coupled_atoms_per_cg() -> float:
    """Fig 16 workload: 3.3e5 atoms per core group."""
    return 3.3e5
