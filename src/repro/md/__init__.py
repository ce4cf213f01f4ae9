"""Molecular Dynamics engine (paper §2.1).

Simulates defect generation in BCC iron under irradiation: EAM forces over
a short-range cutoff, velocity Verlet integration, primary-knock-on-atom
cascades, and vacancy formation tracked through the paper's *lattice
neighbor list* data structure.

Three interchangeable neighbor structures are provided so the paper's
memory/compute comparison is reproducible:

* :class:`~repro.md.neighbors.lattice_list.LatticeNeighborList` — the
  paper's structure (static index arithmetic + linked run-away atoms).
* :class:`~repro.md.neighbors.verlet_list.VerletNeighborList` — the
  LAMMPS-style baseline.
* :class:`~repro.md.neighbors.linked_cell.LinkedCellList` — the IMD-style
  baseline.

Two drivers: the serial :class:`~repro.md.engine.MDEngine` and the
domain-decomposed :class:`~repro.md.parallel_damage.ParallelDamageMD`,
which covers perfect lattices (no PKA) and cascades alike.
"""

from repro.md.state import AtomState, VACANCY_ID
from repro.md.neighbors import (
    LatticeNeighborList,
    VerletNeighborList,
    LinkedCellList,
)
from repro.md.forces import compute_energy_forces, PairTable
from repro.md.integrator import VelocityVerlet
from repro.md.thermostat import (
    maxwell_boltzmann_velocities,
    berendsen_rescale,
    instantaneous_temperature,
)
from repro.md.cascade import CascadeConfig, run_cascade, insert_pka
from repro.md.engine import MDEngine, MDConfig
from repro.md.parallel_damage import ParallelDamageMD, ParallelDamageResult

__all__ = [
    "AtomState",
    "CascadeConfig",
    "LatticeNeighborList",
    "LinkedCellList",
    "MDConfig",
    "MDEngine",
    "PairTable",
    "ParallelDamageMD",
    "ParallelDamageResult",
    "VACANCY_ID",
    "VelocityVerlet",
    "VerletNeighborList",
    "berendsen_rescale",
    "compute_energy_forces",
    "insert_pka",
    "instantaneous_temperature",
    "maxwell_boltzmann_velocities",
    "run_cascade",
]
