"""Molecular Dynamics engine (paper §2.1).

Simulates defect generation in BCC iron under irradiation: EAM forces over
a short-range cutoff, velocity Verlet integration, primary-knock-on-atom
cascades, and vacancy formation tracked through the paper's *lattice
neighbor list* data structure.

Three interchangeable neighbor structures exist so the paper's
memory/compute comparison is reproducible; the engines use the first,
and the two baselines are loaded only by the fig 2-3 comparison that
imports them:

* :class:`~repro.md.neighbors.lattice_list.LatticeNeighborList` — the
  paper's structure (static index arithmetic + linked run-away atoms).
* :class:`~repro.md.neighbors.verlet_list.VerletNeighborList` — the
  LAMMPS-style baseline.
* :class:`~repro.md.neighbors.linked_cell.LinkedCellList` — the IMD-style
  baseline.

Two drivers: the serial :class:`~repro.md.engine.MDEngine` and the
domain-decomposed :class:`~repro.md.parallel_damage.ParallelDamageMD`,
which covers perfect lattices (no PKA) and cascades alike.

The package exports nothing: import from the defining submodule
(``from repro.md.engine import MDEngine``).
"""
