"""repro — reproduction of "Massively Scaling the Metal Microscopic Damage
Simulation on Sunway TaihuLight Supercomputer" (Li et al., ICPP 2018).

A coupled Molecular Dynamics / Kinetic Monte Carlo simulator for
irradiation damage in BCC iron, together with every substrate the paper's
scaling study depends on: the lattice neighbor list data structure, EAM
spline interpolation tables (the compacted layout is their sample
column), an in-process MPI-semantics runtime, a Sunway SW26010 machine
model with 64 KB local-store enforcement and DMA accounting, the
synchronous-sublattice parallel AKMC with traditional / on-demand /
one-sided communication schemes, and calibrated analytical models
regenerating the paper's million-core scaling figures.

Quick start::

    from repro.core import CoupledSimulation
    from repro.service import ScenarioSpec
    config = ScenarioSpec(cells=8).to_coupled_config()
    result = CoupledSimulation(config).run()
    print(result.report_after_md)
    print(result.report_after_kmc)

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured record of every figure.
"""

__version__ = "1.0.0"

from repro import constants

__all__ = [
    "__version__",
    "constants",
]
