"""The serial MD driver.

:class:`MDEngine` is the single-process driver used for physics runs
(cascades, coupling with KMC): full run-away atom support through the
lattice neighbor list.  Its domain-decomposed counterpart — the paper's
parallel structure, with or without damage — is
:class:`~repro.md.parallel_damage.ParallelDamageMD`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import observe as obs
from repro.lattice.bcc import BCCLattice
from repro.lattice.box import Box
from repro.md.forces import compute_energy_forces
from repro.md.integrator import VelocityVerlet
from repro.md.neighbors.lattice_list import LatticeNeighborList
from repro.md.state import AtomState
from repro.md.thermostat import berendsen_rescale, maxwell_boltzmann_velocities
from repro.potential.eam import EAMPotential
from repro.potential.fe import make_fe_potential


@dataclass(frozen=True)
class MDConfig:
    """Knobs of an MD run."""

    dt: float = 0.001
    temperature: float = 600.0
    seed: int = 2018
    thermostat_tau: float = 0.05

    def __post_init__(self) -> None:
        if self.dt <= 0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if self.temperature < 0:
            raise ValueError("temperature must be non-negative")


@dataclass
class StepRecord:
    """Per-step observables appended to the engine's trace."""

    step: int
    potential_energy: float
    kinetic_energy: float
    temperature: float

    @property
    def total_energy(self) -> float:
        return self.potential_energy + self.kinetic_energy


class MDEngine:
    """Serial MD driver over the lattice neighbor list.

    Parameters
    ----------
    lattice:
        The BCC lattice to simulate.
    potential:
        EAM potential; defaults to the iron-like parameterization.
    config:
        Run configuration.
    """

    def __init__(
        self,
        lattice: BCCLattice,
        potential: EAMPotential | None = None,
        config: MDConfig | None = None,
    ) -> None:
        self.lattice = lattice
        self.config = config or MDConfig()
        self.potential = potential or make_fe_potential()
        self.box = Box.for_lattice(lattice)
        self.state = AtomState.perfect(lattice)
        self.nblist = LatticeNeighborList(lattice, self.potential.cutoff)
        self.trace: list[StepRecord] = []
        self._step = 0

    def initialize(self, temperature: float | None = None) -> None:
        """Thermal velocities + initial forces (call before :meth:`run`)."""
        with obs.phase("md.initialize"):
            t = self.config.temperature if temperature is None else temperature
            rng = np.random.default_rng(self.config.seed)
            maxwell_boltzmann_velocities(self.state, t, rng)
            compute_energy_forces(self.potential, self.state, self.nblist)

    def run(
        self,
        nsteps: int,
        dt: float | None = None,
        thermostat_target: float | None = None,
        displacement_threshold: float | None = None,
        runaway_check_interval: int = 5,
    ) -> list[StepRecord]:
        """Integrate ``nsteps`` steps; returns the step records appended.

        ``displacement_threshold`` enables run-away/vacancy detection every
        ``runaway_check_interval`` steps (disabled when ``None``, giving a
        pure NVE run for conservation tests).
        """
        if nsteps < 1:
            raise ValueError(f"nsteps must be >= 1, got {nsteps}")
        integ = VelocityVerlet(dt if dt is not None else self.config.dt)
        new_records: list[StepRecord] = []
        for _ in range(nsteps):
            with obs.phase("md.step"):
                with obs.phase("md.integrate"):
                    integ.first_half(self.state, self.nblist)
                    self._wrap_positions()
                if (
                    displacement_threshold is not None
                    and self._step % runaway_check_interval == 0
                ):
                    with obs.phase("md.neighbor"):
                        self.nblist.update_runaways(
                            self.state, displacement_threshold
                        )
                with obs.phase("md.force"):
                    epot = compute_energy_forces(
                        self.potential, self.state, self.nblist
                    )
                with obs.phase("md.integrate"):
                    integ.second_half(self.state, self.nblist)
                if thermostat_target is not None:
                    with obs.phase("md.thermostat"):
                        berendsen_rescale(
                            self.state,
                            thermostat_target,
                            integ.dt,
                            self.config.thermostat_tau,
                        )
            rec = StepRecord(
                step=self._step,
                potential_energy=epot,
                kinetic_energy=self.state.kinetic_energy()
                + self._runaway_kinetic_energy(),
                temperature=self.state.temperature(),
            )
            self.trace.append(rec)
            new_records.append(rec)
            self._step += 1
        return new_records

    def _wrap_positions(self) -> None:
        occ = self.state.occupied
        self.state.x[occ] = self.box.wrap(self.state.x[occ])
        runs = self.nblist.runaways
        runs.x[:] = self.box.wrap(runs.x)

    def _runaway_kinetic_energy(self) -> float:
        from repro.constants import MVV2E

        return float(
            0.5 * self.state.mass * MVV2E * np.sum(self.nblist.runaways.v ** 2)
        )
