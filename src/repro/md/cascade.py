"""Cascade collision: primary knock-on atom (PKA) events.

The paper's MD phase "simulates the defect generation caused by cascade
collision" under irradiation.  Physically, an incident particle transfers
a large kinetic energy to one lattice atom — the primary knock-on atom —
which displaces neighbors in a collision cascade, leaving vacancies and
interstitial (run-away) atoms behind.

This module implements the PKA insertion and a driver that runs the
cascade with the serial MD engine, returning the damage inventory the KMC
stage consumes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.constants import MVV2E
from repro.md.engine import MDConfig, MDEngine
from repro.md.state import AtomState


@dataclass(frozen=True)
class CascadeConfig:
    """Parameters of a cascade simulation.

    Attributes
    ----------
    pka_energy:
        Kinetic energy given to the knock-on atom, in eV.  (Real
        irradiation cascades use keV-scale PKAs over millions of atoms;
        at toy scale ~1e2 eV produces the same artifact — a handful of
        Frenkel pairs.)
    pka_direction:
        Initial direction of the PKA (need not be normalized).
    pka_site:
        Site row receiving the kick; ``None`` picks the center of the box.
    nsteps:
        MD steps to run after insertion.
    dt:
        Time step in ps (paper: 1 fs).
    temperature:
        Background lattice temperature (K) before the kick.
    displacement_threshold:
        Distance from the lattice point beyond which an atom is declared
        run-away (vacancy left behind).
    runaway_check_interval:
        Steps between run-away/capture scans.
    """

    pka_energy: float = 120.0
    pka_direction: tuple[float, float, float] = (1.0, 0.7, 0.3)
    pka_site: int | None = None
    nsteps: int = 200
    dt: float = 0.001
    temperature: float = 600.0
    displacement_threshold: float = 1.2
    runaway_check_interval: int = 5

    def __post_init__(self) -> None:
        if self.pka_energy <= 0:
            raise ValueError(f"pka_energy must be positive, got {self.pka_energy}")
        if self.nsteps < 1:
            raise ValueError(f"nsteps must be >= 1, got {self.nsteps}")
        if self.displacement_threshold <= 0:
            raise ValueError("displacement_threshold must be positive")


@dataclass
class CascadeResult:
    """Damage inventory produced by a cascade run."""

    vacancy_rows: np.ndarray
    vacancy_positions: np.ndarray
    n_runaways: int
    n_frenkel_pairs: int
    final_temperature: float
    energy_trace: list = field(default_factory=list)
    #: Positions of the run-away (interstitial) atoms, shape (n, 3).
    runaway_positions: np.ndarray = field(
        default_factory=lambda: np.empty((0, 3))
    )


def cascade_stage(spec, lattice, potential) -> tuple[MDEngine, CascadeConfig]:
    """The MD stage a scenario describes: an engine over ``lattice`` and
    the cascade to run on it.

    ``spec`` is a :class:`~repro.service.spec.ScenarioSpec`.  Its
    temperature and seed build the engine; its PKA energy and step
    count (each defaulting to :class:`CascadeConfig`'s) build the
    cascade, at the same temperature.  The coupled pipeline and the
    ``cascade`` command both build their MD stage here.
    """
    config = MDConfig(temperature=spec.temperature, seed=spec.seed)
    cascade = CascadeConfig(
        pka_energy=spec.pka_energy or CascadeConfig.pka_energy,
        nsteps=spec.md_steps or CascadeConfig.nsteps,
        temperature=spec.temperature,
    )
    return MDEngine(lattice, potential, config), cascade


def insert_pka(state: AtomState, config: CascadeConfig, lattice) -> int:
    """Give one atom the PKA kinetic energy; returns the chosen row."""
    if config.pka_site is not None:
        row = int(config.pka_site)
        if not 0 <= row < state.n:
            raise ValueError(f"pka_site {row} out of range")
        if state.ids[row] < 0:
            raise ValueError(f"pka_site {row} is a vacancy")
    else:
        center = lattice.lengths / 2.0
        occ_rows = np.flatnonzero(state.occupied)
        d = np.linalg.norm(state.x[occ_rows] - center, axis=1)
        row = int(occ_rows[np.argmin(d)])
    direction = np.asarray(config.pka_direction, dtype=float)
    norm = np.linalg.norm(direction)
    if norm <= 0:
        raise ValueError("pka_direction must be a nonzero vector")
    direction = direction / norm
    # E = 1/2 m v^2 (with the metal-units conversion) => |v|.
    speed = np.sqrt(2.0 * config.pka_energy / (state.mass * MVV2E))
    state.v[row] = speed * direction
    return row


def run_cascade(engine, config: CascadeConfig) -> CascadeResult:
    """Run a full cascade on an :class:`~repro.md.engine.MDEngine`.

    The engine must already be constructed (lattice + potential).  The
    sequence follows the paper: thermalize, kick, evolve, report the
    vacancy coordinates "and the information of atoms" for KMC.
    """
    engine.initialize(temperature=config.temperature)
    insert_pka(engine.state, config, engine.lattice)
    trace = engine.run(
        nsteps=config.nsteps,
        dt=config.dt,
        displacement_threshold=config.displacement_threshold,
        runaway_check_interval=config.runaway_check_interval,
    )
    state = engine.state
    vac_rows = state.vacancy_rows()
    return CascadeResult(
        vacancy_rows=vac_rows,
        vacancy_positions=state.site_pos[vac_rows].copy(),
        n_runaways=engine.nblist.n_runaways,
        n_frenkel_pairs=min(len(vac_rows), engine.nblist.n_runaways),
        final_temperature=state.temperature(),
        energy_trace=trace,
        runaway_positions=engine.nblist.runaways.x.copy(),
    )
