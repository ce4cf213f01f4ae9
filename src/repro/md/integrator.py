"""Velocity Verlet time integration.

Standard symplectic integrator used by the paper's MD ("updates the
coordinates and the velocity of the atoms").  Operates on
:class:`~repro.md.state.AtomState` plus the run-away table of a
:class:`~repro.md.neighbors.lattice_list.LatticeNeighborList`.
"""

from __future__ import annotations

import numpy as np

from repro.constants import FM2A
from repro.md.neighbors.lattice_list import LatticeNeighborList
from repro.md.state import AtomState


class VelocityVerlet:
    """Velocity Verlet with the MD 'metal' unit system.

    Parameters
    ----------
    dt:
        Time step in picoseconds (the paper uses 1 fs = 0.001 ps).
    """

    def __init__(self, dt: float = 0.001) -> None:
        if dt <= 0:
            raise ValueError(f"dt must be positive, got {dt}")
        self.dt = float(dt)

    def first_half(
        self,
        state: AtomState,
        nblist: LatticeNeighborList | None = None,
        rows: np.ndarray | None = None,
    ) -> None:
        """Half-kick velocities, then drift positions by a full step.

        ``rows`` (a boolean mask) restricts the lattice update to those
        rows — a rank's owned sites; the list's run-aways always move.
        """
        occ = state.occupied if rows is None else state.occupied & rows
        acc = state.f * (FM2A / state.mass)
        state.v[occ] += 0.5 * self.dt * acc[occ]
        state.x[occ] += self.dt * state.v[occ]
        if nblist is not None:
            runs = nblist.runaways
            runs.v += 0.5 * self.dt * (FM2A / state.mass) * runs.f
            runs.x += self.dt * runs.v

    def second_half(
        self,
        state: AtomState,
        nblist: LatticeNeighborList | None = None,
        rows: np.ndarray | None = None,
    ) -> None:
        """Half-kick with the freshly computed forces (``rows`` as above)."""
        occ = state.occupied if rows is None else state.occupied & rows
        acc = state.f * (FM2A / state.mass)
        state.v[occ] += 0.5 * self.dt * acc[occ]
        if nblist is not None:
            runs = nblist.runaways
            runs.v += 0.5 * self.dt * (FM2A / state.mass) * runs.f
