"""Atom state arrays in lattice-rank storage order.

Following Figure 2 of the paper, "the information of the atoms, such as
coordinates, velocity, force, and electron cloud density, is sequentially
stored in a array in the order of the atoms ranks".  :class:`AtomState`
is that array: one row per lattice site, holding the atom currently bound
to the site — or a vacancy marker ("ID is modified to a negative number to
indicate this is a vacancy", Figure 3), in which case the row's position
records the vacancy's lattice-point coordinates.

Run-away atoms live *outside* these arrays, as the rows of the one
host-sorted :class:`~repro.md.neighbors.lattice_list.RunawayTable` that
the :class:`~repro.md.neighbors.lattice_list.LatticeNeighborList` owns.
"""

from __future__ import annotations

import numpy as np

from repro.constants import FE_MASS, KB_EV, MVV2E

#: Sentinel ID marking a vacancy row.
VACANCY_ID: int = -1


class AtomState:
    """Per-site atom data in lattice-rank order.

    Attributes
    ----------
    ids:
        Atom IDs, ``(n,)`` int64; negative entries mark vacancies.
    x, v, f:
        Positions, velocities, forces, each ``(n, 3)`` float64.
    rho:
        Electron densities, ``(n,)`` float64.
    site_pos:
        Reference lattice-point coordinates of each row, ``(n, 3)``
        (never changes; the anchor the paper's indexing relies on).
    mass:
        Atomic mass in amu (single-species systems).
    """

    def __init__(
        self,
        ids: np.ndarray,
        x: np.ndarray,
        site_pos: np.ndarray,
        mass: float = FE_MASS,
    ) -> None:
        ids = np.asarray(ids, dtype=np.int64)
        x = np.asarray(x, dtype=float)
        site_pos = np.asarray(site_pos, dtype=float)
        n = len(ids)
        if x.shape != (n, 3) or site_pos.shape != (n, 3):
            raise ValueError(
                f"shape mismatch: ids {ids.shape}, x {x.shape}, "
                f"site_pos {site_pos.shape}"
            )
        if mass <= 0:
            raise ValueError(f"mass must be positive, got {mass}")
        self.ids = ids
        self.x = x
        self.v = np.zeros((n, 3))
        self.f = np.zeros((n, 3))
        self.rho = np.zeros(n)
        self.site_pos = site_pos
        self.mass = float(mass)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def perfect(cls, lattice, mass: float = FE_MASS) -> "AtomState":
        """Every site of ``lattice`` occupied by an atom at rest."""
        pos = lattice.all_positions()
        return cls(
            ids=np.arange(lattice.nsites, dtype=np.int64),
            x=pos.copy(),
            site_pos=pos,
            mass=mass,
        )

    @classmethod
    def for_sites(cls, lattice, site_ranks: np.ndarray, mass: float = FE_MASS) -> "AtomState":
        """State covering only the given global site ranks (subdomain use)."""
        site_ranks = np.asarray(site_ranks, dtype=np.int64)
        pos = lattice.position_of(site_ranks)
        return cls(ids=site_ranks.copy(), x=pos.copy(), site_pos=pos, mass=mass)

    # ------------------------------------------------------------------
    # Occupancy
    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        """Number of rows (lattice sites tracked)."""
        return len(self.ids)

    @property
    def occupied(self) -> np.ndarray:
        """Boolean mask of rows currently holding an atom."""
        return self.ids >= 0

    @property
    def natoms(self) -> int:
        """Number of on-lattice atoms (run-away atoms not included)."""
        return int(np.count_nonzero(self.occupied))

    @property
    def nvacancies(self) -> int:
        return self.n - self.natoms

    def vacancy_rows(self) -> np.ndarray:
        """Row indices of vacancy entries."""
        return np.flatnonzero(~self.occupied)

    def make_vacancy(self, row) -> None:
        """Turn ``row`` (one, or an array) into a vacancy at its lattice point."""
        self.ids[row] = VACANCY_ID
        self.x[row] = self.site_pos[row]
        self.v[row] = 0.0
        self.f[row] = 0.0
        self.rho[row] = 0.0

    def occupy(self, row, atom_id, x, v) -> None:
        """Fill a vacancy row with an atom ("overlapped by the run-away atom").

        One row, or arrays of distinct rows with one atom each.
        """
        if np.any(self.ids[row] >= 0):
            raise ValueError(f"row {row} is already occupied by atom {self.ids[row]}")
        if np.any(np.asarray(atom_id) < 0):
            raise ValueError(f"atom id must be non-negative, got {atom_id}")
        self.ids[row] = atom_id
        self.x[row] = x
        self.v[row] = v
        self.f[row] = 0.0

    # ------------------------------------------------------------------
    # Diagnostics
    # ------------------------------------------------------------------
    def displacement(self, box=None) -> np.ndarray:
        """Distance of each atom from its lattice point (0 for vacancies)."""
        d = self.x - self.site_pos
        if box is not None:
            d = box.minimum_image(d)
        out = np.linalg.norm(d, axis=1)
        out[~self.occupied] = 0.0
        return out

    def kinetic_energy(self) -> float:
        """Total kinetic energy of on-lattice atoms (eV)."""
        occ = self.occupied
        return float(
            0.5 * self.mass * MVV2E * np.sum(self.v[occ] ** 2)
        )

    def temperature(self) -> float:
        """Instantaneous temperature (K) from equipartition."""
        n = self.natoms
        if n == 0:
            return 0.0
        return 2.0 * self.kinetic_energy() / (3.0 * n * KB_EV)

    def momentum(self) -> np.ndarray:
        """Total momentum of on-lattice atoms (amu * A/ps)."""
        occ = self.occupied
        return self.mass * np.sum(self.v[occ], axis=0)

    def zero_momentum(self) -> None:
        """Remove center-of-mass drift from occupied rows."""
        occ = self.occupied
        n = int(np.count_nonzero(occ))
        if n:
            self.v[occ] -= np.mean(self.v[occ], axis=0)

    def copy(self) -> "AtomState":
        """Deep copy of all state arrays."""
        out = AtomState(self.ids.copy(), self.x.copy(), self.site_pos, self.mass)
        out.v = self.v.copy()
        out.f = self.f.copy()
        out.rho = self.rho.copy()
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"AtomState(n={self.n}, atoms={self.natoms}, "
            f"vacancies={self.nvacancies})"
        )
