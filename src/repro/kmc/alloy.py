"""Multi-species (alloy) AKMC: Cu precipitation in alpha-iron.

The paper's application "also supports the simulation of different atoms,
e.g., the alloy materials. To achieve this, more interpolation tables
should be used" (§1, §2.1.2) — and its temporal-scale formula comes from
Castin et al. [2], a study of "the first stages of Cu precipitation in
alpha-Fe using a hybrid atomistic kinetic Monte Carlo approach".  This
module closes that loop: an AKMC model over Fe/Cu/vacancy site states
whose energetics read the per-pair alloy tables, with vacancy-mediated
diffusion driving Cu atoms to precipitate.

Physics: a vacancy exchanging with Cu atoms lets them random-walk; the
mixing penalty of the Fe-Cu cross interaction (see
:func:`repro.potential.alloy.make_fe_cu_alloy`) makes Cu-Cu contacts
energetically favorable, so Cu clusters nucleate and grow — the classic
early-stage precipitation sequence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.constants import KB_EV
from repro.kmc.events import VACANCY, BaseKMCModel
from repro.lattice.bcc import BCCLattice
from repro.potential.alloy import AlloyTables

#: Site-state codes of the alloy occupancy array.
S_VACANCY: int = VACANCY
S_FE: int = 1
S_CU: int = 2

#: Species symbols by state code (index 0 unused).
SPECIES_SYMBOLS: tuple[str, ...] = ("", "Fe", "Cu")


@dataclass(frozen=True)
class AlloyRateParameters:
    """Rate parameters of the alloy hop model.

    Per-species reference barriers: a vacancy-Cu exchange in Fe has a
    lower barrier than vacancy-Fe (literature: ~0.55 vs ~0.65 eV), which
    is what makes the vacancy an efficient Cu transporter.
    """

    nu: float = 10.0
    e_m0_fe: float = 0.65
    e_m0_cu: float = 0.55
    temperature: float = 600.0
    energy_cutoff: float = 2.9
    de_min: float = 0.02

    def __post_init__(self) -> None:
        if self.nu <= 0 or self.temperature <= 0:
            raise ValueError("nu and temperature must be positive")
        if self.energy_cutoff <= 0:
            raise ValueError("energy_cutoff must be positive")

    @property
    def kt(self) -> float:
        return KB_EV * self.temperature

    @property
    def reference_rate(self) -> float:
        """The hop rate at the fastest species' reference barrier."""
        fastest = min(self.e_m0_fe, self.e_m0_cu)
        return self.nu * math.exp(-fastest / self.kt)

    def e_m0(self, species: int) -> float:
        """Reference barrier of the hopping atom's species."""
        if species == S_FE:
            return self.e_m0_fe
        if species == S_CU:
            return self.e_m0_cu
        raise ValueError(f"no barrier for species code {species}")


class AlloyKMCModel(BaseKMCModel):
    """On-lattice Fe-Cu energetics over the per-pair interpolation tables.

    Parameters are those of :class:`~repro.kmc.events.BaseKMCModel` plus
    ``alloy``, the Fe-Cu table system (see
    :func:`~repro.potential.alloy.make_fe_cu_alloy`).
    """

    species = (S_FE, S_CU)

    def __init__(
        self,
        lattice: BCCLattice,
        alloy: AlloyTables,
        params: AlloyRateParameters,
        sites: np.ndarray | None = None,
        rate_cap: float | None = None,
    ) -> None:
        super().__init__(lattice, params, sites, rate_cap)
        self.alloy = alloy
        # Per-slot pair/density values for every ordered species pair;
        # species 0 (vacancy) rows/columns are zero so masked gathers are
        # free of branches.
        m = self.e_matrix.shape[1]
        self.phi_slots = np.zeros((3, 3, len(self.sites), m))
        self.f_slots = np.zeros((3, 3, len(self.sites), m))
        basis = self.sites % 2
        safe = np.where(self.e_dist > 0, self.e_dist, 1.0)
        for a in self.species:
            for b in self.species:
                tables = alloy.tables_for(SPECIES_SYMBOLS[a], SPECIES_SYMBOLS[b])
                self.phi_slots[a, b] = np.where(
                    self.e_valid, tables.pair(safe)[basis], 0.0
                )
                self.f_slots[a, b] = np.where(
                    self.e_valid, tables.density(safe)[basis], 0.0
                )
        self._embedding = {
            S_FE: alloy.embedding_tables["Fe"],
            S_CU: alloy.embedding_tables["Cu"],
        }

    # ------------------------------------------------------------------
    # Occupancy construction
    # ------------------------------------------------------------------
    def random_solution(
        self,
        cu_count: int,
        vacancy_count: int,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """A random dilute solid solution: Fe matrix + Cu solutes + vacancies."""
        if cu_count + vacancy_count > self.nrows:
            raise ValueError("more solutes+vacancies than sites")
        occ = self.perfect_occupancy()
        rows = rng.choice(self.nrows, size=cu_count + vacancy_count, replace=False)
        occ[rows[:cu_count]] = S_CU
        occ[rows[cu_count:]] = S_VACANCY
        return occ

    # ------------------------------------------------------------------
    # Energetics
    # ------------------------------------------------------------------
    def site_energy(self, row: int, occ: np.ndarray, species: int | None = None) -> float:
        """EAM energy of the atom at ``row`` (or a hypothetical ``species``)."""
        s = int(occ[row]) if species is None else int(species)
        if s == S_VACANCY:
            raise ValueError(f"row {row} holds a vacancy")
        nbrs = self.e_matrix[row]
        sn = occ[nbrs]
        # Gather phi/f by the neighbor's species (vacancy rows give 0).
        phi = self.phi_slots[s, sn, row, np.arange(len(nbrs))]
        f = self.f_slots[s, sn, row, np.arange(len(nbrs))]
        rho = float(np.sum(f))
        return 0.5 * float(np.sum(phi)) + float(self._embedding[s](rho))

    def configuration_energy(self, occ: np.ndarray) -> float:
        """Total energy of a configuration (sum of site energies)."""
        return sum(
            self.site_energy(int(r), occ)
            for r in np.flatnonzero(occ != S_VACANCY)
        )

    # ------------------------------------------------------------------
    # Events
    # ------------------------------------------------------------------
    def vacancy_events(
        self, vrow: int, occ: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """(target rows, rates) for the vacancy at ``vrow``.

        Targets of either species; barriers are species-referenced and
        EAM-corrected exactly as in the single-species model.
        """
        if occ[vrow] != S_VACANCY:
            raise ValueError(f"row {vrow} does not hold a vacancy")
        cand = self.first_matrix[vrow][self.first_valid[vrow]]
        targets = cand[occ[cand] != S_VACANCY]
        if len(targets) == 0:
            return targets, np.empty(0)
        rates = np.empty(len(targets))
        occ2 = occ.copy()
        for idx, t in enumerate(targets):
            t = int(t)
            species = int(occ[t])
            e_before = self.site_energy(t, occ)
            occ2[t] = S_VACANCY
            e_after = self.site_energy(vrow, occ2, species=species)
            occ2[t] = species
            de = max(
                self.params.e_m0(species) + 0.5 * (e_after - e_before),
                self.params.de_min,
            )
            rates[idx] = self.params.nu * math.exp(-de / self.params.kt)
        return targets, self._apply_rate_cap(rates)
