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

from repro import observe as obs
from repro.constants import KB_EV
from repro.kmc.events import build_static_matrix, local_rows
from repro.kmc.selection import select_event
from repro.lattice.bcc import BCCLattice
from repro.potential.alloy import AlloyTables, make_fe_cu_alloy

#: Site-state codes of the alloy occupancy array.
S_VACANCY: int = 0
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

    def e_m0(self, species: int) -> float:
        """Reference barrier of the hopping atom's species."""
        if species == S_FE:
            return self.e_m0_fe
        if species == S_CU:
            return self.e_m0_cu
        raise ValueError(f"no barrier for species code {species}")


class AlloyKMCModel:
    """On-lattice alloy energetics over the per-pair interpolation tables.

    Parameters
    ----------
    lattice:
        The BCC lattice.
    alloy:
        The Fe-Cu table system (defaults to
        :func:`~repro.potential.alloy.make_fe_cu_alloy`).
    params:
        Rate parameters.
    rate_cap:
        Optional per-event rate ceiling (see
        :class:`~repro.kmc.events.KMCModel`): the EAM correction can
        push a barrier below the species reference, so the parallel
        engine passes its dt bound's per-event share here; clamped
        events are counted on ``kmc.rate_bound.clamped``.
    """

    def __init__(
        self,
        lattice: BCCLattice,
        alloy: AlloyTables | None = None,
        params: AlloyRateParameters | None = None,
        table_points: int = 1000,
        sites: np.ndarray | None = None,
        rate_cap: float | None = None,
    ) -> None:
        if rate_cap is not None and rate_cap <= 0:
            raise ValueError(f"rate_cap must be positive, got {rate_cap}")
        self.lattice = lattice
        self.rate_cap = rate_cap
        self.params = params or AlloyRateParameters()
        self.alloy = alloy or make_fe_cu_alloy(n=table_points)
        if sites is None:
            self.sites = np.arange(lattice.nsites, dtype=np.int64)
        else:
            self.sites = np.asarray(sites, dtype=np.int64)
        # Non-strict: outer-ghost rows see truncated stencils, but rates
        # are only ever evaluated where the ghost width guarantees
        # completeness (same contract as the single-species model).
        self.e_matrix, self.e_valid, dist = build_static_matrix(
            lattice, self.params.energy_cutoff, self.sites, strict=False
        )
        # First shell (exchange partners), mapped into the local rows.
        self.first_matrix, self.first_valid = local_rows(
            lattice, self.sites, lattice.first_shell_ranks(self.sites)
        )
        # Per-slot pair/density values for every ordered species pair;
        # species 0 (vacancy) rows/columns are zero so masked gathers are
        # free of branches.
        m = self.e_matrix.shape[1]
        self.phi_slots = np.zeros((3, 3, len(self.sites), m))
        self.f_slots = np.zeros((3, 3, len(self.sites), m))
        basis = self.sites % 2
        safe = np.where(dist > 0, dist, 1.0)
        for a in (S_FE, S_CU):
            for b in (S_FE, S_CU):
                tables = self.alloy.tables_for(
                    SPECIES_SYMBOLS[a], SPECIES_SYMBOLS[b]
                )
                self.phi_slots[a, b] = np.where(
                    self.e_valid, tables.pair(safe)[basis], 0.0
                )
                self.f_slots[a, b] = np.where(
                    self.e_valid, tables.density(safe)[basis], 0.0
                )
        self._embedding = {
            S_FE: self.alloy.embedding_tables["Fe"],
            S_CU: self.alloy.embedding_tables["Cu"],
        }
        self._influence: tuple[np.ndarray, np.ndarray] | None = None

    @property
    def nrows(self) -> int:
        return len(self.sites)

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
        occ = np.full(self.nrows, S_FE, dtype=np.int8)
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
        cap = self.rate_cap
        if cap is not None:
            over = int(np.count_nonzero(rates > cap))
            if over:
                obs.add("kmc.rate_bound.clamped", over)
                rates = np.minimum(rates, cap)
        return targets, rates

    def execute_swap(self, occ: np.ndarray, vrow: int, trow: int) -> None:
        """Move the atom at ``trow`` into the vacancy at ``vrow``."""
        if occ[vrow] != S_VACANCY or occ[trow] == S_VACANCY:
            raise ValueError(
                f"invalid swap: occ[{vrow}]={occ[vrow]}, occ[{trow}]={occ[trow]}"
            )
        occ[vrow] = occ[trow]
        occ[trow] = S_VACANCY

    def influence_rows(self, rows) -> np.ndarray:
        """Rows whose rates may depend on occupancy at ``rows`` (for caches)."""
        if self._influence is None:
            reach = (
                math.sqrt(3.0) / 2.0 * self.lattice.a
                + self.params.energy_cutoff
                + 1e-9
            )
            self._influence = build_static_matrix(
                self.lattice, reach, self.sites, strict=False
            )[:2]
        matrix, valid = self._influence
        rows = np.atleast_1d(np.asarray(rows, dtype=np.int64))
        out = matrix[rows][valid[rows]]
        return np.unique(np.concatenate([out, rows]))


def make_parallel_alloy_akmc(
    lattice: BCCLattice,
    alloy: AlloyTables | None = None,
    params: AlloyRateParameters | None = None,
    table_points: int = 500,
    **kwargs,
):
    """Sector-synchronous parallel AKMC engine over the alloy model.

    A thin specialization of :class:`~repro.kmc.akmc.ParallelAKMC`: the
    occupancy array carries species codes (0 = vacancy, 1 = Fe, 2 = Cu),
    the rank-local model is an :class:`AlloyKMCModel`, and the cycle time
    step derives from the fastest species' reference rate.  All three
    communication schemes work unchanged — the on-demand payload already
    ships full site values, species included.  ``kwargs`` are forwarded
    to :class:`~repro.kmc.akmc.ParallelAKMC` (grid/nranks, scheme, seed,
    network).
    """
    from repro.kmc.akmc import ParallelAKMC

    params = params or AlloyRateParameters()
    tables = alloy or make_fe_cu_alloy(n=table_points)

    class _AlloyEngine(ParallelAKMC):
        def _make_model(self, sites):
            return AlloyKMCModel(
                self.lattice,
                alloy=tables,
                params=params,
                sites=sites,
                rate_cap=self._rate_cap(),
            )

        def _rate_bound_per_vacancy(self) -> float:
            # Strict mode: de_min is the only floor under the EAM
            # correction, so the true supremum is species-independent.
            if self.rate_bound == "strict":
                return 8.0 * params.nu * math.exp(-params.de_min / params.kt)
            fastest = min(params.e_m0_fe, params.e_m0_cu)
            return 8.0 * params.nu * math.exp(-fastest / params.kt)

    # ParallelAKMC only touches ``params.energy_cutoff`` (ghost width)
    # outside the hooks; the alloy parameter object provides it.
    return _AlloyEngine(lattice, potential=None, params=params, **kwargs)


@dataclass
class AlloyKMCResult:
    """Outcome of an alloy KMC run."""

    occupancy: np.ndarray
    time: float
    events: int
    cu_ranks: np.ndarray
    vacancy_ranks: np.ndarray


class AlloySerialAKMC:
    """Residence-time AKMC over the alloy model (BKL with rate caching)."""

    def __init__(
        self,
        model: AlloyKMCModel,
        occupancy: np.ndarray,
        seed: int = 2018,
    ) -> None:
        occupancy = np.asarray(occupancy, dtype=np.int8)
        if len(occupancy) != model.nrows:
            raise ValueError("occupancy length does not match the lattice")
        self.model = model
        self.occ = occupancy.copy()
        self.rng = np.random.default_rng(seed)
        self.time = 0.0
        self.events = 0
        self._cache: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    @property
    def vacancy_rows(self) -> np.ndarray:
        return np.flatnonzero(self.occ == S_VACANCY)

    @property
    def cu_rows(self) -> np.ndarray:
        return np.flatnonzero(self.occ == S_CU)

    def step(self) -> float | None:
        """One BKL event; returns the time increment (None if frozen)."""
        all_v: list[int] = []
        all_t: list[int] = []
        all_r: list[float] = []
        for v in self.vacancy_rows:
            iv = int(v)
            if iv not in self._cache:
                self._cache[iv] = self.model.vacancy_events(iv, self.occ)
            targets, rates = self._cache[iv]
            all_v.extend([iv] * len(targets))
            all_t.extend(int(t) for t in targets)
            all_r.extend(float(r) for r in rates)
        if not all_r:
            return None
        rates = np.asarray(all_r)
        total = float(rates.sum())
        dt = -math.log(self.rng.random()) / total
        pick = select_event(rates, self.rng.random())
        self.model.execute_swap(self.occ, all_v[pick], all_t[pick])
        for row in self.model.influence_rows([all_v[pick], all_t[pick]]):
            self._cache.pop(int(row), None)
        self.time += dt
        self.events += 1
        return dt

    def run(self, max_events: int) -> AlloyKMCResult:
        """Run to the event budget (or until frozen)."""
        if max_events < 1:
            raise ValueError(f"max_events must be >= 1, got {max_events}")
        while self.events < max_events:
            if self.step() is None:
                break
        return AlloyKMCResult(
            occupancy=self.occ.copy(),
            time=self.time,
            events=self.events,
            cu_ranks=self.model.sites[self.cu_rows],
            vacancy_ranks=self.model.sites[self.vacancy_rows],
        )
