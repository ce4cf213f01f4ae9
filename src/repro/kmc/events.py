"""On-lattice EAM energetics and vacancy-hop event rates (Equation 4).

The AKMC model maps every atom/vacancy to a lattice point, so all
interaction distances are *static* shell distances and the EAM site energy
reduces to masked dot products over precomputed per-slot constants:

    E_site(s) = 1/2 * sum_m occ[nbr_m(s)] * phi(d_m)
              + F( sum_m occ[nbr_m(s)] * f(d_m) )

A vacancy at site v may exchange with any occupied first-shell neighbor t
("eight possible events for a vacancy"); the transition rate is

    k = nu * exp(-dE / (kB * T)),
    dE = max(e_m0 + (E_after - E_before) / 2, dE_min)

with ``E_before`` the EAM site energy of the hopping atom at t and
``E_after`` its energy once placed at v (with t vacated) — the standard
broken-bond AKMC form with the EAM supplying the bond energies, matching
"KMC uses the EAM potential to calculate the probability of the vacancy
transition".
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro import observe as obs
from repro.constants import KB_EV
from repro.lattice.bcc import FIRST_SHELL, BCCLattice, SiteSet, sorted_unique
from repro.potential.eam import EAMPotential

#: Occupancy codes of the site array.
ATOM: int = 1
VACANCY: int = 0


@dataclass(frozen=True)
class RateParameters:
    """Physical parameters of the vacancy-hop rate model.

    Attributes
    ----------
    nu:
        Attempt frequency (pre-exponential factor) in 1/ps; the canonical
        Debye-scale value is ~10/ps (1e13 Hz).
    e_m0:
        Reference migration barrier in eV (Fe vacancy ~0.65 eV).
    temperature:
        Temperature in K (the paper evaluates at 600 K).
    energy_cutoff:
        EAM shell radius (angstrom) used for on-lattice site energies.
        The default covers the first two BCC shells — the dominant bond
        contributions — keeping ghost shells thin.
    de_min:
        Floor on the migration energy (a hop is never barrier-free).
    """

    nu: float = 10.0
    e_m0: float = 0.65
    temperature: float = 600.0
    energy_cutoff: float = 2.9
    de_min: float = 0.02

    def __post_init__(self) -> None:
        if self.nu <= 0:
            raise ValueError(f"nu must be positive, got {self.nu}")
        if self.temperature <= 0:
            raise ValueError(f"temperature must be positive, got {self.temperature}")
        if self.energy_cutoff <= 0:
            raise ValueError("energy_cutoff must be positive")

    @property
    def kt(self) -> float:
        """kB*T in eV."""
        return KB_EV * self.temperature

    @property
    def reference_rate(self) -> float:
        """The hop rate at the reference barrier, ``nu * exp(-e_m0/kT)``.

        Occupancy-independent, so every rank (and every communication
        scheme) derives identical synchronous time steps from it.
        """
        return self.nu * math.exp(-self.e_m0 / self.kt)


class KMCModel:
    """Pure-iron on-lattice rate model over one site set and one EAM potential.

    Owns everything the AKMC engines and the event catalog touch: the
    site set, the static energy and first-shell stencils with their
    per-slot ``phi`` / ``f`` constants, the influence map, swap
    execution, the rate cap and the occupancy check.

    Parameters
    ----------
    lattice:
        Global BCC lattice.
    potential:
        The :class:`~repro.potential.eam.EAMPotential` supplying phi / f / F.
    params:
        Rate parameters (``nu``, ``kt``, ``e_m0``, ``de_min``,
        ``energy_cutoff``).
    sites:
        Sorted global site ranks covered (``None`` = full lattice).
    rate_cap:
        Optional per-event rate ceiling.  The EAM correction can push a
        barrier below the reference (only the ``de_min`` floor limits
        it), so event rates can exceed the reference rate.  Engines
        whose cycle dt is derived from that reference (the
        sector-synchronous parallel engine) pass a cap here so the dt
        invariant actually holds; every clamped event is counted on the
        ``kmc.rate_bound.clamped`` observe counter.  ``None`` (the
        default, used by the exact serial engine) leaves rates
        untouched.

    The model itself is stateless with respect to occupancy: engines own
    the occupancy array and pass it in.
    """

    def __init__(
        self,
        lattice: BCCLattice,
        potential: EAMPotential,
        params: RateParameters,
        sites: np.ndarray | None = None,
        rate_cap: float | None = None,
    ) -> None:
        if rate_cap is not None and rate_cap <= 0:
            raise ValueError(f"rate_cap must be positive, got {rate_cap}")
        self.lattice = lattice
        self.potential = potential
        self.params = params
        self.rate_cap = rate_cap
        self.site_set = SiteSet(lattice, sites)
        self.sites = self.site_set.ranks
        # Energy shell, non-strict: rows deep in the ghost shell miss
        # some neighbors, but energies are only ever evaluated within
        # one hop of owned sites, where the ghost width guarantees a
        # complete stencil.
        offsets = lattice.offsets_within(params.energy_cutoff)
        self.e_matrix, self.e_valid = self.site_set.neighbor_rows(offsets)
        # Static lattice distance per slot, one row per basis (site s
        # reads row s % 2; unused slots hold 0): the splines see the two
        # per-basis distance rows, not one per site.
        e_dist = np.zeros((2, offsets.max_count))
        e_dist[0, : len(offsets.corner)] = offsets.corner_distances * lattice.a
        e_dist[1, : len(offsets.center)] = offsets.center_distances * lattice.a
        basis = self.sites % 2
        safe = np.where(e_dist > 0, e_dist, potential.cutoff)
        self.phi_slots = np.where(self.e_valid, potential.phi(safe)[basis], 0.0)
        self.f_slots = np.where(self.e_valid, potential.fdens(safe)[basis], 0.0)
        # First shell: the 8 exchange partners of every site.
        self.first_matrix, self.first_valid = self.site_set.neighbor_rows(
            FIRST_SHELL
        )
        self._influence: tuple[np.ndarray, np.ndarray] | None = None

    @staticmethod
    def checked_occupancy(lattice: BCCLattice, occupancy) -> np.ndarray:
        """``occupancy`` as an int8 full-lattice array of ATOM/VACANCY codes.

        Raises ``ValueError`` on a wrong length or on any other site code
        (an unknown code would otherwise be read as a multiple of an
        atom or freeze the lattice).
        """
        occ = np.asarray(occupancy, dtype=np.int8)
        if len(occ) != lattice.nsites:
            raise ValueError(
                f"occupancy covers {len(occ)} sites, the lattice has "
                f"{lattice.nsites}"
            )
        codes = (VACANCY, ATOM)
        bad = np.flatnonzero((occ != VACANCY) & (occ != ATOM))
        if len(bad):
            raise ValueError(
                f"occupancy code {int(occ[bad[0]])} at site rank "
                f"{int(bad[0])} is not a site code of KMCModel "
                f"(accepted codes: {codes})"
            )
        return occ

    def influence_rows(self, rows) -> np.ndarray:
        """Rows whose event rates can depend on occupancy at ``rows``.

        A vacancy's rates read occupancy within (first shell + energy
        cutoff) of it; inverting, a change at site s can affect vacancies
        within that radius.  Used to invalidate cached rates after a swap.
        Built lazily (non-strict: edge-of-ghost rows simply see fewer
        influencers, which is safe because no rates are evaluated there).
        """
        if self._influence is None:
            reach = (
                math.sqrt(3.0) / 2.0 * self.lattice.a
                + self.params.energy_cutoff
                + 1e-9
            )
            self._influence = self.site_set.neighbor_rows(
                self.lattice.offsets_within(reach)
            )
        matrix, valid = self._influence
        rows = np.atleast_1d(np.asarray(rows, dtype=np.int64))
        out = matrix[rows][valid[rows]]
        return sorted_unique(np.concatenate([out, rows]))

    @property
    def nrows(self) -> int:
        return len(self.sites)

    def perfect_occupancy(self) -> np.ndarray:
        """Defect-free occupancy: every site holds an atom."""
        return np.full(self.nrows, ATOM, dtype=np.int8)

    def _apply_rate_cap(self, rates: np.ndarray) -> np.ndarray:
        """Clamp rates to ``rate_cap`` and count every clamped event.

        Applied after the exp, to the whole rate array of a batch.
        """
        cap = self.rate_cap
        if cap is None or len(rates) == 0:
            return rates
        over = int(np.count_nonzero(rates > cap))
        if over:
            obs.add("kmc.rate_bound.clamped", over)
            rates = np.minimum(rates, cap)
        return rates

    def execute_swap(self, occ: np.ndarray, vrow: int, trow: int) -> None:
        """Move the atom at ``trow`` into the vacancy at ``vrow``, in place."""
        if occ[vrow] != VACANCY or occ[trow] == VACANCY:
            raise ValueError(
                f"invalid swap: occ[{vrow}]={occ[vrow]}, occ[{trow}]={occ[trow]}"
            )
        occ[vrow] = occ[trow]
        occ[trow] = VACANCY

    # ------------------------------------------------------------------
    # Energetics
    # ------------------------------------------------------------------
    def site_energy(self, rows, occ: np.ndarray) -> np.ndarray:
        """EAM site energy of an atom at each of ``rows`` under ``occ``."""
        rows = np.atleast_1d(np.asarray(rows, dtype=np.int64))
        occ_n = occ[self.e_matrix[rows]] * self.e_valid[rows]
        pair = 0.5 * np.sum(occ_n * self.phi_slots[rows], axis=1)
        rho = np.sum(occ_n * self.f_slots[rows], axis=1)
        return pair + self.potential.embed(rho)

    # ------------------------------------------------------------------
    # Events
    # ------------------------------------------------------------------
    def vacancy_events_batch(
        self, vrows, occ: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(counts, targets, rates) of every hop of the vacancies at ``vrows``.

        Requires ``occ[v] == VACANCY`` for each ``v``.  Targets are the
        occupied first-shell neighbors, rates follow Equation (4).
        ``counts[k]`` events of ``vrows[k]`` are stored consecutively in
        the flat ``targets`` / ``rates`` arrays, in first-shell slot
        order.  Every array reduction runs row-wise, so a vacancy's rates
        do not depend on which other rows share its batch.
        """
        vrows = np.atleast_1d(np.asarray(vrows, dtype=np.int64))
        nv = len(vrows)
        if nv == 0:
            return (
                np.zeros(0, dtype=np.int64),
                np.empty(0, dtype=np.int64),
                np.empty(0),
            )
        if np.any(occ[vrows] != VACANCY):
            bad = vrows[occ[vrows] != VACANCY][0]
            raise ValueError(f"row {int(bad)} does not hold a vacancy")
        cand = self.first_matrix[vrows]
        ev_mask = self.first_valid[vrows] & (occ[cand] == ATOM)
        counts = ev_mask.sum(axis=1).astype(np.int64)
        vidx, slot = np.nonzero(ev_mask)  # row-major: per-vacancy order kept
        targets = cand[vidx, slot]
        if len(targets) == 0:
            return counts, targets, np.empty(0)
        e_before = self.site_energy(targets, occ)
        # E_after: the atom sits at the vacancy with its origin vacated.
        # Per-vacancy (sum phi, sum f) under current occupancy, then
        # per-event removal of the hopping atom's own contribution.
        occ_n = occ[self.e_matrix[vrows]] * self.e_valid[vrows]
        s_phi = np.sum(occ_n * self.phi_slots[vrows], axis=1)
        s_f = np.sum(occ_n * self.f_slots[vrows], axis=1)
        slots_e = self.e_matrix[vrows][vidx]
        match = self.e_valid[vrows][vidx] & (slots_e == targets[:, None])
        dphi = np.sum(self.phi_slots[vrows][vidx] * match, axis=1)
        df = np.sum(self.f_slots[vrows][vidx] * match, axis=1)
        e_after = 0.5 * (s_phi[vidx] - dphi) + self.potential.embed(s_f[vidx] - df)
        de = np.maximum(
            self.params.e_m0 + 0.5 * (e_after - e_before), self.params.de_min
        )
        rates = self.params.nu * np.exp(-de / self.params.kt)
        return counts, targets, self._apply_rate_cap(rates)
