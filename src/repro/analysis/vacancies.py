"""Defect identification from MD state (Wigner-Seitz-style analysis).

The lattice neighbor list makes defect identification trivial compared to
a general MD code: vacancy rows are marked in the site array (negative
IDs, ``AtomState.vacancy_rows()``), and the rows of the run-away table
(``LatticeNeighborList.runaways``) are the interstitials.  These
helpers count and cross-check that inventory.
"""

from __future__ import annotations

from repro.md.neighbors.lattice_list import LatticeNeighborList
from repro.md.state import AtomState


def frenkel_pairs(state: AtomState, nblist: LatticeNeighborList) -> int:
    """Count of vacancy/interstitial (Frenkel) pairs.

    In a cascade every interstitial left a vacancy behind, so the pair
    count is the smaller of the two inventories (captures may have
    annihilated some).
    """
    return min(state.nvacancies, nblist.n_runaways)


def vacancy_concentration(state: AtomState) -> float:
    """Fraction of lattice sites that are vacant — the paper's C_MC.

    "C_MC_v ... is easily obtained by calculating the percentage of
    vacancies in atoms."
    """
    if state.n == 0:
        raise ValueError("state has no sites")
    return state.nvacancies / state.n


def conservation_check(state: AtomState, nblist: LatticeNeighborList) -> bool:
    """Atoms on lattice + run-aways must equal the site count.

    Holds whenever every vacancy was created by exactly one escape and
    every capture consumed exactly one vacancy — the invariant the
    run-away machinery maintains.
    """
    return state.natoms + nblist.n_runaways == state.n
