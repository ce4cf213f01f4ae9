"""The EAM energy/force kernel — the only one under ``src/``.

The core computation of both MD and KMC (paper §2): a two-pass EAM
evaluation over a half pair list produced by any of the neighbor
structures.  :func:`density_pass` evaluates the pair and density tables
once per pair and accumulates electron densities; :func:`force_pass`
takes *converged* densities and closes the force expression from the
table values the density pass already fetched — the geometry
(:class:`PairTable`) and the table rows are gathered once and shared by
both passes (paper §2.1.2).  :func:`eam_evaluate` is the two back to
back; a :class:`~repro.md.parallel_damage.ParallelDamageMD` rank runs
them over the half pairs it owns with its density exchange in between,
and :class:`~repro.sunway.kernel.BlockedEAMKernel` reads a core group's
share off them.  The same expressions in the same pair order give every
caller the same bits.

All hot loops are NumPy gather/scatter operations; the scatters run
through ``np.bincount(..., minlength=n)``, one contiguous accumulation
per endpoint array in pair order, rather than an unbuffered ufunc
scatter (an order of magnitude slower on large pair lists).

Work counters (exact, free when observation is off): ``md.force.calls``,
``md.geometry.passes``, ``md.pairs.candidate`` / ``md.pairs.kept``
(before / after the cutoff), ``md.spline.rows`` (rows gathered over all
table evaluations) and ``md.runaway.pairs`` (candidate pairs with a
run-away endpoint).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import observe as obs
from repro.md.neighbors.lattice_list import LatticeNeighborList, RunawayTable
from repro.md.state import AtomState
from repro.potential.eam import EAMPotential


@dataclass
class PairTable:
    """A half pair list with precomputed geometry.

    ``i``/``j`` index a flat particle array; ``d`` is the minimum-image
    vector from i to j; ``r`` its length.  Pairs beyond the cutoff have
    already been dropped.
    """

    i: np.ndarray
    j: np.ndarray
    d: np.ndarray
    r: np.ndarray

    @classmethod
    def from_pairs(cls, x: np.ndarray, i, j, box, cutoff: float) -> "PairTable":
        i = np.asarray(i, dtype=np.int64)
        j = np.asarray(j, dtype=np.int64)
        d = np.asarray(x)[j] - np.asarray(x)[i]
        if box is not None:
            d = box.minimum_image(d)
        r = np.linalg.norm(d, axis=-1) if len(i) else np.empty(0)
        keep = (r > 1e-12) & (r <= cutoff)
        table = cls(i=i[keep], j=j[keep], d=d[keep], r=r[keep])
        obs.add("md.geometry.passes")
        obs.add("md.pairs.candidate", len(i))
        obs.add("md.pairs.kept", len(table))
        return table

    def __len__(self) -> int:
        return len(self.i)


@dataclass
class EAMResult:
    """Outcome of one EAM evaluation over a flat particle array."""

    energy: float
    forces: np.ndarray
    rho: np.ndarray
    pair_energy: float
    embed_energy: float


@dataclass
class DensityPass:
    """What the density pass leaves for the force pass.

    Per pair: the pair table's value and derivative ``phi``/``dphi`` and
    the density table's derivative ``dfd``.  Per particle: ``rho``, the
    density accumulated from the pairs given (complete for a particle
    whose every partner is in the list).
    """

    phi: np.ndarray
    dphi: np.ndarray
    dfd: np.ndarray
    rho: np.ndarray


def density_pass(pot: EAMPotential, n: int, pairs: PairTable) -> DensityPass:
    """Pass 1: the two pair-distance tables, and ``rho`` over ``n`` particles."""
    phi, dphi = pot.tables.pair.value_and_derivative(pairs.r)
    fd, dfd = pot.tables.density.value_and_derivative(pairs.r)
    rho = np.bincount(pairs.i, weights=fd, minlength=n) + np.bincount(
        pairs.j, weights=fd, minlength=n
    )
    obs.add("md.spline.rows", 2 * len(pairs))
    return DensityPass(phi, dphi, dfd, rho)


def force_pass(
    pot: EAMPotential, pairs: PairTable, dens: DensityPass, rho: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Pass 2: ``(forces, embedding energies)`` from converged ``rho``.

    ``rho`` must be converged for every particle a pair touches —
    ``dens.rho`` where the pair list is complete, the exchanged
    densities on a rank.  Forces are complete for the same particles
    ``dens.rho`` is.
    """
    n = len(rho)
    emb, demb = pot.tables.embedding.value_and_derivative(rho)
    coeff = (dens.dphi + (demb[pairs.i] + demb[pairs.j]) * dens.dfd) / pairs.r
    fvec = coeff[:, None] * pairs.d
    forces = np.empty((n, 3))
    for k in range(3):
        forces[:, k] = np.bincount(
            pairs.i, weights=fvec[:, k], minlength=n
        ) - np.bincount(pairs.j, weights=fvec[:, k], minlength=n)
    obs.add("md.spline.rows", n)
    obs.add("md.force.calls")
    return forces, emb


def eam_evaluate(
    pot: EAMPotential,
    n: int,
    pairs: PairTable,
    active: np.ndarray | None = None,
) -> EAMResult:
    """Two-pass EAM evaluation over ``n`` particles and a half pair list.

    Parameters
    ----------
    pot:
        The potential.
    n:
        Flat particle count; forces/rho arrays get this length.
    pairs:
        Interacting half pairs with geometry.
    active:
        Boolean mask of particles that exist (embedding energy is summed
        over these).  ``None`` means all.
    """
    if active is None:
        active = np.ones(n, dtype=bool)
    if len(pairs) == 0:
        return EAMResult(0.0, np.zeros((n, 3)), np.zeros(n), 0.0, 0.0)
    dens = density_pass(pot, n, pairs)
    forces, emb = force_pass(pot, pairs, dens, dens.rho)
    pair_energy = float(np.sum(dens.phi))
    embed_energy = float(np.sum(emb[active]))
    return EAMResult(
        energy=pair_energy + embed_energy,
        forces=forces,
        rho=dens.rho,
        pair_energy=pair_energy,
        embed_energy=embed_energy,
    )


def build_pair_table(
    state: AtomState,
    nblist: LatticeNeighborList,
    pot: EAMPotential,
    runs: RunawayTable | None = None,
) -> tuple[PairTable, np.ndarray, np.ndarray, RunawayTable]:
    """All interacting half pairs of a state under the lattice list.

    Combines (1) on-lattice pairs from static index arithmetic, (2)
    run-away/lattice pairs from each run-away's host neighborhood, and
    (3) run-away/run-away pairs from adjacent lists.

    Returns ``(table, x_flat, active_mask, runs)`` over the flat particle
    array: the state's rows first, row ``k`` of ``runs`` at
    ``state.n + k``.  ``runs`` defaults to the list's own run-aways; a
    rank passes its own plus its ghost copies, in host order.
    """
    if runs is None:
        runs = nblist.runaways
    n = state.n
    li, lj = nblist.lattice_pairs(state)
    rows, keep = nblist.runaway_candidates(runs)
    k, slot = np.nonzero(keep & state.occupied[rows])
    a, b = nblist.runaway_pairs(runs, (rows, keep))
    i = np.concatenate([li, n + k, n + a])
    j = np.concatenate([lj, rows[k, slot], n + b])
    x = np.concatenate([state.x, runs.x])
    active = np.concatenate([state.occupied, np.ones(len(runs), dtype=bool)])
    obs.add("md.runaway.pairs", len(i) - len(li))
    table = PairTable.from_pairs(x, i, j, nblist.box, pot.cutoff)
    return table, x, active, runs


def compute_energy_forces(
    pot: EAMPotential, state: AtomState, nblist: LatticeNeighborList
) -> float:
    """Full EAM evaluation; writes forces and rho into ``state`` in place.

    The run-away table's ``f``/``rho`` are updated too.  Returns the
    total potential energy (eV).
    """
    table, x, active, runs = build_pair_table(state, nblist, pot)
    result = eam_evaluate(pot, len(x), table, active)
    state.f[:] = result.forces[: state.n]
    state.f[~state.occupied] = 0.0
    state.rho[:] = result.rho[: state.n]
    state.rho[~state.occupied] = 0.0
    runs.f[:] = result.forces[state.n :]
    runs.rho[:] = result.rho[state.n :]
    return result.energy


def compute_energy_forces_pairs(
    pot: EAMPotential,
    x: np.ndarray,
    i: np.ndarray,
    j: np.ndarray,
    box,
) -> EAMResult:
    """EAM evaluation from an externally produced pair list.

    Used with the baseline neighbor structures (Verlet / linked cell) and
    by the cross-structure equivalence tests.
    """
    table = PairTable.from_pairs(x, i, j, box, pot.cutoff)
    return eam_evaluate(pot, len(x), table)
