"""Test oracle: the star EAM kernels, as ``repro.md.forces`` had them.

Until PR 21 a :class:`~repro.md.parallel_damage.ParallelDamageMD` rank
(and :class:`~repro.sunway.kernel.BlockedEAMKernel`) evaluated every
owned central's *full* neighbor star — each bond from both ends, the
geometry once per pass — through these three functions.  ``src/`` now
has one kernel (``density_pass`` + ``force_pass`` over half pairs); the
star kernels, moved here verbatim, are the independent reference it is
compared against.
"""

from __future__ import annotations

import numpy as np

from repro.potential.eam import EAMPotential


def star_geometry(
    x: np.ndarray,
    occupied: np.ndarray,
    centrals: np.ndarray,
    matrix: np.ndarray,
    valid: np.ndarray,
    box,
    cutoff: float,
):
    """Distances from each central row to its static neighbors.

    Returns ``(d, r, mask)`` with shapes ``(C, m, 3)``, ``(C, m)``,
    ``(C, m)``: the displacement vectors, distances, and the mask of
    genuine interactions (valid slot, both occupied, within cutoff).
    Used by the parallel engine, where each owned central accumulates its
    full interaction star (ghost neighbors included).
    """
    xc = x[centrals]
    xn = x[matrix]
    d = xn - xc[:, None, :]
    if box is not None:
        d = box.minimum_image(d)
    r = np.linalg.norm(d, axis=2)
    mask = (
        valid
        & occupied[matrix]
        & occupied[centrals][:, None]
        & (r > 1e-12)
        & (r <= cutoff)
    )
    return d, r, mask


def star_density(
    pot: EAMPotential,
    x: np.ndarray,
    occupied: np.ndarray,
    centrals: np.ndarray,
    matrix: np.ndarray,
    valid: np.ndarray,
    box,
) -> tuple[np.ndarray, float]:
    """Density pass of the parallel kernel.

    Returns ``(rho_centrals, local_pair_energy)``; the pair energy carries
    the EAM 1/2 factor, so summing it over ranks gives the global pair
    term exactly (every bond is seen from both ends).
    """
    _d, r, mask = star_geometry(x, occupied, centrals, matrix, valid, box, pot.cutoff)
    rsafe = np.where(mask, r, pot.cutoff)
    rho_c = np.sum(pot.tables.density(rsafe) * mask, axis=1)
    pair_e = 0.5 * float(np.sum(pot.tables.pair(rsafe) * mask))
    return rho_c, pair_e


def star_forces(
    pot: EAMPotential,
    x: np.ndarray,
    occupied: np.ndarray,
    rho: np.ndarray,
    centrals: np.ndarray,
    matrix: np.ndarray,
    valid: np.ndarray,
    box,
) -> np.ndarray:
    """Force pass of the parallel kernel; forces on the central rows only.

    ``rho`` must hold *converged* densities for every row the matrix can
    touch — ghosts included, which is why the engine exchanges densities
    between the two passes.
    """
    d, r, mask = star_geometry(x, occupied, centrals, matrix, valid, box, pot.cutoff)
    rsafe = np.where(mask, r, pot.cutoff)
    dphi = pot.tables.pair.derivative(rsafe)
    dfd = pot.tables.density.derivative(rsafe)
    demb = pot.tables.embedding.derivative(rho)
    coeff = (dphi + (demb[centrals][:, None] + demb[matrix]) * dfd) / rsafe
    coeff = np.where(mask, coeff, 0.0)
    return np.einsum("cm,cmk->ck", coeff, d)
