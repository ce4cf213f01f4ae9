"""Embedded-atom method (EAM) potential over interpolation tables.

Implements Equations (1)-(3) of the paper:

    E_total = sum_i e_i + sum_i F(rho_i)
    e_i     = 1/2 sum_{j != i} phi_ij(r_ij)
    rho_i   = sum_{j != i} f_ij(r_ij)

where ``phi`` is the pair potential, ``f`` the electron-cloud density
contribution, and ``F`` the embedding energy.  All three are tabulated
functions queried through one cubic-spline table each
(:class:`~repro.potential.spline.SplineTable`).

Force on atom i (the MD kernel's core):

    F_i = - sum_j [ phi'(r_ij) + (F'(rho_i) + F'(rho_j)) * f'(r_ij) ] * r_ij_hat
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.potential.spline import SplineTable


@dataclass
class TableSet:
    """The three interpolation tables of one atomic pair interaction.

    ``pair`` and ``density`` are tabulated over distance ``r`` in
    ``[0, cutoff]``; ``embedding`` is tabulated over electron density
    ``rho`` in ``[0, rho_max]``.
    """

    pair: SplineTable
    density: SplineTable
    embedding: SplineTable

    @property
    def nbytes(self) -> int:
        """Total payload bytes of the three tables."""
        return self.pair.nbytes + self.density.nbytes + self.embedding.nbytes


class EAMPotential:
    """EAM energy/force evaluation backed by a :class:`TableSet`.

    Parameters
    ----------
    tables:
        The pair / density / embedding tables.
    cutoff:
        Interaction cutoff radius in angstrom.  Must not exceed the
        tabulated distance range.
    """

    def __init__(self, tables: TableSet, cutoff: float) -> None:
        if cutoff <= 0:
            raise ValueError(f"cutoff must be positive, got {cutoff}")
        if cutoff > tables.pair.xmax + 1e-9:
            raise ValueError(
                f"cutoff {cutoff} exceeds pair table range {tables.pair.xmax}"
            )
        self.tables = tables
        self.cutoff = float(cutoff)

    # ------------------------------------------------------------------
    # Scalar/vectorized table queries
    # ------------------------------------------------------------------
    def phi(self, r):
        """Pair potential at distance(s) ``r``; zero beyond the cutoff."""
        r = np.asarray(r, dtype=float)
        return np.where(r <= self.cutoff, self.tables.pair(r), 0.0)

    def dphi(self, r):
        """Pair potential derivative; zero beyond the cutoff."""
        r = np.asarray(r, dtype=float)
        return np.where(r <= self.cutoff, self.tables.pair.derivative(r), 0.0)

    def fdens(self, r):
        """Electron-density contribution at distance(s) ``r``."""
        r = np.asarray(r, dtype=float)
        return np.where(r <= self.cutoff, self.tables.density(r), 0.0)

    def dfdens(self, r):
        """Density contribution derivative."""
        r = np.asarray(r, dtype=float)
        return np.where(r <= self.cutoff, self.tables.density.derivative(r), 0.0)

    def embed(self, rho):
        """Embedding energy at density(ies) ``rho``."""
        return self.tables.embedding(rho)

    def dembed(self, rho):
        """Embedding energy derivative."""
        return self.tables.embedding.derivative(rho)

    # ------------------------------------------------------------------
    # Cluster-level evaluation (used by KMC rates and as a reference
    # implementation for the MD force kernels)
    # ------------------------------------------------------------------
    def site_energy(self, distances: np.ndarray) -> float:
        """Energy of one atom given distances to all neighbors in cutoff.

        ``e_i + F(rho_i)`` of Equations (1)-(3); the 1/2 on the pair term
        assigns half of each bond to this atom.
        """
        d = np.asarray(distances, dtype=float)
        d = d[d <= self.cutoff]
        rho = float(np.sum(self.fdens(d)))
        return 0.5 * float(np.sum(self.phi(d))) + float(self.embed(rho))

    def total_energy(self, positions: np.ndarray, box=None) -> float:
        """Reference O(N^2) total energy of a small configuration.

        Intended for tests and tiny systems only; production paths go
        through the neighbor structures in :mod:`repro.md`.
        """
        pos = np.asarray(positions, dtype=float)
        delta = pos[None, :, :] - pos[:, None, :]
        if box is not None:
            delta = box.minimum_image(delta)
        r = np.linalg.norm(delta, axis=-1)
        mask = (r > 0) & (r <= self.cutoff)
        pair = 0.5 * np.sum(self.phi(np.where(mask, r, self.cutoff + 1.0)) * mask)
        rho = np.sum(self.fdens(np.where(mask, r, self.cutoff + 1.0)) * mask, axis=1)
        return float(pair + np.sum(self.embed(rho)))

    def pairwise_forces(self, positions: np.ndarray, box=None) -> np.ndarray:
        """Reference O(N^2) forces of a small configuration (eV/A)."""
        pos = np.asarray(positions, dtype=float)
        delta = pos[None, :, :] - pos[:, None, :]  # delta[i, j] = r_j - r_i
        if box is not None:
            delta = box.minimum_image(delta)
        r = np.linalg.norm(delta, axis=-1)
        mask = (r > 0) & (r <= self.cutoff)
        rsafe = np.where(mask, r, 1.0)
        rho = np.sum(self.fdens(rsafe) * mask, axis=1)
        dF = self.dembed(rho)
        # Scalar bond force magnitude / r for each pair.
        coeff = (self.dphi(rsafe) + (dF[:, None] + dF[None, :]) * self.dfdens(rsafe))
        coeff = np.where(mask, coeff / rsafe, 0.0)
        # F_i = -sum_j coeff_ij * (r_i - r_j) = +sum_j coeff_ij * delta_ij
        return np.einsum("ij,ijk->ik", coeff, delta)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"EAMPotential(cutoff={self.cutoff}, nbytes={self.tables.nbytes})"
        )
