"""Analytic iron-like EAM parameterization and its tabulated form.

The paper uses a literature Fe EAM potential (Daw & Baskes form).  We are
reproducing *systems behaviour*, not materials-science numbers, so we
substitute a smooth analytic parameterization with the same structure —
Morse-like pair repulsion/attraction, exponentially decaying electron
density, square-root embedding — and tabulate it into the paper's 5000-knot
interpolation tables.  Every downstream code path (MD forces, KMC migration
energies, the Sunway kernel's table transfers) sees only the tables, so the
substitution preserves all the behaviour under study.  See DESIGN.md.
"""

from __future__ import annotations

from dataclasses import dataclass
import math

import numpy as np

from repro.constants import FE_LATTICE_CONSTANT
from repro.potential.eam import EAMPotential, TableSet
from repro.potential.spline import SplineTable


@dataclass(frozen=True)
class FeParameters:
    """Parameters of the analytic iron-like EAM model.

    The default values are *fitted* (differential evolution over the BCC
    cold curve) so that the perfect BCC crystal at the paper's lattice
    constant a = 2.855 A is the exact energy minimum with a cohesive
    energy of -4.30 eV/atom (the experimental Fe value) and a steep
    compression penalty — i.e. the lattice is mechanically stable at the
    600 K simulation temperature, which the physics stages rely on.

    Attributes
    ----------
    d_morse:
        Pair-potential well depth (eV).
    alpha:
        Morse stiffness (1/A).
    r0:
        Pair-potential minimum position (A).
    beta:
        Electron-density decay rate (dimensionless, in units of ``r/r0``).
    f0:
        Electron-density scale at ``r = r0``.
    a_embed:
        Embedding strength: ``F(rho) = -a_embed * sqrt(rho)`` (eV).
    cutoff:
        Interaction cutoff (A).
    switch_start:
        Start of the smooth truncation window (A).
    """

    d_morse: float = 0.49312512
    alpha: float = 2.31774086
    r0: float = 2.61106684
    beta: float = 7.2309005
    f0: float = 1.0
    a_embed: float = 0.28057156
    cutoff: float = 5.6
    switch_start: float = 5.0

    def switch(self, r: np.ndarray) -> np.ndarray:
        """Cosine smoothing window taking interactions to zero at cutoff."""
        r = np.asarray(r, dtype=float)
        t = np.clip(
            (r - self.switch_start) / (self.cutoff - self.switch_start), 0.0, 1.0
        )
        return np.cos(0.5 * math.pi * t) ** 2

    def pair(self, r: np.ndarray) -> np.ndarray:
        """Morse pair potential phi(r) in eV, smoothly truncated."""
        r = np.asarray(r, dtype=float)
        morse = self.d_morse * (
            (1.0 - np.exp(-self.alpha * (r - self.r0))) ** 2 - 1.0
        )
        return morse * self.switch(r)

    def density(self, r: np.ndarray) -> np.ndarray:
        """Electron-density contribution f(r), smoothly truncated."""
        r = np.asarray(r, dtype=float)
        return self.f0 * np.exp(-self.beta * (r / self.r0 - 1.0)) * self.switch(r)

    def embedding(self, rho: np.ndarray) -> np.ndarray:
        """Embedding energy F(rho) = -a * sqrt(rho) in eV."""
        rho = np.asarray(rho, dtype=float)
        return -self.a_embed * np.sqrt(np.maximum(rho, 0.0))

    def equilibrium_rho(self, a: float = FE_LATTICE_CONSTANT) -> float:
        """Electron density at a perfect BCC site (shell sums to cutoff)."""
        shells = [
            (8, math.sqrt(3.0) / 2.0 * a),
            (6, a),
            (12, math.sqrt(2.0) * a),
            (24, math.sqrt(11.0) / 2.0 * a),
            (8, math.sqrt(3.0) * a),
        ]
        return float(
            sum(n * self.density(d) for n, d in shells if d <= self.cutoff)
        )

    def rho_max(self) -> float:
        """Upper bound of the embedding table domain.

        Sized for cascade worst cases — several neighbors compressed to
        ~1.2 A on top of a full equilibrium shell — while keeping the
        knot spacing fine around the equilibrium density (a domain sized
        from f(0) would put the entire working range into the first few
        spline segments and wreck the interpolation).
        """
        crowded = 6.0 * float(self.density(1.2))
        return 20.0 * self.equilibrium_rho() + crowded


def make_fe_tables(
    params: FeParameters | None = None,
    n: int = 5000,
) -> TableSet:
    """Tabulate the analytic model into a traditional :class:`TableSet`.

    Each table holds ``n`` x 7 spline coefficients;
    ``EAMPotential.with_layout("compacted")`` converts them to ``n``
    samples.

    Parameters
    ----------
    params:
        Model parameters (defaults to :class:`FeParameters`).
    n:
        Number of spline segments (the paper uses 5000).
    """
    params = params or FeParameters()
    return TableSet(
        pair=SplineTable.from_function(params.pair, params.cutoff, n=n, name="pair"),
        density=SplineTable.from_function(
            params.density, params.cutoff, n=n, name="density"
        ),
        embedding=SplineTable.from_function(
            params.embedding, params.rho_max(), n=n, name="embedding"
        ),
    )


def make_fe_potential(
    params: FeParameters | None = None,
    n: int = 5000,
) -> EAMPotential:
    """The iron-like EAM potential used across the reproduction."""
    params = params or FeParameters()
    return EAMPotential(make_fe_tables(params, n=n), params.cutoff)
