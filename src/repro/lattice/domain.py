"""3-D domain decomposition of the BCC cell grid.

Both MD and KMC use "standard domain decomposition to equally partition the
simulation box" (paper §2): the grid of conventional cells is split over a
Cartesian grid of processes, each process owning one box-shaped subdomain
plus a shell of *ghost* cells mirrored from its neighbors.

The unit of decomposition is the conventional cell (2 sites), so sites are
never split between processes and the paper's static site indexing works
unchanged inside each subdomain.

Every halo question — which of my rows does neighbor *n* hold, which
must I send it, which does it fill in — is answered from the local rows'
own cell coordinates by two labels: the rank that owns each cell
(:meth:`DomainDecomposition.owner_of_cells`) and whether a box dilated
by a width covers it (:meth:`Subdomain.covers`).  The MD ghost plans,
the KMC interest masks and the KMC strip sets all read these two; no
rank builds a neighbor's site set.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from repro.lattice.bcc import BCCLattice, SiteSet

#: The 26 nonzero neighbor directions of a 3-D Cartesian decomposition.
DIRECTIONS: tuple[tuple[int, int, int], ...] = tuple(
    d for d in product((-1, 0, 1), repeat=3) if d != (0, 0, 0)
)


def split_range(n: int, parts: int) -> list[tuple[int, int]]:
    """Split ``range(n)`` into ``parts`` contiguous near-equal pieces.

    The first ``n % parts`` pieces get one extra element, matching the
    usual block distribution of MPI codes.
    """
    if parts < 1:
        raise ValueError(f"parts must be >= 1, got {parts}")
    if n < parts:
        raise ValueError(f"cannot split {n} cells into {parts} parts")
    base, extra = divmod(n, parts)
    bounds = []
    lo = 0
    for p in range(parts):
        hi = lo + base + (1 if p < extra else 0)
        bounds.append((lo, hi))
        lo = hi
    return bounds


def choose_grid(nprocs: int, cells: tuple[int, int, int]) -> tuple[int, int, int]:
    """Pick a process grid ``(px, py, pz)`` with ``px*py*pz == nprocs``.

    Chooses the factorization minimizing subdomain surface-to-volume (the
    same heuristic MPI_Dims_create applies), subject to each axis having at
    least one cell per process.
    """
    if nprocs < 1:
        raise ValueError(f"nprocs must be >= 1, got {nprocs}")
    best = None
    best_score = None
    for px in range(1, nprocs + 1):
        if nprocs % px:
            continue
        rest = nprocs // px
        for py in range(1, rest + 1):
            if rest % py:
                continue
            pz = rest // py
            if px > cells[0] or py > cells[1] or pz > cells[2]:
                continue
            # Surface area of a subdomain, in cell units.
            sx = cells[0] / px
            sy = cells[1] / py
            sz = cells[2] / pz
            score = sx * sy + sy * sz + sx * sz
            if best_score is None or score < best_score:
                best_score = score
                best = (px, py, pz)
    if best is None:
        raise ValueError(
            f"no valid process grid for nprocs={nprocs} over cells={cells}"
        )
    return best


def _cells_to_ranks(lattice: BCCLattice, ci, cj, ck) -> np.ndarray:
    """Site ranks (both basis sites) of the given cells, flattened."""
    ci = np.asarray(ci).ravel()
    cj = np.asarray(cj).ravel()
    ck = np.asarray(ck).ravel()
    r0 = lattice.rank_of(np.zeros_like(ci), ci, cj, ck)
    r1 = lattice.rank_of(np.ones_like(ci), ci, cj, ck)
    return np.concatenate([r0, r1])


@dataclass(frozen=True)
class Subdomain:
    """One process's share of the cell grid.

    ``cell_lo``/``cell_hi`` are half-open cell ranges along each axis in
    *global* (unwrapped) cell coordinates.
    """

    proc: tuple[int, int, int]
    cell_lo: tuple[int, int, int]
    cell_hi: tuple[int, int, int]

    @property
    def shape(self) -> tuple[int, int, int]:
        """Subdomain extent in cells along each axis."""
        return tuple(h - l for l, h in zip(self.cell_lo, self.cell_hi, strict=True))

    @property
    def ncells(self) -> int:
        sx, sy, sz = self.shape
        return sx * sy * sz

    @property
    def nsites(self) -> int:
        return 2 * self.ncells

    def _check_width(self, width: int) -> None:
        if width < 1:
            raise ValueError(f"ghost width must be >= 1, got {width}")
        if any(width > s for s in self.shape):
            raise ValueError(
                f"ghost width {width} exceeds subdomain shape {self.shape}"
            )

    def covers(self, lattice: BCCLattice, cells, width: int) -> np.ndarray:
        """Which of the ``cells`` lie in this box dilated by ``width``.

        ``cells`` is ``(ci, cj, ck)``, wrapped cell coordinates (as
        ``lattice.coords_of`` returns them), and the dilated box wraps
        too, so this is the membership mask of :meth:`site_set` at that
        width — the owned sites and ghost shell of this box.
        """
        mask = np.ones(np.shape(cells[0]), dtype=bool)
        dims = (lattice.nx, lattice.ny, lattice.nz)
        for c, lo, hi, n in zip(cells, self.cell_lo, self.cell_hi, dims, strict=True):
            axis = np.zeros(n, dtype=bool)
            axis[np.arange(lo - width, hi + width) % n] = True
            mask &= axis[c]
        return mask

    def in_shell(self, lattice: BCCLattice, cells, width: int) -> np.ndarray:
        """Which of the ``cells`` lie in the ``width``-cell ghost shell.

        Covered at ``width`` but not by the box itself: the membership
        test of :meth:`all_ghost_site_ranks` whenever the box plus one
        rim fits each axis without wrapping onto itself (true of every
        KMC sector box).
        """
        return self.covers(lattice, cells, width) & ~self.covers(lattice, cells, 0)

    def owned_cell_arrays(self):
        """Meshgrid arrays of all owned cells."""
        return np.meshgrid(
            np.arange(self.cell_lo[0], self.cell_hi[0]),
            np.arange(self.cell_lo[1], self.cell_hi[1]),
            np.arange(self.cell_lo[2], self.cell_hi[2]),
            indexing="ij",
        )

    def owned_site_ranks(self, lattice: BCCLattice) -> np.ndarray:
        """Global site ranks of all sites owned by this subdomain."""
        ci, cj, ck = self.owned_cell_arrays()
        return np.sort(_cells_to_ranks(lattice, ci, cj, ck))

    def all_ghost_site_ranks(self, lattice: BCCLattice, width: int) -> np.ndarray:
        """Unique site ranks of the full ghost shell (all 26 directions).

        Computed as one vectorized sweep over the dilated bounding box
        minus the owned interior (equivalent to unioning the 26
        directional blocks, but one meshgrid instead of 26).
        """
        self._check_width(width)
        ci, cj, ck = np.meshgrid(
            np.arange(self.cell_lo[0] - width, self.cell_hi[0] + width),
            np.arange(self.cell_lo[1] - width, self.cell_hi[1] + width),
            np.arange(self.cell_lo[2] - width, self.cell_hi[2] + width),
            indexing="ij",
        )
        interior = (
            (ci >= self.cell_lo[0])
            & (ci < self.cell_hi[0])
            & (cj >= self.cell_lo[1])
            & (cj < self.cell_hi[1])
            & (ck >= self.cell_lo[2])
            & (ck < self.cell_hi[2])
        )
        shell = ~interior
        return np.unique(
            _cells_to_ranks(lattice, ci[shell], cj[shell], ck[shell])
        )

    def site_set(
        self, lattice: BCCLattice, width: int
    ) -> tuple[SiteSet, np.ndarray]:
        """``(sites, owned rows)``: the local site index of this subdomain.

        ``sites`` covers the owned sites plus the ``width``-cell ghost
        shell — the row layout of every per-rank array, for MD and KMC
        alike; ``sites.ranks[owned rows]`` are the owned site ranks.
        """
        owned = self.owned_site_ranks(lattice)
        sites = SiteSet(
            lattice, np.union1d(owned, self.all_ghost_site_ranks(lattice, width))
        )
        return sites, sites.rows_of(owned)

    def sectors(self) -> list["Subdomain"]:
        """Split into the 8 Shim-Amar sectors (2 x 2 x 2 halves).

        KMC processes sectors sequentially so that concurrently-active
        regions on different processes are never adjacent (paper Figure 7).
        Axes with only one cell cannot be halved; such axes keep a single
        sector slab, so degenerate subdomains yield fewer than 8 sectors.
        """
        axis_splits = []
        for axis in range(3):
            lo, hi = self.cell_lo[axis], self.cell_hi[axis]
            if hi - lo >= 2:
                mid = (lo + hi) // 2
                axis_splits.append([(lo, mid), (mid, hi)])
            else:
                axis_splits.append([(lo, hi)])
        out = []
        for (xl, xh), (yl, yh), (zl, zh) in product(*axis_splits):
            out.append(
                Subdomain(
                    proc=self.proc,
                    cell_lo=(xl, yl, zl),
                    cell_hi=(xh, yh, zh),
                )
            )
        return out


class DomainDecomposition:
    """Cartesian decomposition of a :class:`BCCLattice` over processes.

    Parameters
    ----------
    lattice:
        The global lattice.
    grid:
        Process grid ``(px, py, pz)``; use :func:`choose_grid` to pick one.
    """

    def __init__(self, lattice: BCCLattice, grid: tuple[int, int, int]) -> None:
        px, py, pz = grid
        if px < 1 or py < 1 or pz < 1:
            raise ValueError(f"process grid must be positive, got {grid}")
        self.lattice = lattice
        self.grid = (int(px), int(py), int(pz))
        self._bounds_x = split_range(lattice.nx, px)
        self._bounds_y = split_range(lattice.ny, py)
        self._bounds_z = split_range(lattice.nz, pz)

    @property
    def nprocs(self) -> int:
        px, py, pz = self.grid
        return px * py * pz

    def proc_coords(self, rank: int) -> tuple[int, int, int]:
        """Process grid coordinates of linear process ``rank`` (row-major)."""
        px, py, pz = self.grid
        if not 0 <= rank < self.nprocs:
            raise ValueError(f"process rank {rank} out of range")
        pz_i = rank % pz
        rest = rank // pz
        py_i = rest % py
        px_i = rest // py
        return (px_i, py_i, pz_i)

    def proc_rank(self, coords) -> int:
        """Inverse of :meth:`proc_coords`, with periodic wrapping."""
        px, py, pz = self.grid
        cx, cy, cz = (coords[0] % px, coords[1] % py, coords[2] % pz)
        return (cx * py + cy) * pz + cz

    def subdomain(self, rank: int) -> Subdomain:
        """The :class:`Subdomain` owned by linear process ``rank``."""
        cx, cy, cz = self.proc_coords(rank)
        (xlo, xhi) = self._bounds_x[cx]
        (ylo, yhi) = self._bounds_y[cy]
        (zlo, zhi) = self._bounds_z[cz]
        return Subdomain(
            proc=(cx, cy, cz), cell_lo=(xlo, ylo, zlo), cell_hi=(xhi, yhi, zhi)
        )

    def owner_of_cells(self, ci, cj, ck) -> np.ndarray:
        """Linear ranks owning the given (periodically wrapped) cells."""
        lat = self.lattice
        px, py, pz = (
            np.repeat(np.arange(len(bounds)), [hi - lo for lo, hi in bounds])
            for bounds in (self._bounds_x, self._bounds_y, self._bounds_z)
        )
        _px, npy, npz = self.grid
        return (px[ci % lat.nx] * npy + py[cj % lat.ny]) * npz + pz[ck % lat.nz]

    def owner_of_site(self, site_rank: int) -> int:
        """Linear rank of the process owning a global site."""
        _b, i, j, k = self.lattice.coords_of(site_rank)
        return int(self.owner_of_cells(i, j, k))

    def neighbor_rank(self, rank: int, direction) -> int:
        """Linear rank of the neighbor of ``rank`` toward ``direction``."""
        cx, cy, cz = self.proc_coords(rank)
        return self.proc_rank((cx + direction[0], cy + direction[1], cz + direction[2]))

    def neighbors(self, rank: int) -> list[int]:
        """The distinct ranks other than ``rank`` adjacent to it, ascending.

        Small grids alias directions (on a 2-rank axis -1 and +1 lead to
        one rank, on a 1-rank axis back to ``rank``), so a rank can have
        fewer than 26.
        """
        return sorted({self.neighbor_rank(rank, d) for d in DIRECTIONS} - {rank})

    def ghost_width_cells(self, cutoff: float) -> int:
        """Ghost shell width in cells needed to cover ``cutoff`` angstrom."""
        import math

        return max(1, int(math.ceil(cutoff / self.lattice.a)))

    def require_cells(self, need: int, purpose: str) -> None:
        """Fail unless every subdomain spans ``need`` cells along each axis.

        The parallel engines call this when they are constructed, so an
        infeasible lattice/rank combination is a ``ValueError`` naming
        the geometry instead of a failure inside some rank of a running
        world.
        """
        smallest = tuple(
            min(hi - lo for lo, hi in bounds)
            for bounds in (self._bounds_x, self._bounds_y, self._bounds_z)
        )
        if min(smallest) < need:
            lat = self.lattice
            raise ValueError(
                f"a {lat.nx}x{lat.ny}x{lat.nz}-cell lattice over process "
                f"grid {self.grid} ({self.nprocs} ranks) leaves subdomains "
                f"as small as {smallest} cells; {purpose} needs >= {need} "
                "cells per axis: use more cells or fewer ranks"
            )

