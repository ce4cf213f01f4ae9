"""Body-centered cubic lattice geometry and site indexing.

A BCC crystal is represented as a simple-cubic grid of *conventional cells*
with a two-site basis: basis 0 at the cell corner, basis 1 at the cell
center (Figure 1 of the paper).  Site coordinates are

    pos(b, i, j, k) = (i + b/2, j + b/2, k + b/2) * a

with the lattice constant ``a`` and periodic images along all axes.

Sites carry a dense integer *rank* that orders them by spatial location —
the storage order of the paper's lattice neighbor list (Figure 2).  The
rank layout interleaves the two basis sites of a cell so spatially adjacent
sites stay adjacent in memory:

    rank(b, i, j, k) = ((i * ny + j) * nz + k) * 2 + b

Because every site of a given basis sees the *same* pattern of neighbors,
the neighbor ranks of any site can be computed from a static offset table
(:class:`NeighborOffsets`) — no per-atom neighbor storage is required.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
import math

import numpy as np

from repro.constants import FE_LATTICE_CONSTANT


@dataclass(frozen=True)
class NeighborOffsets:
    """Static per-basis neighbor offset tables for a cutoff radius.

    ``corner`` and ``center`` are integer arrays of shape ``(m, 4)`` whose
    rows are ``(db, di, dj, dk)``: the *relative* basis flip and cell
    displacement from a central site of basis 0 / basis 1 respectively to
    each neighbor within the cutoff.  ``distances`` hold the corresponding
    geometric distances in units of the lattice constant.
    """

    corner: np.ndarray
    center: np.ndarray
    corner_distances: np.ndarray
    center_distances: np.ndarray
    cutoff: float

    def for_basis(self, basis: int) -> np.ndarray:
        """Offset rows for a central site of the given basis (0 or 1)."""
        if basis == 0:
            return self.corner
        if basis == 1:
            return self.center
        raise ValueError(f"basis must be 0 or 1, got {basis}")

    @property
    def max_count(self) -> int:
        """Largest neighbor count over the two bases."""
        return max(len(self.corner), len(self.center))


def _shell(corner, center, distance: float) -> NeighborOffsets:
    """One neighbor shell as an offset table, slots in the order listed."""
    return NeighborOffsets(
        corner=np.array(corner, dtype=np.int64),
        center=np.array(center, dtype=np.int64),
        corner_distances=np.full(len(corner), distance),
        center_distances=np.full(len(center), distance),
        cutoff=distance,
    )


#: First shell: 8 sites of the other basis at sqrt(3)/2 * a — from a
#: corner site in this cell and the cells at -1 along each axis subset,
#: from a center site at +1.
FIRST_SHELL = _shell(
    [(1, di, dj, dk) for di in (0, -1) for dj in (0, -1) for dk in (0, -1)],
    [(1, di, dj, dk) for di in (0, 1) for dj in (0, 1) for dk in (0, 1)],
    math.sqrt(3.0) / 2.0,
)
_AXES = [
    (0, 1, 0, 0), (0, -1, 0, 0), (0, 0, 1, 0),
    (0, 0, -1, 0), (0, 0, 0, 1), (0, 0, 0, -1),
]
#: Second shell: 6 same-basis sites at distance a.
SECOND_SHELL = _shell(_AXES, _AXES, 1.0)


class BCCLattice:
    """A periodic BCC lattice of ``nx * ny * nz`` conventional cells.

    Parameters
    ----------
    nx, ny, nz:
        Number of conventional cells along each axis (>= 1).
    a:
        Lattice constant in angstrom.
    """

    def __init__(
        self,
        nx: int,
        ny: int,
        nz: int,
        a: float = FE_LATTICE_CONSTANT,
    ) -> None:
        for name, n in (("nx", nx), ("ny", ny), ("nz", nz)):
            if n < 1:
                raise ValueError(f"{name} must be >= 1, got {n}")
        if a <= 0:
            raise ValueError(f"lattice constant must be positive, got {a}")
        self.nx = int(nx)
        self.ny = int(ny)
        self.nz = int(nz)
        self.a = float(a)

    # ------------------------------------------------------------------
    # Basic shape
    # ------------------------------------------------------------------
    @property
    def ncells(self) -> int:
        """Number of conventional cells."""
        return self.nx * self.ny * self.nz

    @property
    def nsites(self) -> int:
        """Number of lattice sites (2 per conventional cell)."""
        return 2 * self.ncells

    @property
    def lengths(self) -> np.ndarray:
        """Periodic box lengths in angstrom, shape (3,)."""
        return np.array([self.nx, self.ny, self.nz], dtype=float) * self.a

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"BCCLattice(nx={self.nx}, ny={self.ny}, nz={self.nz}, "
            f"a={self.a}, nsites={self.nsites})"
        )

    # ------------------------------------------------------------------
    # Rank <-> (basis, cell) <-> coordinates
    # ------------------------------------------------------------------
    def rank_of(self, b, i, j, k):
        """Dense site rank for basis ``b`` and cell ``(i, j, k)``.

        Cell indices are wrapped periodically, so any integers are valid.
        Accepts scalars or equal-shaped integer arrays.
        """
        b = np.asarray(b)
        i = np.mod(np.asarray(i), self.nx)
        j = np.mod(np.asarray(j), self.ny)
        k = np.mod(np.asarray(k), self.nz)
        if np.any((b != 0) & (b != 1)):
            raise ValueError("basis index must be 0 or 1")
        return ((i * self.ny + j) * self.nz + k) * 2 + b

    def coords_of(self, rank):
        """Inverse of :meth:`rank_of`: ``(b, i, j, k)`` for each rank."""
        rank = np.asarray(rank)
        if np.any(rank < 0) or np.any(rank >= self.nsites):
            raise ValueError("site rank out of range")
        b = rank % 2
        cell = rank // 2
        k = cell % self.nz
        cell //= self.nz
        j = cell % self.ny
        i = cell // self.ny
        return b, i, j, k

    def position_of(self, rank) -> np.ndarray:
        """Cartesian positions (angstrom) of sites; shape ``rank.shape + (3,)``."""
        b, i, j, k = self.coords_of(rank)
        half = 0.5 * np.asarray(b, dtype=float)
        return np.stack(
            [
                (np.asarray(i, dtype=float) + half) * self.a,
                (np.asarray(j, dtype=float) + half) * self.a,
                (np.asarray(k, dtype=float) + half) * self.a,
            ],
            axis=-1,
        )

    def all_positions(self) -> np.ndarray:
        """Positions of every site in rank order, shape ``(nsites, 3)``."""
        return self.position_of(np.arange(self.nsites))

    def nearest_site(self, pos: np.ndarray):
        """Rank of the lattice site nearest to each Cartesian position.

        This is the operation the paper performs to link a run-away atom to
        its nearest lattice point (Figure 3).  ``pos`` has shape ``(..., 3)``.
        """
        pos = np.asarray(pos, dtype=float)
        scaled = pos / self.a
        # Candidate corner site (round to integer grid) and candidate center
        # site (round to half-integer grid); pick the closer of the two.
        corner_cell = np.rint(scaled).astype(int)
        center_cell = np.floor(scaled).astype(int)
        d_corner = np.linalg.norm(scaled - corner_cell, axis=-1)
        d_center = np.linalg.norm(scaled - (center_cell + 0.5), axis=-1)
        use_center = d_center < d_corner
        b = np.where(use_center, 1, 0)
        cell = np.where(use_center[..., None], center_cell, corner_cell)
        return self.rank_of(b, cell[..., 0], cell[..., 1], cell[..., 2])

    # ------------------------------------------------------------------
    # Neighbor shells and static offset tables
    # ------------------------------------------------------------------
    def first_shell_ranks(self, rank) -> np.ndarray:
        """Ranks of the 8 first-shell neighbors of each site.

        These are the candidate vacancy-exchange partners of the KMC model
        ("eight possible events for a vacancy").  Output shape is
        ``rank.shape + (8,)``.
        """
        return self._neighbor_ranks(rank, FIRST_SHELL)

    def second_shell_ranks(self, rank) -> np.ndarray:
        """Ranks of the 6 second-shell (same basis) neighbors of each site."""
        return self._neighbor_ranks(rank, SECOND_SHELL)

    def _neighbor_ranks(self, rank, offsets: NeighborOffsets) -> np.ndarray:
        rank = np.asarray(rank)
        ranks, _valid = SiteSet(self).neighbor_rows(offsets, rank.ravel())
        return ranks.reshape(rank.shape + (offsets.max_count,))

    def offsets_within(self, cutoff: float) -> NeighborOffsets:
        """Static neighbor offset table for all sites within ``cutoff`` (A).

        This is the heart of the lattice neighbor list: because the crystal
        is periodic and perfect, the set of ``(db, di, dj, dk)`` offsets is
        identical for every central site of a given basis, so the neighbor
        *indexes* of any atom follow from arithmetic rather than storage.
        """
        if cutoff <= 0:
            raise ValueError(f"cutoff must be positive, got {cutoff}")
        return _offsets_within_cached(round(cutoff / self.a, 12))

    def neighbor_ranks_within(self, rank, cutoff: float) -> np.ndarray:
        """Neighbor ranks within ``cutoff`` for scalar site ``rank``."""
        ranks, valid = SiteSet(self).neighbor_rows(
            self.offsets_within(cutoff), np.array([int(rank)])
        )
        return ranks[0][valid[0]]


def sorted_unique(values: np.ndarray) -> np.ndarray:
    """Sorted 1-D ``values``, duplicates dropped: ``np.unique`` without
    its first call importing ``numpy.ma`` into every process (this runs
    per KMC event and per run-away atom, in forked ranks and workers)."""
    values = np.sort(values)
    keep = np.ones(len(values), dtype=bool)
    keep[1:] = values[1:] != values[:-1]
    return values[keep]


class SiteSet:
    """The site index: sorted global site ranks and the row of each.

    Every table of neighbor *rows* and every global-rank -> local-row
    lookup of the tree goes through it, for the whole lattice and for a
    rank's owned + ghost sites alike.  ``ranks`` are strictly increasing
    global site ranks (row ``r`` of an array laid out over the set is
    site ``ranks[r]``); ``None`` is the whole lattice in rank order,
    where a rank *is* its row and nothing is ever searched.  ``lattice``
    is read by :meth:`neighbor_rows` (and to size the whole lattice).
    """

    def __init__(self, lattice: BCCLattice | None, ranks=None) -> None:
        self.lattice = lattice
        self.whole = ranks is None
        if ranks is None:
            ranks = np.arange(lattice.nsites)
        self.ranks = np.asarray(ranks, dtype=np.int64)

    def rows_of(self, ranks, missing: str = "raise"):
        """Rows holding the global ``ranks`` (any shape).

        ``missing="raise"`` returns the rows, or raises ``ValueError`` on
        a rank outside the set; ``"mask"`` returns ``(rows, found)``,
        row 0 standing in where ``found`` is False.
        """
        ranks = np.asarray(ranks, dtype=np.int64)
        if self.whole:
            rows, found = ranks, (ranks >= 0) & (ranks < len(self.ranks))
        else:
            rows = np.minimum(
                np.searchsorted(self.ranks, ranks), len(self.ranks) - 1
            )
            found = self.ranks[rows] == ranks
        if missing == "mask":
            return np.where(found, rows, 0), found
        if not found.all():
            raise ValueError(
                f"site rank {int(ranks[~found].flat[0])} is not present in this "
                f"site set: it lies outside the {len(self.ranks)} sites covered"
            )
        return rows

    def neighbor_rows(
        self, offsets: NeighborOffsets, centrals=None, strict: bool = False
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(rows, valid)``: the sites at ``offsets`` from each central.

        ``centrals`` are rows of the set (default: all).  Slot ``m`` of a
        central of basis ``b`` is its neighbor at
        ``offsets.for_basis(b)[m]``; ``valid`` is False, and the row 0,
        where one basis has fewer offsets (padding) and where the
        neighbor is outside the set — which raises instead if ``strict``.

        Periodic wrapping is separable, so the arithmetic runs once per
        *axis coordinate*: three wrap tables (the basis flip folded into
        the last) are gathered by each central's ``(b, i, j, k)`` and
        summed.
        """
        lat = self.lattice
        if centrals is None:
            ranks = self.ranks
        else:
            ranks = np.asarray(centrals) if self.whole else self.ranks[centrals]
        b, i, j, k = lat.coords_of(ranks)
        m = offsets.max_count
        off = np.zeros((2, m, 4), dtype=np.int64)
        present = np.zeros((2, m), dtype=bool)
        for basis in (0, 1):
            per_basis = offsets.for_basis(basis)
            off[basis, : len(per_basis)] = per_basis
            present[basis, : len(per_basis)] = True

        def gather(n: int, axis: int, stride: int, coord, flip=0) -> np.ndarray:
            """Rank contribution of each central's coordinate on one axis."""
            shifted = np.arange(n)[None, :, None] + off[:, None, :, axis]
            table = shifted % n * stride + flip
            return np.take(table.reshape(2 * n, m), b * n + coord, axis=0)

        rows = gather(lat.nx, 1, 2 * lat.ny * lat.nz, i)
        rows += gather(lat.ny, 2, 2 * lat.nz, j)
        # Relative basis flip: 0 keeps the central's basis, 1 flips it.
        flip = (np.arange(2)[:, None] ^ off[:, :, 0])[:, None, :]
        rows += gather(lat.nz, 3, 2, k, flip)
        valid = np.take(present, b, axis=0)
        if not self.whole:
            rows, found = self.rows_of(rows, missing="mask")
            if strict and np.any(valid & ~found):
                raise ValueError(
                    "a central site's neighbor falls outside the site set: "
                    "the ghost shell is too thin for the cutoff; widen the "
                    "ghost shell"
                )
            valid &= found
        rows[~valid] = 0
        return rows, valid


@lru_cache(maxsize=32)
def _offsets_within_cached(cutoff_in_a: float) -> NeighborOffsets:
    """Compute per-basis offset tables for a cutoff given in units of ``a``."""
    reach = int(math.ceil(cutoff_in_a)) + 1
    corner_rows: list[tuple[int, int, int, int]] = []
    corner_d: list[float] = []
    center_rows: list[tuple[int, int, int, int]] = []
    center_d: list[float] = []
    for db in (0, 1):
        for di in range(-reach, reach + 1):
            for dj in range(-reach, reach + 1):
                for dk in range(-reach, reach + 1):
                    # Displacement from a basis-0 center to (db, d) site:
                    # (d + db/2) in units of a.
                    d0 = math.sqrt(
                        (di + 0.5 * db) ** 2
                        + (dj + 0.5 * db) ** 2
                        + (dk + 0.5 * db) ** 2
                    )
                    if 0 < d0 <= cutoff_in_a + 1e-12:
                        corner_rows.append((db, di, dj, dk))
                        corner_d.append(d0)
                    # Displacement from a basis-1 center to a site with
                    # basis flip db (target basis = 1 - db if db==1 else 1):
                    # target basis b2 = 1 - db_flag where db_flag means flip.
                    # Using relative convention: db=0 same basis, db=1 flip.
                    d1 = math.sqrt(
                        (di - 0.5 * db) ** 2
                        + (dj - 0.5 * db) ** 2
                        + (dk - 0.5 * db) ** 2
                    )
                    if 0 < d1 <= cutoff_in_a + 1e-12:
                        center_rows.append((db, di, dj, dk))
                        center_d.append(d1)
    return NeighborOffsets(
        corner=np.asarray(corner_rows, dtype=np.int64).reshape(-1, 4),
        center=np.asarray(center_rows, dtype=np.int64).reshape(-1, 4),
        corner_distances=np.asarray(corner_d, dtype=float),
        center_distances=np.asarray(center_d, dtype=float),
        cutoff=cutoff_in_a,
    )
