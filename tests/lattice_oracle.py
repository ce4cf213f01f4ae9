"""Reference neighbour tables: the ``rank_of``-loop builders.

:meth:`repro.lattice.bcc.SiteSet.neighbor_rows` turns offsets into rows
by gathering three per-axis wrap tables.  This module keeps what it
replaced, moved out of ``src/`` with the bodies unchanged — the
``rank_of`` loop of ``kmc/events.py::build_static_matrix`` (which was
also ``LatticeNeighborList._build_matrix``; here it takes the offset
table instead of a cutoff and the MD list's optional ``centrals``, and
leaves the per-slot distances to the model) with its ``local_rows``
search, the shell loops of ``BCCLattice.first_shell_ranks`` /
``second_shell_ranks`` / ``neighbor_ranks_within`` with their literal
shell lists, and the per-call half-pair mask of
``LatticeNeighborList.lattice_pairs`` — as the oracle the site-index
tests compare against.  It shares nothing with the code under test
beyond ``BCCLattice.rank_of`` / ``coords_of`` and the offset tables.
"""

from __future__ import annotations

import numpy as np

FIRST_SHELL_FROM_CORNER = [
    (1, di, dj, dk) for di in (0, -1) for dj in (0, -1) for dk in (0, -1)
]
FIRST_SHELL_FROM_CENTER = [
    (0, di, dj, dk) for di in (0, 1) for dj in (0, 1) for dk in (0, 1)
]
SECOND_SHELL = [
    (0, 1, 0, 0),
    (0, -1, 0, 0),
    (0, 0, 1, 0),
    (0, 0, -1, 0),
    (0, 0, 0, 1),
    (0, 0, 0, -1),
]


def local_rows(lattice, sites, ranks):
    """Rows of the sorted ``sites`` holding global ``ranks`` (0 where absent),
    and which exist.

    When ``sites`` is the whole lattice in rank order a rank *is* its row,
    so the search is skipped and ``ranks`` itself is returned.
    """
    n = len(sites)
    if n == lattice.nsites and np.array_equal(sites, np.arange(n)):
        return ranks, np.ones(ranks.shape, dtype=bool)
    local = np.clip(np.searchsorted(sites, ranks), 0, n - 1)
    found = sites[local] == ranks
    local[~found] = 0
    return local, found


def build_static_matrix(lattice, offsets, sites, centrals=None, strict=True):
    """Static neighbor matrix over a site subset.

    Returns ``(matrix, valid)``: row indices into ``sites`` of each
    central's neighbors at ``offsets`` and the valid-slot mask.  With
    ``strict`` the function raises if a neighbor is missing from
    ``sites`` (too-thin ghost shell); otherwise such slots are marked
    invalid.
    """
    central_ranks = sites if centrals is None else sites[centrals]
    b, i, j, k = lattice.coords_of(central_ranks)
    m = offsets.max_count
    n = len(central_ranks)
    matrix_global = np.zeros((n, m), dtype=np.int64)
    valid = np.zeros((n, m), dtype=bool)
    for basis in (0, 1):
        rows = offsets.for_basis(basis)
        sel = np.flatnonzero(b == basis)
        if len(sel) == 0:
            continue
        nb = np.where(rows[:, 0] == 0, basis, 1 - basis)
        gi = i[sel, None] + rows[None, :, 1]
        gj = j[sel, None] + rows[None, :, 2]
        gk = k[sel, None] + rows[None, :, 3]
        ranks = lattice.rank_of(np.broadcast_to(nb, gi.shape), gi, gj, gk)
        matrix_global[sel[:, None], np.arange(len(rows))[None, :]] = ranks
        valid[sel, : len(rows)] = True
    local, found = local_rows(lattice, sites, matrix_global)
    missing = valid & ~found
    if np.any(missing):
        if strict:
            raise ValueError(
                "neighbor outside the provided site set; widen the ghost shell"
            )
        valid = valid & found
    local[~valid] = 0
    return local, valid


def first_shell_ranks(lattice, rank) -> np.ndarray:
    """Ranks of the 8 first-shell neighbors of each site."""
    b, i, j, k = lattice.coords_of(np.asarray(rank))
    out_shape = np.shape(rank) + (8,)
    result = np.empty(out_shape, dtype=np.int64)
    corner = np.asarray(FIRST_SHELL_FROM_CORNER)
    center = np.asarray(FIRST_SHELL_FROM_CENTER)
    for idx in range(8):
        use = np.where(np.asarray(b) == 0, 0, 1)
        off_b = np.where(use == 0, corner[idx, 0], center[idx, 0])
        off_i = np.where(use == 0, corner[idx, 1], center[idx, 1])
        off_j = np.where(use == 0, corner[idx, 2], center[idx, 2])
        off_k = np.where(use == 0, corner[idx, 3], center[idx, 3])
        result[..., idx] = lattice.rank_of(off_b, i + off_i, j + off_j, k + off_k)
    return result


def second_shell_ranks(lattice, rank) -> np.ndarray:
    """Ranks of the 6 second-shell (same basis) neighbors of each site."""
    b, i, j, k = lattice.coords_of(np.asarray(rank))
    result = np.empty(np.shape(rank) + (6,), dtype=np.int64)
    for idx, (_db, di, dj, dk) in enumerate(SECOND_SHELL):
        result[..., idx] = lattice.rank_of(b, i + di, j + dj, k + dk)
    return result


def neighbor_ranks_within(lattice, rank, cutoff: float) -> np.ndarray:
    """Neighbor ranks within ``cutoff`` for scalar site ``rank``."""
    offsets = lattice.offsets_within(cutoff)
    b, i, j, k = lattice.coords_of(int(rank))
    rows = offsets.for_basis(int(b))
    nb = np.where(rows[:, 0] == 0, b, 1 - b)
    return lattice.rank_of(nb, i + rows[:, 1], j + rows[:, 2], k + rows[:, 3])


def lattice_pairs(centrals, matrix, valid, occ):
    """Half pair list (i, j) of interacting on-lattice atoms."""
    c = centrals[:, None]
    mask = valid & (matrix > c) & occ[matrix] & occ[centrals][:, None]
    ci, mi = np.nonzero(mask)
    return centrals[ci], matrix[ci, mi]
