"""Reference strip sets of the traditional exchange: global set algebra.

:func:`repro.kmc.sublattice._strip_sets` labels local rows by arithmetic
on their cell coordinates.  This module keeps the construction it
replaced, moved verbatim out of ``SectorSchedule.__init__`` — build the
global rank set of every sector ghost shell with
``Subdomain.all_ghost_site_ranks``, intersect it with the global rank
set an owner holds, look the result up in the sorted local ``sites`` —
as the oracle the strip tests compare against.  It shares no geometry
code with the builder under test beyond the ``Subdomain`` boxes.

:func:`interest_masks` is the same kind of reference for the rows a
neighbor can see (``SectorSchedule.interest_member`` and the MD
``ExchangePlan.covers``): the neighbor's whole site set, then
``np.isin`` — the construction ``SectorSchedule`` used before both
became cover labels.
"""

from __future__ import annotations

import numpy as np

from repro.kmc.sublattice import SectorComm
from repro.lattice.domain import DIRECTIONS


def _rows_in(sites: np.ndarray, ranks: np.ndarray) -> np.ndarray:
    """Rows of ``ranks`` within sorted ``sites``; all must be present.

    Moved here from ``repro.kmc.sublattice`` when the tree's lookups
    went to :meth:`repro.lattice.bcc.SiteSet.rows_of`, so the oracle
    keeps a search of its own.
    """
    ranks = np.asarray(ranks, dtype=np.int64)
    if len(ranks) == 0:
        return np.empty(0, dtype=np.int64)
    rows = np.searchsorted(sites, ranks)
    if np.any(rows >= len(sites)) or np.any(
        sites[np.minimum(rows, len(sites) - 1)] != ranks
    ):
        raise ValueError("requested ranks missing from the local site set")
    return rows


def _neighbor_ranks(decomp, rank) -> list[int]:
    return sorted(
        {
            decomp.neighbor_rank(rank, d)
            for d in DIRECTIONS
            if decomp.neighbor_rank(rank, d) != rank
        }
    )


def interest_masks(decomp, rank, sites, width) -> dict[int, np.ndarray]:
    """Per neighbor of ``rank``, which of ``sites`` it holds at ``width``."""
    lattice = decomp.lattice
    interest = {}
    for n in _neighbor_ranks(decomp, rank):
        visible, _owned_rows = decomp.subdomain(n).site_set(lattice, width)
        interest[n] = visible.ranks
    return {n: np.isin(sites, ranks) for n, ranks in interest.items()}


def strip_sets(decomp, rank, sites, width, event_width=1) -> list[list[SectorComm]]:
    """``[sector][neighbor]`` strip sets of ``rank``, the parent's way."""
    lattice = decomp.lattice
    sub = decomp.subdomain(rank)
    sectors = sub.sectors()
    neighbor_ranks = _neighbor_ranks(decomp, rank)
    # Traditional per-sector strip sets.
    my_owned = sub.owned_site_ranks(lattice)
    owned_by = {
        n: decomp.subdomain(n).owned_site_ranks(lattice) for n in neighbor_ranks
    }
    sector_comm: list[list[SectorComm]] = []
    for s, sector in enumerate(sectors):
        my_rate_ghost = sector.all_ghost_site_ranks(lattice, width)
        my_event_ghost = sector.all_ghost_site_ranks(lattice, event_width)
        per_neighbor = []
        for n in neighbor_ranks:
            n_sector = decomp.subdomain(n).sectors()[s]
            n_rate_ghost = n_sector.all_ghost_site_ranks(lattice, width)
            n_event_ghost = n_sector.all_ghost_site_ranks(lattice, event_width)
            per_neighbor.append(
                SectorComm(
                    neighbor=n,
                    get_send_rows=_rows_in(
                        sites, np.intersect1d(n_rate_ghost, my_owned)
                    ),
                    get_recv_rows=_rows_in(
                        sites, np.intersect1d(my_rate_ghost, owned_by[n])
                    ),
                    put_send_rows=_rows_in(
                        sites, np.intersect1d(my_event_ghost, owned_by[n])
                    ),
                    put_recv_rows=_rows_in(
                        sites, np.intersect1d(n_event_ghost, my_owned)
                    ),
                )
            )
        sector_comm.append(per_neighbor)
    return sector_comm

