"""Synchronous sublattice sectoring (Shim-Amar [26]) and exchange geometry.

Each subdomain is split into 8 octant sectors processed sequentially; all
processes work on the *same* octant position concurrently, so active
regions on different processes are separated by at least the inactive
remainder of a subdomain and never conflict within a cycle.

:class:`SectorSchedule` precomputes what every communication scheme
reads — the sector rows and masks, the neighbor ranks, and per neighbor
the interest mask: the local rows that neighbor can see (its owned
sites plus its ghost shell, i.e. the rows its box dilated by the ghost
width covers), against which the on-demand schemes filter the
event-affected sites (Figure 8d).  Like the strip sets below it is a
label on each local row's cell coordinates (``lattice/domain.py``), not
a set of global ranks.

The per-(sector, neighbor) strip sets of the traditional two-phase
exchange — ``get_send`` / ``get_recv`` (Figure 8b: "Get the latest ghost
sites from neighbor processes") and the mirrored put sets (Figure 8c) —
have one reader, :class:`~repro.kmc.comm.TraditionalExchange`, and are
built when it first asks for ``sector_comm``; an on-demand or one-sided
rank never builds them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.lattice.bcc import BCCLattice
from repro.lattice.domain import DomainDecomposition

#: Event reach in cells: one first-neighbor hop, 1 for BCC.  Sectors of
#: adjacent processes must be separated by more than ``2 * EVENT_WIDTH``
#: so their writes never collide.
EVENT_WIDTH = 1

@dataclass(frozen=True)
class SectorComm:
    """Traditional-exchange row sets of one (sector, neighbor) pair.

    Get strips span the full *rate stencil* (``width`` cells) around a
    sector — everything event rates can read.  Put strips span only the
    *event-reachable* shell (``EVENT_WIDTH`` cells, one first-neighbor
    hop) — everything a sector's events can have written.  Keeping the
    put strips inside the event reach is what makes concurrent sectors
    conflict-free: a wider put would ship back stale copies of sites some
    *other* rank just modified, silently undoing its events.
    """

    neighbor: int
    #: Rows (into the local site array) whose *current* values the
    #: neighbor needs before it processes this sector (we own them and
    #: they fall in the neighbor's sector rate-stencil ghost region).
    get_send_rows: np.ndarray
    #: Rows of our sector's rate-stencil ghost region owned by this
    #: neighbor, refreshed in the get phase.
    get_recv_rows: np.ndarray
    #: Rows of our sector's event-reach ghost shell owned by this
    #: neighbor — our possible writes, shipped back in the put phase.
    put_send_rows: np.ndarray
    #: Rows of our owned sites inside the neighbor's sector event-reach
    #: shell — its possible writes to us, received in the put phase.
    put_recv_rows: np.ndarray


class SectorSchedule:
    """Per-rank sector geometry and the row sets every scheme reads.

    Parameters
    ----------
    decomp:
        Global domain decomposition.
    rank:
        This process.
    sites:
        Sorted global ranks of the local arrays (owned + ghost shell).
    width:
        Rate-stencil ghost width in cells; must cover the KMC interaction
        envelope (first shell + energy cutoff).
    """

    def __init__(
        self,
        decomp: DomainDecomposition,
        rank: int,
        sites: np.ndarray,
        width: int,
    ) -> None:
        lattice: BCCLattice = decomp.lattice
        self.decomp = decomp
        self.rank = rank
        self.sites = sites
        self.width = width
        sub = decomp.subdomain(rank)
        if any(s < 2 * width for s in sub.shape):
            raise ValueError(
                f"subdomain shape {sub.shape} must be >= 2*width={2 * width} "
                "per axis for conflict-free sectoring"
            )
        if any(s // 2 < 2 * EVENT_WIDTH for s in sub.shape):
            raise ValueError(
                f"sector separation {min(sub.shape) // 2} cells does not "
                f"exceed twice the event reach ({EVENT_WIDTH}); concurrent "
                "sector writes could collide"
            )
        self.sectors = sub.sectors()
        self.nsectors = len(self.sectors)
        if self.nsectors != 8:
            raise ValueError(
                f"expected 8 sectors, got {self.nsectors}; subdomains must "
                "be at least 2 cells wide per axis"
            )
        #: Cell coordinates ``(ci, cj, ck)`` of the local rows.
        self.cells = lattice.coords_of(sites)[1:]
        # Boolean membership masks over the local rows — the O(1) lookup
        # the incremental event catalogs use to intersect an influence
        # set with a sector's event sites — and the rows of each
        # sector's owned sites (event sites).
        self.sector_member: list[np.ndarray] = [
            sec.covers(lattice, self.cells, 0) for sec in self.sectors
        ]
        self.sector_rows = [np.flatnonzero(m) for m in self.sector_member]
        self.neighbors = decomp.neighbors(rank)
        # Per neighbor, the rows it can see (owned + ghost shell): a row
        # mask, because ``interest_rows`` runs per sector and neighbor
        # every cycle and only ever asks about local rows.
        self.interest_member: dict[int, np.ndarray] = {
            n: decomp.subdomain(n).covers(lattice, self.cells, width)
            for n in self.neighbors
        }

    @cached_property
    def sector_comm(self) -> list[list[SectorComm]]:
        """Traditional strip sets, ``[sector][neighbor]``, built on first use."""
        return _strip_sets(self)

    def interest_rows(self, neighbor: int, dirty_rows: np.ndarray) -> np.ndarray:
        """Subset of ``dirty_rows`` the given neighbor can see."""
        return dirty_rows[self.interest_member[neighbor][dirty_rows]]

    def traditional_strip_sites(self) -> int:
        """Total strip sites moved per full cycle by the traditional scheme
        (get + put over all sectors and neighbors) — a planning figure for
        the experiments."""
        total = 0
        for per_neighbor in self.sector_comm:
            for sc in per_neighbor:
                total += len(sc.get_send_rows) + len(sc.get_recv_rows)
                total += len(sc.put_send_rows) + len(sc.put_recv_rows)
        return total


def _strip_sets(schedule: SectorSchedule) -> list[list[SectorComm]]:
    """The traditional exchange's strip sets of one rank.

    Every local row carries two kinds of label, both plain arithmetic on
    its cell coordinates: the rank that owns it, and whether it lies in
    the ghost shell of a given sector box at a given width.  A strip is
    the rows with one owner label and one shell label, in row order —
    the arrays that intersecting ``all_ghost_site_ranks`` of the sector
    with ``owned_site_ranks`` of the owner and looking the result up in
    ``sites`` would give (``tests/kmc_strip_oracle.py`` does exactly
    that) without building a single global rank set.
    """
    decomp = schedule.decomp
    lattice = decomp.lattice
    cells = schedule.cells
    owner = decomp.owner_of_cells(*cells)
    mine = np.flatnonzero(owner == schedule.rank)
    my_cells = [c[mine] for c in cells]
    theirs = {n: owner == n for n in schedule.neighbors}
    their_sectors = {n: decomp.subdomain(n).sectors() for n in schedule.neighbors}
    widths = (schedule.width, EVENT_WIDTH)
    strips = []
    for s, sector in enumerate(schedule.sectors):
        my_rate, my_event = (sector.in_shell(lattice, cells, w) for w in widths)
        per_neighbor = []
        for n in schedule.neighbors:
            n_rate, n_event = (
                their_sectors[n][s].in_shell(lattice, my_cells, w) for w in widths
            )
            per_neighbor.append(
                SectorComm(
                    neighbor=n,
                    get_send_rows=mine[n_rate],
                    get_recv_rows=np.flatnonzero(my_rate & theirs[n]),
                    put_send_rows=np.flatnonzero(my_event & theirs[n]),
                    put_recv_rows=mine[n_event],
                )
            )
        strips.append(per_neighbor)
    return strips

