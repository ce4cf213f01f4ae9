"""Static-pattern ghost exchange for parallel MD.

"When exchanging the ghost data, the lattice points (either an atom or a
vacancy) in the ghost region is packed (unpacked) and sent (received)
according to the indexes in the array. For the ghost data at the lattice
points, the communication pattern is static, which can be reused at each
time step." (§2.1.1)

:class:`GhostExchanger` precomputes, once, the per-direction send/receive
row index lists of a subdomain, then moves any set of state arrays through
them.  MD uses two exchange phases per step: positions+occupancy before
the density pass, and electron densities before the force pass (the
embedding derivative of a ghost atom must come from its owner, which sees
the atom's full neighborhood).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.lattice.bcc import BCCLattice, SiteSet
from repro.lattice.domain import DIRECTIONS, DomainDecomposition

#: Index of the opposite direction for each entry of DIRECTIONS.
_OPPOSITE = [
    DIRECTIONS.index(tuple(-c for c in d)) for d in DIRECTIONS
]


@dataclass(frozen=True)
class ExchangePlan:
    """One direction's precomputed exchange: who, and which rows."""

    direction: tuple[int, int, int]
    dir_index: int
    neighbor: int
    send_rows: np.ndarray
    recv_rows: np.ndarray


class GhostExchanger:
    """Reusable ghost-exchange schedule of one rank's subdomain.

    Parameters
    ----------
    decomp:
        The global domain decomposition.
    rank:
        This process's linear rank.
    sites:
        Sorted global site ranks of the local arrays (owned + ghosts);
        exchanged rows are indices into this array.
    width:
        Ghost shell width in cells (>= ceil(cutoff / a)).
    """

    def __init__(
        self,
        decomp: DomainDecomposition,
        rank: int,
        sites: np.ndarray,
        width: int,
    ) -> None:
        lattice: BCCLattice = decomp.lattice
        sub = decomp.subdomain(rank)
        site_set = SiteSet(lattice, sites)
        self.rank = rank
        self.width = width
        self.plans: list[ExchangePlan] = []
        for di, d in enumerate(DIRECTIONS):
            neighbor = decomp.neighbor_rank(rank, d)
            if neighbor == rank:
                # Periodic wrap onto our own subdomain: the ghost rows and
                # the source rows are the same array entries; no exchange.
                continue
            send_ranks = sub.send_site_ranks(lattice, d, width)
            recv_ranks = sub.ghost_site_ranks(lattice, d, width)
            self.plans.append(
                ExchangePlan(
                    direction=d,
                    dir_index=di,
                    neighbor=neighbor,
                    send_rows=site_set.rows_of(send_ranks),
                    recv_rows=site_set.rows_of(recv_ranks),
                )
            )

    def exchange(self, comm, tag_base: int, arrays: list[np.ndarray]) -> None:
        """Ship boundary rows of each array; fill ghost rows in place.

        All sends are posted eagerly first (MPI eager protocol), then the
        matching receives are drained — the standard halo-exchange shape.
        ``tag_base`` separates concurrent exchange phases; direction
        indexes 0..25 are added to it.
        """
        for plan in self.plans:
            payload = [np.ascontiguousarray(a[plan.send_rows]) for a in arrays]
            comm.send(plan.neighbor, tag_base + plan.dir_index, payload)
        for plan in self.plans:
            # Our neighbor toward d tagged its message with the opposite
            # direction (its direction toward us).
            _src, _tag, payload = comm.recv(
                source=plan.neighbor, tag=tag_base + _OPPOSITE[plan.dir_index]
            )
            for a, data in zip(arrays, payload, strict=True):
                a[plan.recv_rows] = data

    @property
    def bytes_per_exchange_estimate(self) -> int:
        """Bytes this rank sends per exchange of one float64 (n,3) field."""
        return sum(len(p.send_rows) * 24 for p in self.plans)

