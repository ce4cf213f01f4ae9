"""Static-pattern ghost exchange for parallel MD.

"When exchanging the ghost data, the lattice points (either an atom or a
vacancy) in the ghost region is packed (unpacked) and sent (received)
according to the indexes in the array. For the ghost data at the lattice
points, the communication pattern is static, which can be reused at each
time step." (§2.1.1)

:class:`GhostExchanger` precomputes, once, the send/receive row index
lists of a subdomain — one pair per distinct *neighbor rank* (on a
2-rank grid the 26 directions alias onto the one other rank, and its
rows are sent once) — from two labels on each local row's cell: the rank
that owns it, and whether the neighbor's box dilated by the ghost width
covers it (``lattice/domain.py``).  A rank sends a neighbor the owned
rows that neighbor covers and receives the rows that neighbor owns; the
covered mask is kept on the plan, because it also says where the
neighbor can see a run-away.  Then it moves any set of state arrays
through the plans, one message per neighbor.  MD uses two exchange
phases per step: positions+occupancy before the density pass, and
electron densities before the force pass (the embedding derivative of a
ghost atom must come from its owner, which sees the atom's full
neighborhood).  Whatever else a rank has for a neighbor in a phase — the
run-away atoms that neighbor can see — rides on the same message as a
tail ("we pack their information and send it to the corresponding
neighbor processes").
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.lattice.bcc import BCCLattice
from repro.lattice.domain import DomainDecomposition


@dataclass(frozen=True)
class ExchangePlan:
    """One neighbor rank's precomputed exchange: who, and which rows.

    Both lists ascend in global site rank on both sides, so the payload
    of ``send_rows`` lands on the neighbor's ``recv_rows`` positionally.
    ``covers`` marks the local rows the neighbor holds, owned or ghost.
    """

    neighbor: int
    send_rows: np.ndarray
    recv_rows: np.ndarray
    covers: np.ndarray


class GhostExchanger:
    """Reusable ghost-exchange schedule of one rank's subdomain.

    Parameters
    ----------
    decomp:
        The global domain decomposition.
    rank:
        This process's linear rank.
    sites:
        Sorted global site ranks of the local arrays: exactly the rank's
        ``Subdomain.site_set`` at ``width`` (owned + ghost shell);
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
        _basis, *cells = lattice.coords_of(sites)
        held = sub.covers(lattice, cells, width)
        dims = (lattice.nx, lattice.ny, lattice.nz)
        want = 2 * math.prod(
            min(s + 2 * width, n) for s, n in zip(sub.shape, dims, strict=True)
        )
        if len(sites) != want or not held.all():
            raise ValueError(
                f"sites are not rank {rank}'s width-{width} site set: "
                f"{want - held.sum()} of its {want} sites are not present, "
                f"{(~held).sum()} local sites lie outside it"
            )
        owner = decomp.owner_of_cells(*cells)
        mine = owner == rank
        self.rank = rank
        self.width = width
        #: One plan per distinct neighbor rank, in rank order.
        self.plans = []
        for n in decomp.neighbors(rank):
            covers = decomp.subdomain(n).covers(lattice, cells, width)
            self.plans.append(
                ExchangePlan(
                    neighbor=n,
                    send_rows=np.flatnonzero(mine & covers),
                    recv_rows=np.flatnonzero(owner == n),
                    covers=covers,
                )
            )

    def exchange(self, comm, tag: int, arrays: list[np.ndarray], tails=None) -> list:
        """Ship boundary rows of each array; fill ghost rows in place.

        All sends are posted eagerly first (MPI eager protocol), then the
        matching receives are drained — the standard halo-exchange shape,
        one message per neighbor rank under ``tag`` (which separates
        concurrent exchange phases).  ``tails``, one list of arrays per
        plan, rides behind the boundary rows on the same message; the
        tails received come back in plan order.
        """
        for k, plan in enumerate(self.plans):
            payload = [np.ascontiguousarray(a[plan.send_rows]) for a in arrays]
            if tails is not None:
                payload.extend(tails[k])
            comm.send(plan.neighbor, tag, payload)
        received = []
        for plan in self.plans:
            _src, _tag, payload = comm.recv(source=plan.neighbor, tag=tag)
            for a, data in zip(arrays, payload[: len(arrays)], strict=True):
                a[plan.recv_rows] = data
            received.append(payload[len(arrays) :])
        return received

    @property
    def bytes_per_exchange_estimate(self) -> int:
        """Bytes this rank sends per exchange of one float64 (n,3) field."""
        return sum(len(p.send_rows) * 24 for p in self.plans)
