"""Test oracle: the linked-list run-away store and the per-direction
ghost exchange, as ``repro.md`` had them.

Until PR 22 run-away atoms were :class:`RunawayAtom` objects in a
``dict[host row, list]`` on the neighbor list, walked atom by atom, and
:class:`~repro.md.ghost.GhostExchanger` posted one message per
*direction* (26 per rank and phase, aliased directions re-sending the
same rows).  ``src/`` now keeps one host-sorted
:class:`~repro.md.neighbors.lattice_list.RunawayTable` and sends one
deduplicated message per neighbor rank; the old bookkeeping, moved here
verbatim, is the independent reference both are compared against:

* :class:`RunawayAtom` and the ``hosts`` / ``_link`` / ``_unlink`` /
  ``update_runaways`` / ``_runaway_stencils`` / ``runaway_candidates`` /
  ``runaway_pairs`` methods, on :class:`LinkedListOracle` (which borrows
  the static geometry of a real ``LatticeNeighborList``);
* :func:`pair_indices`, the ``(i, j)`` half of the old
  ``build_pair_table``;
* :class:`DirectionGhostExchanger`, the old ``GhostExchanger``, with the
  per-direction cell blocks it read (:func:`send_site_ranks`,
  :func:`ghost_site_ranks`), moved here from ``Subdomain`` when the
  plans became owner and cover labels (``repro.lattice.domain``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.lattice.bcc import BCCLattice, SiteSet, sorted_unique
from repro.lattice.domain import DIRECTIONS, DomainDecomposition, Subdomain
from repro.md.state import AtomState


@dataclass
class RunawayAtom:
    """An off-lattice atom linked to its nearest lattice point.

    Attributes
    ----------
    id:
        The atom's ID (its original site rank).
    x, v, f:
        Position, velocity, force (3-vectors).
    host:
        Row index (into the owning state's arrays) of the nearest lattice
        point — the entry whose linked list holds this atom.
    rho:
        Electron density at the atom.
    """

    id: int
    x: np.ndarray
    v: np.ndarray
    host: int
    f: np.ndarray = field(default_factory=lambda: np.zeros(3))
    rho: float = 0.0


class LinkedListOracle:
    """The old run-away half of ``LatticeNeighborList``, method for method.

    Borrows ``lattice``, ``box``, ``site_set``, ``sites``, ``cutoff`` and
    ``skin`` from the neighbor list it shadows; everything below the
    constructor is the parent's code.
    """

    def __init__(self, nblist) -> None:
        self.lattice = nblist.lattice
        self.box = nblist.box
        self.site_set = nblist.site_set
        self.sites = nblist.sites
        self.cutoff = nblist.cutoff
        self.skin = nblist.skin
        #: Linked lists of run-away atoms keyed by host row.
        self.hosts: dict[int, list[RunawayAtom]] = {}

    # ------------------------------------------------------------------
    # Run-away atom management (Figure 3)
    # ------------------------------------------------------------------
    @property
    def runaways(self) -> list[RunawayAtom]:
        """All run-away atoms, in deterministic host-then-insertion order."""
        out: list[RunawayAtom] = []
        for host in sorted(self.hosts):
            out.extend(self.hosts[host])
        return out

    @property
    def n_runaways(self) -> int:
        return sum(len(v) for v in self.hosts.values())

    def _nearest_row(self, x: np.ndarray) -> int:
        """Row index of the lattice point nearest to position ``x``."""
        rank = self.lattice.nearest_site(self.box.wrap(x))
        return int(self.site_set.rows_of(rank))

    def _link(self, atom: RunawayAtom) -> None:
        self.hosts.setdefault(atom.host, []).append(atom)

    def _unlink(self, atom: RunawayAtom) -> None:
        bucket = self.hosts[atom.host]
        bucket.remove(atom)
        if not bucket:
            del self.hosts[atom.host]

    def update_runaways(
        self,
        state: AtomState,
        threshold: float,
        capture_radius: float | None = None,
    ) -> dict:
        """Detect new run-away atoms and re-home/capture existing ones.

        Parameters
        ----------
        state:
            The atom state to scan and mutate.
        threshold:
            Displacement from the lattice point beyond which an on-lattice
            atom is converted to a run-away (+ vacancy).
        capture_radius:
            A run-away atom within this distance of a *vacant* lattice
            point re-occupies it.  Defaults to ``threshold / 2``.

        Returns
        -------
        dict with counters: ``escaped``, ``captured``, ``relinked``.
        """
        if threshold <= 0:
            raise ValueError(f"threshold must be positive, got {threshold}")
        cap = threshold / 2.0 if capture_radius is None else capture_radius
        stats = {"escaped": 0, "captured": 0, "relinked": 0}

        # 1. New escapes: occupied rows displaced beyond the threshold.
        disp = state.displacement(self.box)
        for row in np.flatnonzero(disp > threshold):
            row = int(row)
            atom = RunawayAtom(
                id=int(state.ids[row]),
                x=state.x[row].copy(),
                v=state.v[row].copy(),
                host=row,
                f=state.f[row].copy(),
                rho=float(state.rho[row]),
            )
            state.make_vacancy(row)
            atom.host = self._nearest_row(atom.x)
            self._link(atom)
            stats["escaped"] += 1

        # 2. Existing run-aways: re-link to the now-nearest lattice point;
        #    capture into a vacancy when close enough.
        for atom in list(self.runaways):
            host = self._nearest_row(atom.x)
            if host != atom.host:
                self._unlink(atom)
                atom.host = host
                self._link(atom)
                stats["relinked"] += 1
            dist = float(
                np.linalg.norm(
                    self.box.minimum_image(atom.x - state.site_pos[atom.host])
                )
            )
            if state.ids[atom.host] < 0 and dist <= cap:
                self._unlink(atom)
                state.occupy(atom.host, atom.id, atom.x, atom.v)
                stats["captured"] += 1
        return stats

    # ------------------------------------------------------------------
    # Run-away interaction candidates
    # ------------------------------------------------------------------
    def _runaway_stencils(self, host_rows) -> list[np.ndarray]:
        """Candidate rows around each run-away atom's host lattice point.

        The paper says a run-away "checks the same neighbor atoms as the
        nearest lattice point it is linked to"; taken literally that
        misses partners near the cutoff edge, because the atom sits up to
        half the first-shell distance from its host (and another run-away
        partner adds the same slack on its side).  The stencil therefore
        reaches ``cutoff + 2 * link + skin``; neighbors outside the site
        set are dropped and duplicates from periodic aliasing are removed
        (safe: two images of one site can never both be within the cutoff
        of a point once the box exceeds 2*cutoff).  One table pass serves
        every host of a step.
        """
        link = math.sqrt(3.0) / 4.0 * self.lattice.a
        reach = self.cutoff + 2.0 * link + self.skin
        hosts = np.asarray(host_rows, dtype=np.int64)
        if len(hosts) == 0:
            return []
        rows, valid = self.site_set.neighbor_rows(
            self.lattice.offsets_within(reach), hosts
        )
        return [
            sorted_unique(np.append(r[v], h))
            for r, v, h in zip(rows, valid, hosts, strict=True)
        ]

    def runaway_candidates(
        self, runs: list[RunawayAtom] | None = None
    ) -> list[tuple[RunawayAtom, np.ndarray]]:
        """(atom, candidate rows) per run-away atom.

        ``runs`` defaults to the list's own :attr:`runaways`; a rank
        passes its own atoms plus the ghost copies it was sent.
        Candidate partners are distance-filtered against the true cutoff
        by the force kernel; this list only needs to be a superset.
        """
        if runs is None:
            runs = self.runaways
        return list(
            zip(runs, self._runaway_stencils([a.host for a in runs]), strict=True)
        )

    def runaway_pairs(
        self, candidates: list[tuple[RunawayAtom, np.ndarray]] | None = None
    ) -> list[tuple[int, int]]:
        """Unordered run-away/run-away pairs from neighboring linked lists.

        Pairs are positions ``(a, b)``, ``a < b``, in ``candidates``
        (default: :meth:`runaway_candidates`).  O(N) in the run-away
        count: each atom's stencil is intersected with the rows that
        host a run-away, and only those linked lists are walked.
        """
        if candidates is None:
            candidates = self.runaway_candidates()
        linked: dict[int, list[int]] = {}
        for pos, (atom, _rows) in enumerate(candidates):
            linked.setdefault(atom.host, []).append(pos)
        hosting = np.zeros(len(self.sites), dtype=bool)
        hosting[list(linked)] = True
        pairs = []
        for a, (_atom, rows) in enumerate(candidates):
            for host in rows[hosting[rows]].tolist():
                pairs.extend((a, b) for b in linked[host] if b > a)
        return pairs


def pair_indices(state: AtomState, oracle: LinkedListOracle, li, lj):
    """``(i, j)`` of the old ``build_pair_table``: the lattice pairs
    ``(li, lj)``, then each run-away's candidates, then the run-away
    pairs — the per-candidate ``np.full`` loop as it was."""
    runs = oracle.runaways
    n = state.n
    pi = [li]
    pj = [lj]
    if runs:
        occ = state.occupied
        candidates = oracle.runaway_candidates(runs)
        for k, (_atom, rows) in enumerate(candidates):
            rows = rows[occ[rows]]
            pi.append(np.full(len(rows), n + k, dtype=np.int64))
            pj.append(rows)
        rr = np.array(oracle.runaway_pairs(candidates), dtype=np.int64)
        rr = n + rr.reshape(-1, 2)
        pi.append(rr[:, 0])
        pj.append(rr[:, 1])
    return np.concatenate(pi), np.concatenate(pj)


# ----------------------------------------------------------------------
# The per-direction ghost exchange
# ----------------------------------------------------------------------
def _axis_range(sub: Subdomain, axis: int, d: int, width: int, kind: str) -> range:
    lo, hi = sub.cell_lo[axis], sub.cell_hi[axis]
    if kind == "send":
        if d == 0:
            return range(lo, hi)
        if d > 0:
            return range(hi - width, hi)
        return range(lo, lo + width)
    # kind == "recv": ghost cells just outside the boundary.
    if d == 0:
        return range(lo, hi)
    if d > 0:
        return range(hi, hi + width)
    return range(lo - width, lo)


def _block(sub: Subdomain, direction, width: int, kind: str):
    rx = _axis_range(sub, 0, direction[0], width, kind)
    ry = _axis_range(sub, 1, direction[1], width, kind)
    rz = _axis_range(sub, 2, direction[2], width, kind)
    return np.meshgrid(list(rx), list(ry), list(rz), indexing="ij")


def send_cells(sub: Subdomain, direction, width: int):
    """Owned cells within ``width`` of the face(s) toward ``direction``.

    These are the cells whose sites must be shipped to the neighbor at
    ``direction`` so that neighbor's ghost shell is current.
    """
    sub._check_width(width)
    return _block(sub, direction, width, "send")


def ghost_cells(sub: Subdomain, direction, width: int):
    """Ghost cells of this subdomain lying toward ``direction``.

    Returned in *global unwrapped* coordinates (may be < 0 or >= grid
    size); callers wrap via the lattice's periodic indexing.
    """
    sub._check_width(width)
    return _block(sub, direction, width, "recv")


def _cells_to_ranks(lattice: BCCLattice, ci, cj, ck) -> np.ndarray:
    """Site ranks (both basis sites) of the given cells, flattened."""
    ci = np.asarray(ci).ravel()
    cj = np.asarray(cj).ravel()
    ck = np.asarray(ck).ravel()
    r0 = lattice.rank_of(np.zeros_like(ci), ci, cj, ck)
    r1 = lattice.rank_of(np.ones_like(ci), ci, cj, ck)
    return np.concatenate([r0, r1])


def send_site_ranks(sub: Subdomain, lattice: BCCLattice, direction, width: int):
    """Site ranks to pack for the neighbor at ``direction``."""
    ci, cj, ck = send_cells(sub, direction, width)
    return np.sort(_cells_to_ranks(lattice, ci, cj, ck))


def ghost_site_ranks(sub: Subdomain, lattice: BCCLattice, direction, width: int):
    """Site ranks of this subdomain's ghost shell toward ``direction``."""
    ci, cj, ck = ghost_cells(sub, direction, width)
    return np.sort(_cells_to_ranks(lattice, ci, cj, ck))


#: Index of the opposite direction for each entry of DIRECTIONS.
_OPPOSITE = [
    DIRECTIONS.index(tuple(-c for c in d)) for d in DIRECTIONS
]


@dataclass(frozen=True)
class DirectionPlan:
    """One direction's precomputed exchange: who, and which rows."""

    direction: tuple[int, int, int]
    dir_index: int
    neighbor: int
    send_rows: np.ndarray
    recv_rows: np.ndarray


class DirectionGhostExchanger:
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
        self.plans: list[DirectionPlan] = []
        for di, d in enumerate(DIRECTIONS):
            neighbor = decomp.neighbor_rank(rank, d)
            if neighbor == rank:
                # Periodic wrap onto our own subdomain: the ghost rows and
                # the source rows are the same array entries; no exchange.
                continue
            send_ranks = send_site_ranks(sub, lattice, d, width)
            recv_ranks = ghost_site_ranks(sub, lattice, d, width)
            self.plans.append(
                DirectionPlan(
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

