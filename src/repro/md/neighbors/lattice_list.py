"""The paper's lattice neighbor list (§2.1.1, Figures 2-3).

For a metal under irradiation "most of the atoms stay very close to the
lattice point and only a few atoms would break the constrain and run away".
The structure exploits that:

* On-lattice atoms are stored in rank order; the neighbor *indexes* of any
  site follow from a static per-basis offset table
  (:meth:`repro.lattice.bcc.BCCLattice.offsets_within`) — no per-atom
  neighbor storage at all.
* An atom displaced beyond a threshold becomes a *run-away atom*: its row
  turns into a vacancy (negative ID, position = the lattice point) and the
  atom's record moves to a **linked list** hanging off the nearest lattice
  point.  This is the paper's improvement over the array storage of
  Hu et al. [11]: linked lists grow dynamically and keep run-away/run-away
  neighbor finding O(N) by locality ("the run-away atoms are linked to the
  nearest lattice point").
* A run-away atom that reaches a vacancy re-occupies it ("the information
  of the vacancy in the array is overlapped by the run-away atom").

Note on vectorization: the paper computes neighbor indexes on the fly to
save memory; we materialize them once as a NumPy index matrix because
per-element arithmetic is the expensive operation in Python.  The
lattice materializes it (:meth:`repro.lattice.bcc.SiteSet.neighbor_rows`,
the one offsets-to-rows routine, by per-axis table arithmetic) and the
occupancy-independent half-pair list derives from it on first use.  Both
are shared, static, and derived — the *algorithmic* memory accounting of
:mod:`repro.md.neighbors.memory` follows the paper's storage scheme.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.lattice.bcc import BCCLattice, SiteSet, sorted_unique
from repro.lattice.box import Box
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


class LatticeNeighborList:
    """Static-offset neighbor structure over a (sub)set of lattice sites.

    Parameters
    ----------
    lattice:
        The global BCC lattice.
    cutoff:
        Interaction cutoff (angstrom).  The periodic box must be at least
        twice the cutoff along every axis (minimum-image requirement).
    sites:
        Optional sorted array of global site ranks this instance covers
        (owned + ghost sites of a subdomain).  ``None`` means the full
        lattice with periodic neighbor wrapping.
    centrals:
        Optional row indices (into ``sites``) of the sites for which
        neighbor information is required (a subdomain's *owned* sites).
        Defaults to all rows.
    skin:
        Margin added to the cutoff when building the static offset table.
        Thermal displacement can bring a pair whose *lattice-point*
        separation slightly exceeds the cutoff inside interaction range;
        the skin keeps such pairs in the candidate set (interactions are
        always distance-filtered against the true cutoff downstream).

        Exactness contract: the candidate set is complete while every
        on-lattice atom stays within ``skin / 2`` of its lattice point.
        Rare thermal excursions beyond that can only drop pairs whose
        separation is already in the smoothly-switched-to-zero tail of
        the potential (the same tolerance every skin-based MD code
        accepts); displacements beyond the run-away threshold leave the
        on-lattice population entirely.
    """

    def __init__(
        self,
        lattice: BCCLattice,
        cutoff: float,
        sites: np.ndarray | None = None,
        centrals: np.ndarray | None = None,
        skin: float = 0.6,
    ) -> None:
        if cutoff <= 0:
            raise ValueError(f"cutoff must be positive, got {cutoff}")
        if skin < 0:
            raise ValueError(f"skin must be non-negative, got {skin}")
        self.lattice = lattice
        self.cutoff = float(cutoff)
        self.skin = float(skin)
        self.box = Box.for_lattice(lattice)
        reach = self.cutoff + self.skin
        if np.any(lattice.lengths < 2.0 * reach - 1e-9):
            raise ValueError(
                f"box {lattice.lengths} must be >= 2*(cutoff+skin)={2 * reach} "
                "on every axis, or a static offset and its periodic image "
                "would alias onto the same neighbor (double counting)"
            )
        if sites is not None and np.any(np.diff(sites) <= 0):
            raise ValueError("sites must be strictly increasing")
        self.site_set = SiteSet(lattice, sites)
        self.sites = self.site_set.ranks
        if centrals is None:
            self.centrals = np.arange(len(self.sites), dtype=np.int64)
        else:
            self.centrals = np.asarray(centrals, dtype=np.int64)
        #: Linked lists of run-away atoms keyed by host row.
        self.hosts: dict[int, list[RunawayAtom]] = {}
        #: ``matrix[c, m]``: row of the m-th static neighbor of central
        #: row ``centrals[c]``; ``valid[c, m]`` is False for padding
        #: (row 0).  Strict: every central needs its whole stencil local.
        self.matrix, self.valid = self.site_set.neighbor_rows(
            lattice.offsets_within(reach), centrals, strict=True
        )
        self._half_pairs: tuple[np.ndarray, np.ndarray] | None = None

    @property
    def max_neighbors(self) -> int:
        """Width of the static neighbor matrix."""
        return self.matrix.shape[1]

    # ------------------------------------------------------------------
    # Pair enumeration (on-lattice atoms)
    # ------------------------------------------------------------------
    def lattice_pairs(self, state: AtomState) -> tuple[np.ndarray, np.ndarray]:
        """Half pair list (i, j) of interacting on-lattice atoms.

        Row indices into ``state``, ``i < j``; each unordered pair with
        at least one central endpoint appears once.  Over the whole
        lattice that is every pair; over a subdomain (centrals = owned
        rows) it is the whole-lattice list restricted to the pairs that
        touch an owned row, in the same order — so a rank accumulates an
        owned atom's terms in the order the serial engine does.

        Which slots form a half pair is a property of the static matrix,
        so that list is derived once (row-major, the order every
        downstream accumulation sees) and each call only filters it by
        the state's current occupancy.
        """
        if self._half_pairs is None:
            self._half_pairs = self._static_half_pairs()
        i, j = self._half_pairs
        occ = state.occupied
        keep = occ[i] & occ[j]
        return i[keep], j[keep]

    def _static_half_pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """Every static pair that touches a central, low row first.

        Each row emits its own higher-row neighbors in slot order: the
        centrals from the matrix, and the ghost rows next to them (low
        end of a pair whose high end is a central) from their own
        stencil.  Each ``i`` has one emitter, so the stable sort by ``i``
        is the whole-lattice row-major order.
        """
        half = self.valid & (self.matrix > self.centrals[:, None])
        ci, mi = np.nonzero(half)
        i, j = self.centrals[ci], self.matrix[ci, mi]
        central = np.zeros(len(self.sites), dtype=bool)
        central[self.centrals] = True
        if central.all():
            return i, j
        ghosts = sorted_unique(self.matrix[self.valid & ~central[self.matrix]])
        rows, valid = self.site_set.neighbor_rows(
            self.lattice.offsets_within(self.cutoff + self.skin), ghosts
        )
        gi, mi = np.nonzero(valid & central[rows] & (rows > ghosts[:, None]))
        i = np.concatenate([i, ghosts[gi]])
        j = np.concatenate([j, rows[gi, mi]])
        order = np.argsort(i, kind="stable")
        return i[order], j[order]

    def neighbor_rows(self, row: int) -> np.ndarray:
        """Row indices of the static neighbors of central row ``row``."""
        (c,) = np.nonzero(self.centrals == row)
        if len(c) == 0:
            raise ValueError(f"row {row} is not a central site")
        return self.matrix[c[0]][self.valid[c[0]]]

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

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"LatticeNeighborList(sites={len(self.sites)}, "
            f"centrals={len(self.centrals)}, cutoff={self.cutoff}, "
            f"runaways={self.n_runaways})"
        )
