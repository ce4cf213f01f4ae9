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
  atom's record moves to the list linked to its nearest lattice point.
  This is the paper's improvement over the array storage of Hu et al.
  [11]: the lists grow dynamically and keep run-away/run-away neighbor
  finding O(N) by locality ("the run-away atoms are linked to the nearest
  lattice point").  Here all the lists are one struct-of-arrays
  :class:`RunawayTable` whose rows are kept sorted by host row
  (physics/0311055's data sorting): the atoms linked to a lattice point
  are the contiguous rows with that host, in the order they arrived.
  That table is the only run-away store — the integrator, the force
  kernel, the checkpoint and a rank's wire messages all read its arrays.
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

import numpy as np

from repro.lattice.bcc import BCCLattice, SiteSet, sorted_unique
from repro.lattice.box import Box
from repro.md.state import AtomState


class RunawayTable:
    """The run-away atoms: one row each, struct of arrays, in host order.

    Attributes
    ----------
    ids:
        Atom IDs (their original site ranks), ``(n,)`` int64.
    host:
        Row index (into the owning state's arrays) of the nearest lattice
        point — the site each atom is linked to, ``(n,)`` int64.
    x, v, f:
        Positions, velocities, forces, each ``(n, 3)`` float64.
    rho:
        Electron densities, ``(n,)`` float64.

    Rows are in host-then-arrival order (a stable sort by ``host``), the
    order every consumer accumulates in.  The arrays are written in
    place (``runs.x[k] = ...``, ``runs.v += ...``); rows are added,
    dropped and re-ordered by building a new table.
    """

    FIELDS = ("ids", "host", "x", "v", "f", "rho")

    def __init__(self, ids=(), host=(), x=(), v=(), f=None, rho=None) -> None:
        self.ids = np.asarray(ids, dtype=np.int64).reshape(-1)
        n = len(self.ids)
        self.host = np.asarray(host, dtype=np.int64).reshape(n)
        self.x = np.asarray(x, dtype=float).reshape(n, 3)
        self.v = np.asarray(v, dtype=float).reshape(n, 3)
        f = np.zeros((n, 3)) if f is None else f
        rho = np.zeros(n) if rho is None else rho
        self.f = np.asarray(f, dtype=float).reshape(n, 3)
        self.rho = np.asarray(rho, dtype=float).reshape(n)

    def __len__(self) -> int:
        return len(self.ids)

    def take(self, rows) -> "RunawayTable":
        """The given rows (index array or mask), in the order given."""
        return RunawayTable(*(getattr(self, name)[rows] for name in self.FIELDS))

    @classmethod
    def concat(cls, tables) -> "RunawayTable":
        """The rows of ``tables`` (any number of them) one after the other."""
        tables = list(tables) or [cls()]
        return cls(
            *(
                np.concatenate([getattr(t, name) for t in tables])
                for name in cls.FIELDS
            )
        )

    def by_host(self) -> "RunawayTable":
        """The rows stably sorted by host: arrivals end their host's list."""
        return self.take(np.argsort(self.host, kind="stable"))


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
        #: The run-away atoms (Figure 3), rows in host order.
        self.runaways = RunawayTable()
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
    def n_runaways(self) -> int:
        return len(self.runaways)

    def _distance(self, state: AtomState, x: np.ndarray, rows) -> np.ndarray:
        """Distance of each position from the lattice point of its row."""
        return np.linalg.norm(
            self.box.minimum_image(x - state.site_pos[rows]), axis=-1
        )

    def _nearest_rows(self, state: AtomState, ids, x, linked) -> np.ndarray:
        """Rows of the lattice points nearest to the atoms at ``x``.

        The one place hosts are computed.  ``linked`` are the rows the
        atoms hang off now: an atom whose nearest point is outside the
        site set is reported by how far it got from there.
        """
        ranks = self.lattice.nearest_site(self.box.wrap(x))
        rows, found = self.site_set.rows_of(ranks, missing="mask")
        if not found.all():
            k = int(np.flatnonzero(~found)[0])
            raise ValueError(
                f"run-away atom {ids[k]} is "
                f"{self._distance(state, x[k], linked[k]):.2f} A from site "
                f"{self.sites[linked[k]]}, where the last check left it, and "
                f"nearest to site {ranks[k]}, outside the {len(self.sites)} "
                "sites (owned + ghost shell) of this rank: it outran the "
                "ghost shell between two checks; lower `runaway_check_interval`"
            )
        return rows

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

        # 1. New escapes: occupied rows displaced beyond the threshold
        #    leave a vacancy and join the list of their nearest site.
        runs = self.runaways
        rows = np.flatnonzero(state.displacement(self.box) > threshold)
        if len(rows):
            ids, x = state.ids[rows], state.x[rows]
            escaped = RunawayTable(
                ids,
                self._nearest_rows(state, ids, x, rows),
                x,
                state.v[rows],
                state.f[rows],
                state.rho[rows],
            )
            state.make_vacancy(rows)
            # In the table before step 2 can raise: no atom is lost.
            runs = self.runaways = RunawayTable.concat([runs, escaped]).by_host()
        if not len(runs):
            # The thermal lattice, and most ranks of a cascade.
            return {"escaped": 0, "captured": 0, "relinked": 0}

        # 2. Every run-away: re-link to the now-nearest lattice point;
        #    capture into a vacancy when close enough.  Captures are
        #    decided in the order the atoms had before re-linking, and a
        #    re-linked atom ends its new host's list.
        host = self._nearest_rows(state, runs.ids, runs.x, runs.host)
        moved = host != runs.host
        runs.host = host
        captured = self._captured(state, runs, cap)
        left = np.flatnonzero(~captured)
        order = np.argsort(2 * host[left] + moved[left], kind="stable")
        self.runaways = runs.take(left[order])
        return {
            "escaped": len(rows),
            "captured": int(np.count_nonzero(captured)),
            "relinked": int(np.count_nonzero(moved)),
        }

    def _captured(
        self, state: AtomState, runs: RunawayTable, radius: float
    ) -> np.ndarray:
        """Let vacant hosts capture; returns the mask of captured rows.

        A run-away within ``radius`` of its host's lattice point
        re-occupies it if it is vacant; of two inside the radius of one
        vacancy the first in the order of ``runs`` wins.
        """
        near = self._distance(state, runs.x, runs.host) <= radius
        rows = np.flatnonzero(near & (state.ids[runs.host] < 0))
        rows = rows[np.argsort(runs.host[rows], kind="stable")]
        first = np.ones(len(rows), dtype=bool)
        first[1:] = runs.host[rows[1:]] != runs.host[rows[:-1]]
        rows = rows[first]
        state.occupy(runs.host[rows], runs.ids[rows], runs.x[rows], runs.v[rows])
        captured = np.zeros(len(runs), dtype=bool)
        captured[rows] = True
        return captured

    def capture(self, state: AtomState, radius: float) -> int:
        """The capture pass alone (no escapes, no re-linking); the count."""
        captured = self._captured(state, self.runaways, radius)
        self.runaways = self.runaways.take(~captured)
        return int(np.count_nonzero(captured))

    # ------------------------------------------------------------------
    # Run-away interaction candidates
    # ------------------------------------------------------------------
    def runaway_candidates(
        self, runs: RunawayTable | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(rows, keep)``: candidate site rows around each run-away.

        ``rows[k][keep[k]]`` are the candidate partners of run-away ``k``
        of ``runs``, ascending.  ``runs`` defaults to the list's own
        :attr:`runaways`; a rank passes its own atoms plus the ghost
        copies it was sent.

        The paper says a run-away "checks the same neighbor atoms as the
        nearest lattice point it is linked to"; taken literally that
        misses partners near the cutoff edge, because the atom sits up to
        half the first-shell distance from its host (and another run-away
        partner adds the same slack on its side).  The stencil therefore
        reaches ``cutoff + 2 * link + skin`` and includes the host;
        neighbors outside the site set are dropped and duplicates from
        periodic aliasing are removed (safe: two images of one site can
        never both be within the cutoff of a point once the box exceeds
        2*cutoff).  One table pass serves every run-away of a step.
        Candidates are distance-filtered against the true cutoff by the
        force kernel; this set only needs to be a superset.
        """
        if runs is None:
            runs = self.runaways
        link = math.sqrt(3.0) / 4.0 * self.lattice.a
        reach = self.cutoff + 2.0 * link + self.skin
        rows, valid = self.site_set.neighbor_rows(
            self.lattice.offsets_within(reach), runs.host
        )
        rows = np.concatenate([rows, runs.host[:, None]], axis=1)
        # Ascending per run-away, dropped slots last, duplicates adjacent.
        nsites = len(self.sites)
        rows[:, :-1][~valid] = nsites
        rows.sort(axis=1)
        keep = rows < nsites
        keep[:, 1:] &= rows[:, 1:] != rows[:, :-1]
        rows[~keep] = 0
        return rows, keep

    def runaway_pairs(
        self,
        runs: RunawayTable | None = None,
        candidates: tuple[np.ndarray, np.ndarray] | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Unordered run-away/run-away pairs from neighboring lists.

        Pairs are positions ``(a, b)``, ``a < b``, in ``runs`` (default:
        the list's own), in lexicographic order; ``candidates`` is
        :meth:`runaway_candidates` of the same ``runs``.  O(N) in the
        run-away count: each atom's stencil is intersected with the rows
        that host a run-away, and only those stretches of the host-sorted
        table are walked.
        """
        if runs is None:
            runs = self.runaways
        if candidates is None:
            candidates = self.runaway_candidates(runs)
        rows, keep = candidates
        # Host h's list is table rows first[h] : first[h] + hosted[h].
        hosted = np.bincount(runs.host, minlength=len(self.sites))
        first = np.cumsum(hosted) - hosted
        a, slot = np.nonzero(keep & (hosted[rows] > 0))
        host = rows[a, slot]
        count = hosted[host]
        within = np.arange(count.sum()) - np.repeat(np.cumsum(count) - count, count)
        b = np.repeat(first[host], count) + within
        a = np.repeat(a, count)
        later = b > a
        return a[later], b[later]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"LatticeNeighborList(sites={len(self.sites)}, "
            f"centrals={len(self.centrals)}, cutoff={self.cutoff}, "
            f"runaways={self.n_runaways})"
        )
