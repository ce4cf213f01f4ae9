"""Parallel MD with run-away atoms: the full §2.1.1 exchange protocol.

The paper's parallel structure — domain decomposition, static-pattern
ghost exchange of positions, a second exchange of electron densities
between the EAM passes, per-rank forces over owned centrals — plus the
damage machinery so cascades run distributed (a perfect lattice is the
run with no PKA: zero vacancies, zero run-aways):

* vacancies propagate through the static ghost exchange ("the lattice
  points (either an atom or a vacancy) in the ghost region is packed
  (unpacked) and sent (received) according to the indexes in the array");
* run-away atoms migrate between ranks and appear as ghosts — "For the
  run-away atoms, if they move into the subdomain or the ghost region of
  the neighbor processes, we pack their information and send it to the
  corresponding neighbor processes."

Per step the protocol is:

1. half-kick + drift owned atoms and owned run-aways;
2. every ``runaway_check_interval`` steps: escape/capture/relink
   bookkeeping, then *migration* — a run-away whose nearest lattice point
   is owned elsewhere is packed and shipped to its new owner;
3. static ghost exchange of positions + occupancy (IDs);
4. run-away ghost broadcast: copies of owned run-aways hosted in a
   neighbor's interest region travel with their positions;
5. density pass over the half pairs the rank owns — every pair with at
   least one owned endpoint, own and ghost-copy run-aways included —
   then the second exchange phase ships densities: for lattice sites
   through the static pattern, for run-aways with refreshed ghost copies;
6. force pass over the same pair table and the table values the density
   pass fetched, second half-kick.

Steps 5-6 are :func:`repro.md.forces.density_pass` and
:func:`~repro.md.forces.force_pass`, the serial engine's kernel, over a
pair list in the serial engine's order; step 1 is its integrator.  So
the result is the serial engine's bit for bit (asserted by tests): same
positions and velocities, same vacancy inventory, same run-aways.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import observe as obs
from repro.lattice.bcc import BCCLattice
from repro.lattice.box import Box
from repro.lattice.domain import DIRECTIONS, DomainDecomposition, choose_grid
from repro.md.engine import MDConfig
from repro.md.forces import build_pair_table, density_pass, force_pass
from repro.md.ghost import GhostExchanger
from repro.md.integrator import VelocityVerlet
from repro.md.neighbors.lattice_list import LatticeNeighborList, RunawayAtom
from repro.md.state import AtomState
from repro.md.thermostat import maxwell_boltzmann_velocities
from repro.potential.eam import EAMPotential
from repro.potential.fe import make_fe_potential
from repro.runtime.simmpi import World

TAG_X = 0
TAG_RHO = 100
TAG_RUNAWAY_MIGRATE = 300
TAG_RUNAWAY_GHOST_X = 400
TAG_RUNAWAY_GHOST_RHO = 500


@dataclass
class ParallelDamageResult:
    """Global outcome of a distributed damage run."""

    positions: np.ndarray
    velocities: np.ndarray
    vacancy_ranks: np.ndarray
    runaway_ids: np.ndarray
    runaway_positions: np.ndarray
    comm_stats: dict
    nranks: int


def _pack_runaways(atoms: list[RunawayAtom], sites: np.ndarray):
    """Wire format: (ids, host global ranks, x, v) arrays."""
    return (
        np.array([a.id for a in atoms], dtype=np.int64),
        sites[[a.host for a in atoms]].astype(np.int64),
        np.array([a.x for a in atoms]).reshape(-1, 3),
        np.array([a.v for a in atoms]).reshape(-1, 3),
    )


class ParallelDamageMD:
    """Domain-decomposed MD with vacancies and run-away atoms.

    Parameters
    ----------
    lattice, potential, config:
        As for the serial :class:`~repro.md.engine.MDEngine`.
    grid / nranks:
        Process grid, or a world size for :func:`choose_grid` to
        factorize.  A decomposition whose subdomains are thinner than
        the ghost shell is rejected here, before any world exists.
    network, backend, workers:
        Handed to the :class:`~repro.runtime.simmpi.World`.
    """

    def __init__(
        self,
        lattice: BCCLattice,
        potential: EAMPotential | None = None,
        config: MDConfig | None = None,
        grid: tuple[int, int, int] | None = None,
        nranks: int | None = None,
        network=None,
        backend: str | None = None,
        workers: int | None = None,
    ) -> None:
        self.lattice = lattice
        self.config = config or MDConfig()
        self.potential = potential or make_fe_potential(
            layout=self.config.table_layout
        )
        if grid is None:
            if nranks is None:
                raise ValueError("provide either grid or nranks")
            grid = choose_grid(nranks, (lattice.nx, lattice.ny, lattice.nz))
        self.decomp = DomainDecomposition(lattice, grid)
        # One extra ghost cell beyond the MD cutoff: a run-away atom sits
        # up to half a first-shell from its host, so its interaction
        # sphere (and its ghost-copy relevance) reaches that much past
        # the lattice stencil.
        self.width = self.decomp.ghost_width_cells(self.potential.cutoff) + 1
        self.decomp.require_cells(
            self.width, f"the MD ghost shell of width {self.width}"
        )
        self.box = Box.for_lattice(lattice)
        self.network = network
        self.backend = backend
        self.workers = workers

    @property
    def nranks(self) -> int:
        return self.decomp.nprocs

    def _initial_velocities(self) -> np.ndarray:
        state = AtomState.perfect(self.lattice)
        rng = np.random.default_rng(self.config.seed)
        maxwell_boltzmann_velocities(state, self.config.temperature, rng)
        return state.v

    def run(
        self,
        nsteps: int,
        dt: float | None = None,
        displacement_threshold: float = 1.2,
        runaway_check_interval: int = 5,
        pka: tuple[int, np.ndarray] | None = None,
    ) -> ParallelDamageResult:
        """Run a distributed damage simulation.

        ``pka`` optionally injects a primary knock-on atom: a (global
        site rank, velocity vector) pair applied after thermalization.
        """
        if nsteps < 1:
            raise ValueError(f"nsteps must be >= 1, got {nsteps}")
        dt = dt if dt is not None else self.config.dt
        v_global = self._initial_velocities()
        if pka is not None:
            v_global = v_global.copy()
            v_global[int(pka[0])] = np.asarray(pka[1], dtype=float)
        lattice = self.lattice
        pot = self.potential
        box = self.box
        decomp = self.decomp
        width = self.width

        def rank_main(comm):
            with obs.phase("md.initialize"):
                sub = decomp.subdomain(comm.rank)
                site_set, central_rows = sub.site_set(lattice, width)
                sites = site_set.ranks
                own_mask = np.zeros(len(sites), dtype=bool)
                own_mask[central_rows] = True
                ghost_rows = np.flatnonzero(~own_mask)
                state = AtomState.for_sites(lattice, sites)
                state.v[:] = v_global[sites]
                nbl = LatticeNeighborList(
                    lattice, pot.cutoff, sites=sites, centrals=central_rows
                )
                ex = GhostExchanger(decomp, comm.rank, sites, width)
                # Ranks my ghost region could host run-aways for / from,
                # and which of my rows each of them holds (owned or ghost).
                neighbor_ranks = sorted(
                    {decomp.neighbor_rank(comm.rank, d) for d in DIRECTIONS}
                    - {comm.rank}
                )
                interest: dict[int, np.ndarray] = {}
                for n in neighbor_ranks:
                    visible, _rows = decomp.subdomain(n).site_set(lattice, width)
                    rows, mine = site_set.rows_of(visible.ranks, missing="mask")
                    interest[n] = np.zeros(len(sites), dtype=bool)
                    interest[n][rows[mine]] = True
                integ = VelocityVerlet(dt)
                ids_f = np.empty(len(sites), dtype=float)

            def exchange_ids_and_x() -> None:
                ids_f[:] = state.ids
                ex.exchange(comm, TAG_X, [state.x, ids_f])
                state.ids[:] = ids_f.astype(np.int64)

            def seen_by(n: int) -> list[RunawayAtom]:
                """Owned run-aways hosted where neighbor ``n`` can see them."""
                return [a for a in nbl.runaways if interest[n][a.host]]

            def migrate_runaways() -> None:
                """Ship run-aways whose nearest site belongs elsewhere."""
                outgoing: dict[int, list[RunawayAtom]] = {n: [] for n in neighbor_ranks}
                for atom in nbl.runaways:
                    owner = decomp.owner_of_site(int(sites[atom.host]))
                    if owner != comm.rank:
                        nbl._unlink(atom)
                        outgoing[owner].append(atom)
                for n in neighbor_ranks:
                    comm.send(
                        n,
                        TAG_RUNAWAY_MIGRATE,
                        _pack_runaways(outgoing[n], sites),
                    )
                for n in neighbor_ranks:
                    _s, _t, payload = comm.recv(
                        source=n, tag=TAG_RUNAWAY_MIGRATE
                    )
                    ids, hosts, xs, vs = payload
                    host_rows = site_set.rows_of(hosts)
                    for k in range(len(ids)):
                        atom = RunawayAtom(
                            id=int(ids[k]),
                            x=xs[k].copy(),
                            v=vs[k].copy(),
                            host=int(host_rows[k]),
                        )
                        nbl._link(atom)

            def broadcast_ghost_runaways() -> list[RunawayAtom]:
                """Copies of owned run-aways for neighbors that see them."""
                for n in neighbor_ranks:
                    comm.send(
                        n, TAG_RUNAWAY_GHOST_X, _pack_runaways(seen_by(n), sites)
                    )
                ghosts_in: list[RunawayAtom] = []
                for n in neighbor_ranks:
                    _s, _t, payload = comm.recv(
                        source=n, tag=TAG_RUNAWAY_GHOST_X
                    )
                    ids, hosts, xs, vs = payload
                    host_rows, covered = site_set.rows_of(hosts, missing="mask")
                    for k in np.flatnonzero(covered):
                        ghosts_in.append(
                            RunawayAtom(
                                id=int(ids[k]),
                                x=xs[k].copy(),
                                v=vs[k].copy(),
                                host=int(host_rows[k]),
                            )
                        )
                return ghosts_in

            def exchange_runaway_rho(
                ghost_runs: list[RunawayAtom],
            ) -> None:
                """Refresh ghost run-away densities from their owners."""
                for n in neighbor_ranks:
                    mine = seen_by(n)
                    comm.send(
                        n,
                        TAG_RUNAWAY_GHOST_RHO,
                        (
                            np.array([a.id for a in mine], dtype=np.int64),
                            np.array([a.rho for a in mine]),
                        ),
                    )
                rho_by_id: dict[int, float] = {}
                for n in neighbor_ranks:
                    _s, _t, (ids, rhos) = comm.recv(
                        source=n, tag=TAG_RUNAWAY_GHOST_RHO
                    )
                    for k in range(len(ids)):
                        rho_by_id[int(ids[k])] = float(rhos[k])
                for atom in ghost_runs:
                    if atom.id in rho_by_id:
                        atom.rho = rho_by_id[atom.id]

            def compute_forces(ghost_runs: list[RunawayAtom]) -> None:
                """The two EAM passes over the pairs this rank owns.

                Own and ghost-copy run-aways join the flat particle array
                in host order, the serial engine's.  What the passes
                accumulate on ghost rows and ghost copies is partial and
                never read: their densities come from their owners, their
                forces are not integrated here.
                """
                n = state.n
                runs = sorted(nbl.runaways + ghost_runs, key=lambda a: a.host)
                table, x, _active, runs = build_pair_table(state, nbl, pot, runs)
                dens = density_pass(pot, len(x), table)
                state.rho[:] = dens.rho[:n]
                for k, atom in enumerate(runs):
                    atom.rho = float(dens.rho[n + k])
                with obs.phase("md.exchange"):
                    ex.exchange(comm, TAG_RHO, [state.rho])
                    exchange_runaway_rho(ghost_runs)
                rho = np.concatenate([state.rho, [a.rho for a in runs]])
                forces, _emb = force_pass(pot, table, dens, rho)
                state.f[:] = forces[:n]
                for k, atom in enumerate(runs):
                    atom.f = forces[n + k].copy()

            with obs.phase("md.initialize"):
                exchange_ids_and_x()
                compute_forces(broadcast_ghost_runaways())
            for step in range(nsteps):
                with obs.phase("md.step"):
                    with obs.phase("md.integrate"):
                        integ.first_half(state, nbl, own_mask)
                        state.x[central_rows] = box.wrap(state.x[central_rows])
                        for atom in nbl.runaways:
                            atom.x = box.wrap(atom.x)
                    if step % runaway_check_interval == 0:
                        # Escape + relink over owned rows (ghosts parked),
                        # then ownership migration, then the capture pass —
                        # each capture decision is taken by the vacancy's
                        # owner, after the run-away has reached it.
                        with obs.phase("md.neighbor"):
                            _escape_and_relink(
                                state, nbl, ghost_rows, displacement_threshold
                            )
                            migrate_runaways()
                            _capture_pass(state, nbl, displacement_threshold)
                    with obs.phase("md.exchange"):
                        exchange_ids_and_x()
                        ghost_runs = broadcast_ghost_runaways()
                    with obs.phase("md.force"):
                        compute_forces(ghost_runs)
                    with obs.phase("md.integrate"):
                        integ.second_half(state, nbl, own_mask)
            runs = nbl.runaways
            return {
                "owned": sites[central_rows],
                "x": state.x[central_rows].copy(),
                "v": state.v[central_rows].copy(),
                "ids": state.ids[central_rows].copy(),
                "runaway_ids": np.array([a.id for a in runs], dtype=np.int64),
                "runaway_x": np.array([a.x for a in runs]).reshape(-1, 3),
            }

        world = World(
            self.nranks,
            network=self.network,
            backend=self.backend,
            workers=self.workers,
        )
        results = world.run(rank_main)
        nsites = lattice.nsites
        x = np.zeros((nsites, 3))
        v = np.zeros((nsites, 3))
        ids = np.zeros(nsites, dtype=np.int64)
        run_ids = []
        run_x = []
        for res in results:
            x[res["owned"]] = res["x"]
            v[res["owned"]] = res["v"]
            ids[res["owned"]] = res["ids"]
            run_ids.append(res["runaway_ids"])
            run_x.append(res["runaway_x"])
        run_ids = np.concatenate(run_ids)
        run_x = (
            np.concatenate(run_x) if len(run_ids) else np.empty((0, 3))
        )
        order = np.argsort(run_ids)
        return ParallelDamageResult(
            positions=x,
            velocities=v,
            vacancy_ranks=np.flatnonzero(ids < 0),
            runaway_ids=run_ids[order],
            runaway_positions=run_x[order],
            comm_stats=world.stats.snapshot(),
            nranks=self.nranks,
        )


def _escape_and_relink(
    state: AtomState,
    nbl: LatticeNeighborList,
    ghost_rows: np.ndarray,
    threshold: float,
) -> None:
    """Escape detection + relinking restricted to owned rows, no capture.

    Ghost rows mirror remote atoms; their owners do their bookkeeping.
    Temporarily parking ghost rows on their lattice points keeps the
    shared scan (which is global over the local state) from
    double-detecting, and a zero capture radius defers captures to the
    owner-side pass after migration.
    """
    saved_x = state.x[ghost_rows]
    saved_ids = state.ids[ghost_rows]
    state.x[ghost_rows] = state.site_pos[ghost_rows]
    state.ids[ghost_rows] = np.abs(saved_ids)
    try:
        nbl.update_runaways(state, threshold, capture_radius=0.0)
    finally:
        state.x[ghost_rows] = saved_x
        state.ids[ghost_rows] = saved_ids


def _capture_pass(
    state: AtomState, nbl: LatticeNeighborList, threshold: float
) -> None:
    """Owner-side capture: a run-away on a vacant host re-occupies it.

    Uses the serial engine's capture radius (threshold / 2) and the same
    host-sorted processing order, so trajectories match the serial
    bookkeeping exactly.
    """
    cap = threshold / 2.0
    for atom in list(nbl.runaways):
        dist = float(
            np.linalg.norm(
                nbl.box.minimum_image(atom.x - state.site_pos[atom.host])
            )
        )
        if state.ids[atom.host] < 0 and dist <= cap:
            nbl._unlink(atom)
            state.occupy(atom.host, atom.id, atom.x, atom.v)
