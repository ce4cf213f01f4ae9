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
2. every ``runaway_check_interval`` steps: escape/relink bookkeeping,
   then *migration* — the rows of the run-away table whose nearest
   lattice point is owned elsewhere are shipped to their new owner, one
   message per neighbor — then the capture pass.  Migration keeps its
   own round because a vacancy's owner must hold the migrants before it
   decides captures, and the captures before step 3 publishes them;
3. position exchange, one message per neighbor rank: the boundary rows
   of positions + occupancy (IDs) through the static pattern and, behind
   them, the table rows ``(ids, host ranks, x, v)`` of the owned
   run-aways hosted where that neighbor can see them;
4. density pass over the half pairs the rank owns — every pair with at
   least one owned endpoint, own and ghost-copy run-aways included —
   then the density exchange, again one message per neighbor: the
   boundary rows of ``rho`` and behind them the ``rho`` of the same
   run-away rows, which refresh the ghost copies positionally;
5. force pass over the same pair table and the table values the density
   pass fetched, second half-kick.

Steps 4-5 are :func:`repro.md.forces.density_pass` and
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
from repro.lattice.domain import DomainDecomposition, choose_grid
from repro.md.engine import MDConfig
from repro.md.forces import build_pair_table, density_pass, force_pass
from repro.md.ghost import GhostExchanger
from repro.md.integrator import VelocityVerlet
from repro.md.neighbors.lattice_list import LatticeNeighborList, RunawayTable
from repro.md.state import AtomState
from repro.md.thermostat import maxwell_boltzmann_velocities
from repro.potential.eam import EAMPotential
from repro.potential.fe import make_fe_potential
from repro.runtime.simmpi import World

TAG_X = 0
TAG_RHO = 100
TAG_RUNAWAY_MIGRATE = 300


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


class ParallelDamageMD:
    """Domain-decomposed MD with vacancies and run-away atoms.

    Parameters
    ----------
    lattice, potential, config:
        As for the serial :class:`~repro.md.engine.MDEngine`.
    nranks:
        World size; :func:`choose_grid` factorizes it into the process
        grid.  A decomposition whose subdomains are thinner than the
        ghost shell is rejected here, before any world exists.
    backend, workers:
        Handed to the :class:`~repro.runtime.simmpi.World`.
    """

    def __init__(
        self,
        lattice: BCCLattice,
        potential: EAMPotential | None = None,
        config: MDConfig | None = None,
        *,
        nranks: int,
        backend: str | None = None,
        workers: int | None = None,
    ) -> None:
        self.lattice = lattice
        self.config = config or MDConfig()
        self.potential = potential or make_fe_potential()
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
                # Per neighbor (plan order): which of my rows it holds,
                # owned or ghost — where it can see a run-away of mine.
                interest = []
                for plan in ex.plans:
                    visible, _rows = decomp.subdomain(plan.neighbor).site_set(
                        lattice, width
                    )
                    rows, mine = site_set.rows_of(visible.ranks, missing="mask")
                    interest.append(np.zeros(len(sites), dtype=bool))
                    interest[-1][rows[mine]] = True
                integ = VelocityVerlet(dt)
                ids_f = np.empty(len(sites), dtype=float)

            def exchange_runaways(tag: int, arrays, groups) -> RunawayTable:
                """One message per neighbor: the boundary rows of
                ``arrays`` and, behind them, ``groups[k]`` — rows of the
                run-away table for plan ``k``'s neighbor, hosts as global
                site ranks on the wire.  Returns the rows received."""
                own = nbl.runaways
                tails = ex.exchange(
                    comm,
                    tag,
                    arrays,
                    [
                        (own.ids[g], sites[own.host[g]], own.x[g], own.v[g])
                        for g in groups
                    ],
                )
                return RunawayTable.concat(
                    RunawayTable(ids, site_set.rows_of(hosts), x, v)
                    for ids, hosts, x, v in tails
                )

            def exchange_positions() -> tuple[RunawayTable, list]:
                """Phase 1: positions, occupancy and the run-aways each
                neighbor can see; ``(ghost copies, who sees which row)``."""
                seen = [np.flatnonzero(mask[nbl.runaways.host]) for mask in interest]
                ids_f[:] = state.ids
                ghosts = exchange_runaways(TAG_X, [state.x, ids_f], seen)
                state.ids[:] = ids_f.astype(np.int64)
                return ghosts, seen

            def migrate_runaways() -> None:
                """Ship run-aways whose nearest site belongs elsewhere."""
                own = nbl.runaways
                _b, i, j, k = lattice.coords_of(sites[own.host])
                owner = decomp.owner_of_cells(i, j, k)
                arrived = exchange_runaways(
                    TAG_RUNAWAY_MIGRATE,
                    [],
                    [np.flatnonzero(owner == plan.neighbor) for plan in ex.plans],
                )
                nbl.runaways = RunawayTable.concat(
                    [own.take(owner == comm.rank), arrived]
                ).by_host()

            def compute_forces(ghosts: RunawayTable, seen: list) -> None:
                """The two EAM passes over the pairs this rank owns.

                Own and ghost-copy run-aways join the flat particle array
                in host order, the serial engine's.  What the passes
                accumulate on ghost rows and ghost copies is partial and
                never read: their densities come from their owners, their
                forces are not integrated here.
                """
                n = state.n
                own = nbl.runaways
                order = np.argsort(
                    np.concatenate([own.host, ghosts.host]), kind="stable"
                )
                mine = order < len(own)
                runs = RunawayTable.concat([own, ghosts]).take(order)
                table, x, _active, runs = build_pair_table(state, nbl, pot, runs)
                dens = density_pass(pot, len(x), table)
                state.rho[:] = dens.rho[:n]
                own.rho[:] = dens.rho[n:][mine]
                with obs.phase("md.exchange"):
                    tails = ex.exchange(
                        comm, TAG_RHO, [state.rho], [(own.rho[g],) for g in seen]
                    )
                # A neighbor sends the rho of the rows it sent in phase 1.
                run_rho = np.concatenate([own.rho, *(rho for (rho,) in tails)])
                rho = np.concatenate([state.rho, run_rho[order]])
                forces, _emb = force_pass(pot, table, dens, rho)
                state.f[:] = forces[:n]
                own.f[:] = forces[n:][mine]

            with obs.phase("md.initialize"):
                compute_forces(*exchange_positions())
            for step in range(nsteps):
                with obs.phase("md.step"):
                    with obs.phase("md.integrate"):
                        integ.first_half(state, nbl, own_mask)
                        state.x[central_rows] = box.wrap(state.x[central_rows])
                        nbl.runaways.x[:] = box.wrap(nbl.runaways.x)
                    if step % runaway_check_interval == 0:
                        # Escape + relink over owned rows (ghosts parked),
                        # then ownership migration, then the capture pass —
                        # each capture decision is taken by the vacancy's
                        # owner, after the run-away has reached it, with
                        # the serial engine's capture radius.
                        with obs.phase("md.neighbor"):
                            _escape_and_relink(
                                state, nbl, ghost_rows, displacement_threshold
                            )
                            migrate_runaways()
                            nbl.capture(state, displacement_threshold / 2.0)
                    with obs.phase("md.exchange"):
                        ghosts, seen = exchange_positions()
                    with obs.phase("md.force"):
                        compute_forces(ghosts, seen)
                    with obs.phase("md.integrate"):
                        integ.second_half(state, nbl, own_mask)
            return {
                "owned": sites[central_rows],
                "x": state.x[central_rows].copy(),
                "v": state.v[central_rows].copy(),
                "ids": state.ids[central_rows].copy(),
                "runaway_ids": nbl.runaways.ids,
                "runaway_x": nbl.runaways.x,
            }

        world = World(
            self.nranks,
            backend=self.backend,
            workers=self.workers,
        )
        results = world.run(rank_main)
        nsites = lattice.nsites
        x = np.zeros((nsites, 3))
        v = np.zeros((nsites, 3))
        ids = np.zeros(nsites, dtype=np.int64)
        for res in results:
            x[res["owned"]] = res["x"]
            v[res["owned"]] = res["v"]
            ids[res["owned"]] = res["ids"]
        run_ids = np.concatenate([res["runaway_ids"] for res in results])
        run_x = np.concatenate([res["runaway_x"] for res in results])
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
