"""AKMC drivers: serial BKL and the parallel sector-synchronous engine.

:class:`SerialAKMC` is the textbook residence-time (BKL) algorithm over
the full lattice — the physics reference and the engine the coupled
pipeline uses at small scale.

:class:`ParallelAKMC` executes the paper's Figure 7 flowchart on the
in-process runtime: per-cycle global time step from a max-rate allreduce
("#1: Compute dt"), eight Shim-Amar sectors processed in lockstep, events
by residence-time sampling inside each sector, and ghost reconciliation
after every sector through a pluggable
:class:`~repro.kmc.comm.ExchangeScheme` — the knob Figures 12-13 turn.

Both engines build the one pure-iron rate model,
:class:`~repro.kmc.events.KMCModel`, from ``params or RateParameters()``,
and events flow through one path, the incremental
:class:`~repro.kmc.catalog.EventCatalog`.

The module level imports what both engines execute.  The domain
decomposition, the sector geometry, the exchange schemes and the message
runtime are the parallel engine's alone and are imported where it is
constructed, so a serial run loads none of them.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro import observe as obs
from repro.io.checkpoint import (
    KMCCheckpoint,
    load_kmc_checkpoint,
    restore_rng_state,
    rng_state_json,
    save_kmc_checkpoint,
)
from repro.kmc.catalog import EventCatalog
from repro.kmc.events import VACANCY, KMCModel, RateParameters
from repro.kmc.rng import sector_rng
from repro.lattice.bcc import BCCLattice
from repro.potential.eam import EAMPotential

if TYPE_CHECKING:
    from repro.kmc.comm import ExchangeScheme
    from repro.lattice.domain import DomainDecomposition
    from repro.runtime.faults import FaultInjector


def _parallel_stack():
    """``(World, SectorSchedule, schemes)``: what only the parallel engine runs.

    ``schemes`` is the registry of the selectable communication schemes,
    by name.  :class:`ParallelAKMC` calls this where it is constructed,
    so its users pay for the message runtime, the sector geometry and
    the exchange schemes there and :class:`SerialAKMC` users never do.
    """
    from repro.kmc.comm import TraditionalExchange
    from repro.kmc.ondemand import OnDemandExchange
    from repro.kmc.onesided import OneSidedExchange
    from repro.kmc.sublattice import SectorSchedule
    from repro.runtime.simmpi import World

    schemes: dict[str, type[ExchangeScheme]] = {
        "traditional": TraditionalExchange,
        "ondemand": OnDemandExchange,
        "onesided": OneSidedExchange,
    }
    return World, SectorSchedule, schemes


def ghost_width_cells(lattice: BCCLattice, params: RateParameters) -> int:
    """Cells needed so a boundary vacancy's full rate stencil is local.

    An event reaches one first shell out (the hop target) and the energy
    cutoff around the target.
    """
    first_shell = math.sqrt(3.0) / 2.0 * lattice.a
    return max(1, math.ceil((first_shell + params.energy_cutoff) / lattice.a))


def sector_decomposition(
    lattice: BCCLattice, params, nranks: int
) -> tuple[DomainDecomposition, int]:
    """``(decomposition, ghost width)`` of a parallel AKMC run, checked.

    Raises ``ValueError`` when ``nranks`` has no process grid over the
    lattice or a subdomain cannot host the ghost shell and eight
    conflict-free sectors — at construction (and at scenario
    validation), not inside some rank of a running world.
    """
    from repro.lattice.domain import DomainDecomposition, choose_grid

    grid = choose_grid(nranks, (lattice.nx, lattice.ny, lattice.nz))
    decomp = DomainDecomposition(lattice, grid)
    width = ghost_width_cells(lattice, params)
    # Sectors are half a subdomain: each must span the ghost width and
    # more than twice the one-cell event reach.
    decomp.require_cells(
        2 * max(width, 2), f"8 conflict-free KMC sectors at ghost width {width}"
    )
    return decomp, width


@dataclass
class KMCResult:
    """Outcome of a KMC run."""

    occupancy: np.ndarray
    time: float
    cycles: int
    events: int
    vacancy_ranks: np.ndarray
    comm_stats: dict | None = None


def place_random_vacancies(
    model: KMCModel, count: int, rng: np.random.Generator
) -> np.ndarray:
    """A perfect-lattice occupancy with ``count`` random vacancies."""
    if count < 0 or count > model.nrows:
        raise ValueError(f"cannot place {count} vacancies on {model.nrows} sites")
    occ = model.perfect_occupancy()
    rows = rng.choice(model.nrows, size=count, replace=False)
    occ[rows] = VACANCY
    return occ


class SerialAKMC:
    """Residence-time AKMC over the full lattice.

    Parameters
    ----------
    lattice, potential, params:
        The physical system (``params=None`` = :class:`RateParameters`
        defaults).
    occupancy:
        Initial site array (``None`` = perfect lattice; add vacancies via
        :func:`place_random_vacancies` or from an MD cascade result).
        Every code must be ATOM or VACANCY.
    seed:
        RNG seed for event selection.
    faults:
        Optional :class:`~repro.runtime.faults.FaultInjector` consulted
        at the top of every event (site ``"kmc.event"``); a planned
        crash raises :class:`~repro.runtime.faults.InjectedFault` there,
        which the recovery supervisor in :mod:`repro.core.coupling`
        survives by restoring the last checkpoint.
    """

    def __init__(
        self,
        lattice: BCCLattice,
        potential: EAMPotential,
        params: RateParameters | None = None,
        occupancy: np.ndarray | None = None,
        seed: int = 2018,
        faults: FaultInjector | None = None,
    ) -> None:
        self.params = params or RateParameters()
        self.model = KMCModel(lattice, potential, self.params)
        if occupancy is None:
            occupancy = self.model.perfect_occupancy()
        self.occ = KMCModel.checked_occupancy(lattice, occupancy).copy()
        self.rng = np.random.default_rng(seed)
        self.time = 0.0
        self.events = 0
        self.faults = faults
        self.catalog = EventCatalog(self.model.nrows)
        #: Rows to re-derive before the next selection; ``None`` means the
        #: catalog has not been populated yet (full build pending).
        self._dirty: np.ndarray | None = None

    @property
    def vacancy_rows(self) -> np.ndarray:
        return np.flatnonzero(self.occ == VACANCY)

    def step(self) -> float | None:
        """One BKL event; returns the time increment (None if frozen).

        Event rates live in the incremental catalog and only rows inside
        the influence radius of the executed swap are re-derived, so a
        step costs O(log N + influence) instead of O(all vacancies).
        """
        if self.faults is not None:
            self.faults.crash_point(0, "kmc.event", self.events)
        with obs.phase("kmc.catalog_update"):
            catalog = self.catalog
            if self._dirty is None:
                refreshed, _ = catalog.refresh(
                    self.model, self.occ, self.vacancy_rows, VACANCY
                )
            elif len(self._dirty):
                refreshed, cleared = catalog.refresh(
                    self.model, self.occ, self._dirty, VACANCY
                )
                obs.add("kmc.catalog.rows_refreshed", refreshed)
                obs.add("kmc.catalog.rows_cleared", cleared)
                obs.add("kmc.catalog.rows_reused", catalog.n_active - refreshed)
            self._dirty = np.empty(0, dtype=np.int64)
        total = catalog.total
        if not total > 0.0:
            return None
        with obs.phase("kmc.event_selection"):
            dt = -math.log(self.rng.random()) / total
            vrow, trow = catalog.sample_event(self.rng.random())
            self.model.execute_swap(self.occ, vrow, trow)
            self._dirty = self.model.influence_rows([vrow, trow])
        obs.add("kmc.events")
        self.time += dt
        self.events += 1
        return dt

    def run(
        self,
        max_events: int | None = None,
        t_threshold: float | None = None,
        checkpoint_every: int | None = None,
        checkpoint_path=None,
        trajectory=None,
        trajectory_every: int | None = None,
    ) -> KMCResult:
        """Run until either bound is hit (at least one must be given).

        With ``checkpoint_every``/``checkpoint_path`` set, a resumable
        snapshot (occupancy, clock, event count, exact RNG state) is
        written atomically every N events; :meth:`restore` continues a
        run from such a snapshot bit-identically to one that was never
        interrupted.

        With ``trajectory`` set — a store path
        (:mod:`repro.io.store`) — the occupancy is recorded every
        ``trajectory_every`` events (default 1) plus once at run end,
        so frames land on disk incrementally instead of accumulating in
        memory.  The store is opened in append mode and closed (without
        finalizing) when the run ends.
        """
        if max_events is None and t_threshold is None:
            raise ValueError("provide max_events and/or t_threshold")
        if checkpoint_every is not None and checkpoint_path is None:
            raise ValueError("checkpoint_every requires checkpoint_path")
        if trajectory_every is not None and trajectory is None:
            raise ValueError("trajectory_every requires trajectory")
        writer = None
        if trajectory is not None:
            from repro.io.store import TrajectoryWriter

            writer = TrajectoryWriter(trajectory, self.model.lattice)
        every_t = trajectory_every if trajectory_every is not None else 1
        try:
            while True:
                if max_events is not None and self.events >= max_events:
                    break
                if t_threshold is not None and self.time >= t_threshold:
                    break
                if self.step() is None:
                    break
                if writer is not None and self.events % every_t == 0:
                    writer.record(self.time, self.occ)
                if (
                    checkpoint_every is not None
                    and self.events % checkpoint_every == 0
                ):
                    if writer is not None:
                        # Durability fence: frames at or before this
                        # checkpoint must be on disk before it publishes
                        # (recovery rewinds the store to the checkpoint
                        # clock and resumes from there).
                        writer.flush()
                    with obs.phase("kmc.checkpoint"):
                        self.checkpoint(checkpoint_path)
            if writer is not None:
                # The closing frame (a no-op when the bound landed on a
                # fence) — the store always ends at the final state.
                writer.record(self.time, self.occ)
        finally:
            if writer is not None:
                writer.close(final=False)
        vac = self.vacancy_rows
        return KMCResult(
            occupancy=self.occ.copy(),
            time=self.time,
            cycles=self.events,
            events=self.events,
            vacancy_ranks=self.model.sites[vac],
        )

    # ------------------------------------------------------------------
    # Checkpoint / restore (the recovery supervisor's primitives)
    # ------------------------------------------------------------------
    def checkpoint(self, path) -> None:
        """Atomically write this engine's resumable state to ``path``."""
        save_kmc_checkpoint(
            path,
            self.occ,
            time=self.time,
            cycle=self.events,
            events=self.events,
            rng_state=rng_state_json(self.rng),
        )

    def restore(self, checkpoint) -> None:
        """Resume from a checkpoint (path or loaded object), in place.

        Restores the occupancy, clock, event counter, and the exact RNG
        state, and discards the event catalog so it rebuilds from the
        restored occupancy — the continuation is bit-identical to a run
        that never stopped.
        """
        ckpt = (
            checkpoint
            if isinstance(checkpoint, KMCCheckpoint)
            else load_kmc_checkpoint(checkpoint)
        )
        self.occ = self.model.checked_occupancy(
            self.model.lattice, ckpt.occupancy
        ).copy()
        self.time = float(ckpt.time)
        self.events = int(ckpt.events)
        if ckpt.rng_state is not None:
            restore_rng_state(self.rng, ckpt.rng_state)
        self.catalog = EventCatalog(self.model.nrows)
        self._dirty = None


def _sector_events(
    model,
    occ,
    rows_s,
    member,
    catalog: EventCatalog,
    snapshot: np.ndarray | None,
    rng,
    dt,
) -> tuple[list[int], int, np.ndarray]:
    """One sector pass: incremental invalidation, O(log N) selection.

    ``snapshot`` is the occupancy as of the end of this sector's previous
    visit; diffing against it captures every change made since — own
    events in other sectors and ghost writes by *any* communication
    scheme — and only rows inside the influence radius of those changes
    (intersected with this sector) re-enter the catalog.  Returns the
    dirty rows, the event count, and the new snapshot.
    """
    with obs.phase("kmc.catalog_update"):
        if snapshot is None:
            catalog.refresh(
                model, occ, rows_s[occ[rows_s] == VACANCY], VACANCY
            )
        else:
            changed = np.flatnonzero(occ != snapshot)
            if len(changed):
                inval = model.influence_rows(changed)
                inval = inval[member[inval]]
                refreshed, cleared = catalog.refresh(model, occ, inval, VACANCY)
                obs.add("kmc.catalog.rows_refreshed", refreshed)
                obs.add("kmc.catalog.rows_cleared", cleared)
                obs.add(
                    "kmc.catalog.rows_reused", catalog.n_active - refreshed
                )
    dirty: list[int] = []
    events = 0
    t_sector = 0.0
    while True:
        total = catalog.total
        if not total > 0.0:
            break
        with obs.phase("kmc.event_selection"):
            t_sector += -math.log(rng.random()) / total
            if t_sector > dt:
                break
            vrow, trow = catalog.sample_event(rng.random())
            model.execute_swap(occ, vrow, trow)
        with obs.phase("kmc.catalog_update"):
            inval = model.influence_rows([vrow, trow])
            catalog.refresh(model, occ, inval[member[inval]], VACANCY)
        dirty.extend((vrow, trow))
        obs.add("kmc.events")
        events += 1
    return dirty, events, occ.copy()


class ParallelAKMC:
    """Sector-synchronous parallel AKMC (Figure 7) on the runtime.

    Parameters
    ----------
    lattice, potential, params:
        The physical system, as in :class:`SerialAKMC`.
    nranks:
        World size; :func:`choose_grid` factorizes it into the process
        grid.  A decomposition whose subdomains cannot host the ghost
        shell and eight conflict-free sectors is rejected here, before
        any world exists.
    scheme:
        One of ``"traditional"``, ``"ondemand"``, ``"onesided"``.
    seed:
        Base seed; event streams derive from (seed, rank, cycle, sector),
        so all three schemes reproduce identical trajectories.
    faults:
        Optional :class:`~repro.runtime.faults.FaultInjector` handed to
        the :class:`World`; every cycle starts with a
        ``fault_point("kmc.cycle", cycle)`` so a planned rank crash
        aborts the world exactly where the plan says.
    watchdog:
        Optional per-wait deadline (seconds) for the world's blocking
        recv/probe/collectives; ``None`` keeps them deadline-free.
    backend:
        Execution backend for the :class:`World`: ``"thread"``,
        ``"process"``, ``"overdecomposed"``, or ``None`` to defer to
        ``REPRO_BACKEND`` / thread.  Trajectories are bit-identical
        across backends.
    workers:
        Physical worker count for the overdecomposed / rank-group
        backends; ``None`` defers to ``REPRO_WORKERS`` / cpu count.

    Each sector keeps a persistent
    :class:`~repro.kmc.catalog.EventCatalog` across cycles; between
    visits only rows inside the influence radius of occupancy changes
    (own events elsewhere, ghost refreshes from any communication
    scheme) re-enter it.
    """

    def __init__(
        self,
        lattice: BCCLattice,
        potential: EAMPotential,
        params: RateParameters | None = None,
        *,
        nranks: int,
        scheme: str = "ondemand",
        seed: int = 2018,
        faults: FaultInjector | None = None,
        watchdog: float | None = None,
        backend: str | None = None,
        workers: int | None = None,
    ) -> None:
        *_, schemes = _parallel_stack()
        if scheme not in schemes:
            raise ValueError(f"unknown scheme {scheme!r}; choose from {list(schemes)}")
        self.lattice = lattice
        self.potential = potential
        self.params = params or RateParameters()
        #: Per-vacancy rate bound the cycle dt derives from: 8 candidate
        #: hops at the reference rate.  The EAM correction can drive a
        #: barrier below ``e_m0`` (only ``de_min`` limits it), so every
        #: event is capped at bound/8 (counted on
        #: ``kmc.rate_bound.clamped``) to make it a true bound.
        self.dt_rate_bound = 8.0 * self.params.reference_rate
        self.rate_cap = self.dt_rate_bound / 8.0
        self.decomp, self.width = sector_decomposition(
            lattice, self.params, nranks
        )
        self.scheme_name = scheme
        self.seed = seed
        self.faults = faults
        self.watchdog = watchdog
        self.backend = backend
        self.workers = workers

    @property
    def nranks(self) -> int:
        return self.decomp.nprocs

    def run(
        self,
        occupancy: np.ndarray,
        max_cycles: int = 50,
        t_threshold: float | None = None,
        checkpoint_every: int | None = None,
        checkpoint_path=None,
        resume=None,
        trajectory=None,
        trajectory_every: int | None = None,
    ) -> KMCResult:
        """Run from a *global* occupancy array; returns the global outcome.

        Parameters
        ----------
        checkpoint_every / checkpoint_path:
            Every N completed cycles, gather the global occupancy and
            let rank 0 write an atomic
            :class:`~repro.io.checkpoint.KMCCheckpoint`.  Because event
            streams are pure functions of (seed, rank, cycle, sector),
            the snapshot needs no RNG state.
        resume:
            A :class:`~repro.io.checkpoint.KMCCheckpoint` to continue
            from: pass its ``occupancy`` as this call's ``occupancy``
            and the run re-enters at its cycle/clock/event counters,
            producing a trajectory bit-identical to one that never
            stopped.
        trajectory / trajectory_every:
            Path of a streaming chunked trajectory store
            (:mod:`repro.io.store`); every N completed cycles (default
            1, plus once at run end) the global occupancy is gathered
            through the same path the checkpoints use and rank 0
            appends it incrementally.  Must be a path — the writer is
            opened inside rank 0's worker, so the wiring works
            identically on the thread, process, and overdecomposed
            backends.  Fence positions derive from the absolute cycle
            number, so a resumed run appends at the same fences as an
            uninterrupted one.
        """
        occupancy = KMCModel.checked_occupancy(self.lattice, occupancy)
        if checkpoint_every is not None and checkpoint_path is None:
            raise ValueError("checkpoint_every requires checkpoint_path")
        if trajectory_every is not None and trajectory is None:
            raise ValueError("trajectory_every requires trajectory")
        # A path, not a writer: rank 0 opens the writer in its worker.
        traj_path = None if trajectory is None else os.fspath(trajectory)
        traj_every = trajectory_every if trajectory_every is not None else 1
        lattice = self.lattice
        width = self.width
        seed = self.seed
        rate_bound = self.dt_rate_bound
        World, SectorSchedule, schemes = _parallel_stack()
        scheme_cls = schemes[self.scheme_name]
        start_cycle = 0 if resume is None else int(resume.cycle)
        start_time = 0.0 if resume is None else float(resume.time)
        events_base = 0 if resume is None else int(resume.events)

        def rank_main(comm):
            # Everything a rank builds before cycle 0, under one phase.
            with obs.phase("kmc.construct"):
                sub = self.decomp.subdomain(comm.rank)
                site_set, central_rows = sub.site_set(lattice, width)
                sites = site_set.ranks
                owned = sites[central_rows]
                model = KMCModel(
                    lattice,
                    self.potential,
                    self.params,
                    sites=sites,
                    rate_cap=self.rate_cap,
                )
                occ = occupancy[sites].copy()
                schedule = SectorSchedule(self.decomp, comm.rank, sites, width)
                scheme = scheme_cls(comm, schedule, occ)
                # One persistent catalog per sector: sector row sets
                # repeat every cycle, so incremental invalidation can
                # carry rates across cycles.  The snapshot records the
                # occupancy each catalog was last consistent with.
                catalogs = [
                    EventCatalog(model.nrows) for _ in range(schedule.nsectors)
                ]
            snapshots: list[np.ndarray | None] = [None] * schedule.nsectors
            t = start_time
            cycle = start_cycle
            events = 0
            traj_writer = None
            traj_cycle = None

            def record_frame():
                """Gather the global occupancy; rank 0 records a frame.

                Uses the same gather path as the checkpoints, so the
                store holds merged global frames regardless of the rank
                count.  The writer's frame fence keeps recording
                idempotent under resumed attempts, which re-execute
                cycles past the checkpoint they resume from.
                """
                nonlocal traj_writer
                with obs.phase("io.trajectory.gather"):
                    gathered = comm.allgather((owned, occ[central_rows].copy()))
                if comm.rank != 0:
                    return
                g_occ = np.empty(lattice.nsites, dtype=np.int8)
                for g_owned, g_vals in gathered:
                    g_occ[g_owned] = g_vals
                if traj_writer is None:
                    from repro.io.store import TrajectoryWriter

                    traj_writer = TrajectoryWriter(traj_path, lattice)
                traj_writer.record(t, g_occ)

            while cycle < max_cycles and (t_threshold is None or t < t_threshold):
                comm.fault_point("kmc.cycle", cycle)
                with obs.phase("kmc.cycle"):
                    # "#1: Compute dt for the subdomain" + global time sync —
                    # the collective the weak-scaling analysis blames.  The
                    # cycle step derives from the per-vacancy rate bound
                    # times the busiest rank's vacancy count.  It depends
                    # only on owned-site occupancy — guaranteed current
                    # under every communication scheme — so all schemes
                    # draw identical dt.
                    nv_local = int(np.count_nonzero(occ[central_rows] == VACANCY))
                    with obs.phase("kmc.dt_sync"):
                        nv_max = comm.allreduce(nv_local, op="max")
                    if nv_max == 0:
                        break
                    dt = 1.0 / (rate_bound * nv_max)
                    for s in range(schedule.nsectors):
                        scheme.before_sector(s)
                        rng = sector_rng(seed, comm.rank, cycle, s)
                        rows_s = schedule.sector_rows[s]
                        dirty, n_ev, snapshots[s] = _sector_events(
                            model,
                            occ,
                            rows_s,
                            schedule.sector_member[s],
                            catalogs[s],
                            snapshots[s],
                            rng,
                            dt,
                        )
                        events += n_ev
                        scheme.after_sector(s, np.asarray(dirty, dtype=np.int64))
                    t += dt
                    cycle += 1
                if traj_path is not None and cycle % traj_every == 0:
                    record_frame()
                    traj_cycle = cycle
                if (
                    checkpoint_every is not None
                    and cycle % checkpoint_every == 0
                ):
                    # Gather the global occupancy; rank 0 writes the
                    # snapshot atomically.  Pure extra collectives — the
                    # event streams (seed, rank, cycle, sector) are
                    # untouched, so checkpointing never perturbs the
                    # trajectory.
                    with obs.phase("kmc.checkpoint"):
                        gathered = comm.allgather(
                            (owned, occ[central_rows].copy(), events)
                        )
                        if comm.rank == 0:
                            if traj_writer is not None:
                                # Durability fence: every trajectory
                                # frame at or before this checkpoint
                                # must be on disk before the checkpoint
                                # publishes — recovery rewinds the store
                                # to the checkpoint clock and resumes.
                                traj_writer.flush()
                            g_occ = np.empty(lattice.nsites, dtype=np.int8)
                            total = events_base
                            for g_owned, g_vals, g_events in gathered:
                                g_occ[g_owned] = g_vals
                                total += g_events
                            save_kmc_checkpoint(
                                checkpoint_path,
                                g_occ,
                                time=t,
                                cycle=cycle,
                                events=total,
                            )
                            obs.add("kmc.checkpoints_written")
            if traj_path is not None and traj_cycle != cycle:
                # The closing frame: the store always ends at the final
                # state even when the cycle budget missed a fence (the
                # gather is a collective, so every rank skips it alike
                # when this cycle was already recorded).
                record_frame()
            if traj_writer is not None:
                traj_writer.close(final=False)
            scheme.finalize()
            total_events = events_base + comm.allreduce(events)
            return {
                "owned": owned,
                "occ": occ[central_rows].copy(),
                "time": t,
                "cycles": cycle,
                "events": total_events,
            }

        world = World(
            self.nranks,
            faults=self.faults,
            watchdog=self.watchdog,
            backend=self.backend,
            workers=self.workers,
        )
        results = world.run(rank_main)
        global_occ = np.empty(lattice.nsites, dtype=np.int8)
        for res in results:
            global_occ[res["owned"]] = res["occ"]
        vac = np.flatnonzero(global_occ == VACANCY)
        return KMCResult(
            occupancy=global_occ,
            time=results[0]["time"],
            cycles=results[0]["cycles"],
            events=results[0]["events"],
            vacancy_ranks=vac,
            comm_stats=world.stats.snapshot(),
        )
