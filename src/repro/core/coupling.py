"""The coupled MD-KMC pipeline (paper §2, Figure 7 step #0).

"MD simulates the defect generation caused by cascade collision, and
outputs the coordinates of vacancy and the information of atoms. KMC
simulates the defect evolution and vacancies clustering."

:class:`CoupledSimulation` wires the stages together:

1. build the BCC iron lattice and thermalize it,
2. run the PKA cascade with the MD engine (lattice neighbor list tracking
   run-away atoms and vacancies),
3. map the MD damage onto the on-lattice KMC occupancy ("#0: Model
   initialization" of Figure 7),
4. evolve the vacancies with AKMC (serial or parallel, any communication
   scheme),
5. translate the KMC clock into real time with the timescale formula and
   report before/after clustering statistics.
"""

from __future__ import annotations

import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro import observe as obs
from repro.core.clusters import ClusteringReport, clustering_report
from repro.core.timescale import kmc_real_time
from repro.io.checkpoint import load_kmc_checkpoint, save_checkpoint
from repro.io.store import (
    TrajectoryReader,
    finalize_store,
    rewind_store,
    seed_store,
)
from repro.kmc.akmc import ParallelAKMC, SerialAKMC
from repro.kmc.events import ATOM, VACANCY, RateParameters
from repro.lattice.bcc import BCCLattice
from repro.md.cascade import CascadeConfig, CascadeResult, run_cascade
from repro.md.engine import MDConfig, MDEngine
from repro.potential.eam import EAMPotential
from repro.potential.fe import make_fe_potential
from repro.runtime.faults import FaultInjector, InjectedFault, resolve_plan
from repro.runtime.simmpi import WorldAborted


@dataclass(frozen=True)
class CoupledConfig:
    """End-to-end configuration of one coupled run.

    Attributes
    ----------
    cells:
        Conventional cells per axis of the cubic simulation box.
    temperature:
        System temperature (K); the paper evaluates at 600 K.
    cascade:
        MD cascade parameters (``None`` selects defaults at the chosen
        temperature).
    rates:
        KMC rate parameters (``None`` = defaults at ``temperature``).
    kmc_max_events:
        Serial KMC event budget.
    kmc_nranks / kmc_scheme:
        When ``kmc_nranks`` is set the KMC stage runs on the parallel
        engine with the chosen communication scheme.
    kmc_backend:
        Execution backend for the parallel KMC world (``"thread"`` /
        ``"process"`` / ``"overdecomposed"``; ``None`` defers to
        ``REPRO_BACKEND``).
    kmc_workers:
        Physical worker count for the overdecomposed / rank-group
        backends (``None`` defers to ``REPRO_WORKERS`` / cpu count).
    kmc_max_cycles:
        Parallel KMC cycle budget.
    seed:
        Master seed.
    table_points:
        Interpolation table resolution (5000 in the paper; smaller speeds
        up toy runs without changing behaviour).
    recombination_radius:
        Interstitial-vacancy annihilation radius (angstrom) applied when
        mapping MD damage onto the KMC sites: a run-away atom within this
        distance of a vacancy recombines athermally before the KMC stage
        (the standard cascade-annealing capture radius; ``None`` disables
        recombination and every MD vacancy survives, as in the base
        pipeline).
    sunway_model:
        When ``True`` an extra pipeline stage prices one EAM force step
        of the post-cascade state on the Sunway SW26010 machine model
        (best optimization rung of Figure 9), attaching the modeled
        kernel time and DMA inventory to the result — the modeled
        hardware cost next to the host cost.
    faults:
        Fault-injection plan for the KMC stage — a
        :class:`~repro.runtime.faults.FaultPlan` or its DSL string (e.g.
        ``"crash:rank=1,cycle=3"``).  Injected crashes are survived by
        the recovery supervisor: the stage restarts from the last good
        checkpoint (or from scratch) until it completes, to a final
        state bit-identical to a fault-free run.
    checkpoint_every:
        Write a resumable KMC checkpoint every N cycles (parallel) or N
        events (serial).  ``None`` disables checkpointing; recovery then
        replays the whole stage.
    checkpoint_dir:
        Where checkpoints live.  ``None`` uses a fresh temporary
        directory, so no run artifacts land in the working tree unless a
        path is passed explicitly.
    max_recoveries:
        Recovery attempts before the supervisor gives up and re-raises.
    watchdog:
        Per-wait deadline (seconds) for the parallel KMC runtime's
        blocking recv/probe/collectives; ``None`` (default) keeps the
        hot paths deadline-free.
    trajectory:
        Path of a streaming chunked trajectory store
        (:mod:`repro.io.store`).  When set, the run appends occupancy
        frames incrementally — the post-MD damage state first, then the
        KMC evolution at every ``trajectory_every`` fence — so the
        scientific output lands on disk as the run progresses instead
        of accumulating in memory.  The store participates in recovery:
        after a fault it is rewound to the restored checkpoint's clock
        and the resumed attempt re-records bit-identically.
    trajectory_every:
        Record a frame every N serial events / parallel cycles
        (default 1).
    """

    cells: int = 8
    temperature: float = 600.0
    cascade: CascadeConfig | None = None
    rates: RateParameters | None = None
    kmc_max_events: int = 500
    kmc_nranks: int | None = None
    kmc_scheme: str = "ondemand"
    kmc_backend: str | None = None
    kmc_workers: int | None = None
    kmc_max_cycles: int = 50
    seed: int = 2018
    table_points: int = 2000
    recombination_radius: float | None = None
    sunway_model: bool = False
    faults: object = None
    checkpoint_every: int | None = None
    checkpoint_dir: str | None = None
    max_recoveries: int = 3
    watchdog: float | None = None
    trajectory: str | None = None
    trajectory_every: int = 1

    def __post_init__(self) -> None:
        if self.cells < 5:
            raise ValueError(
                "need at least 5 cells per axis (box >= 2*(cutoff+skin))"
            )
        if self.temperature <= 0:
            raise ValueError("temperature must be positive")
        if self.checkpoint_every is not None and self.checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1")
        if self.max_recoveries < 0:
            raise ValueError("max_recoveries must be >= 0")
        if self.trajectory_every < 1:
            raise ValueError("trajectory_every must be >= 1")


def recombine_frenkel_pairs(
    lattice: BCCLattice,
    vacancy_rows: np.ndarray,
    interstitial_positions: np.ndarray,
    radius: float,
) -> np.ndarray:
    """Surviving vacancy rows after interstitial-vacancy recombination.

    Greedy nearest-pair annihilation: each interstitial captures the
    closest surviving vacancy within ``radius`` (minimum-image distance).
    Returns the rows of vacancies that escape recombination.
    """
    if radius <= 0:
        raise ValueError(f"radius must be positive, got {radius}")
    from repro.lattice.box import Box

    box = Box.for_lattice(lattice)
    surviving = list(int(r) for r in vacancy_rows)
    vac_pos = {r: lattice.position_of(r) for r in surviving}
    for x in np.asarray(interstitial_positions, dtype=float).reshape(-1, 3):
        if not surviving:
            break
        dists = np.array(
            [float(box.distance(x, vac_pos[r])) for r in surviving]
        )
        nearest = int(np.argmin(dists))
        if dists[nearest] <= radius:
            surviving.pop(nearest)
    return np.asarray(surviving, dtype=np.int64)


@dataclass
class CoupledResult:
    """Everything a coupled run produces."""

    cascade: CascadeResult
    vacancies_after_md: np.ndarray
    vacancies_after_kmc: np.ndarray
    report_after_md: ClusteringReport
    report_after_kmc: ClusteringReport
    kmc_time: float
    kmc_events: int
    real_time_seconds: float
    comm_stats: dict | None = None
    #: Modeled SW26010 cost of one post-cascade EAM step (when enabled).
    sunway_report: dict | None = None
    #: How many times the KMC stage was restarted after a fault.
    recoveries: int = 0
    #: Injector counters (crashes/delays), when faults
    #: were planned.
    fault_report: dict | None = None
    #: Trajectory store path (when ``config.trajectory`` was set) and
    #: the number of frames it holds after finalize.
    trajectory_path: str | None = None
    trajectory_frames: int | None = None


class CoupledSimulation:
    """Driver of the full MD -> KMC pipeline.

    Parameters
    ----------
    config / potential:
        The run configuration and an optional pre-built potential.
    progress:
        Optional callable invoked with a stage name (``"setup"``,
        ``"cascade"``, ``"checkpoint"``, ``"sunway_model"``,
        ``"map_damage"``, ``"trajectory_init"``, ``"kmc"``,
        ``"analysis"``) as each pipeline stage begins — the metric
        streaming hook the service worker uses to publish live
        observe-registry snapshots at stage boundaries.  Exceptions it
        raises propagate (a broken hook is the caller's bug).
    """

    def __init__(
        self,
        config: CoupledConfig | None = None,
        potential: EAMPotential | None = None,
        progress=None,
    ) -> None:
        self.config = config or CoupledConfig()
        self.progress = progress
        self.lattice = BCCLattice(
            self.config.cells, self.config.cells, self.config.cells
        )
        self.potential = potential or make_fe_potential(n=self.config.table_points)

    def _notify(self, stage: str) -> None:
        if self.progress is not None:
            self.progress(stage)

    def _build_md_engine(self) -> MDEngine:
        """Stage 1: construct the MD engine over the lattice."""
        cfg = self.config
        return MDEngine(
            self.lattice,
            self.potential,
            MDConfig(temperature=cfg.temperature, seed=cfg.seed),
        )

    def model_sunway_step(self, engine: MDEngine) -> dict:
        """Optional stage: price one EAM step on the SW26010 machine model.

        Uses the fully optimized kernel variant (compacted table + data
        reuse + double buffering) over the engine's current state, so a
        profiled coupled run reports the modeled hardware cost of its MD
        force step alongside the measured host cost.
        """
        from repro.sunway.arch import SunwayArch
        from repro.sunway.kernel import STRATEGY_LADDER, BlockedEAMKernel

        kernel = BlockedEAMKernel(
            SunwayArch(),
            self.potential,
            STRATEGY_LADDER[-1],
            table_points=self.config.table_points,
        )
        report = kernel.run_step(engine.state, engine.nblist)
        return {
            "strategy": report.strategy.name,
            "modeled_step_time_s": report.total_time,
            "modeled_compute_time_s": report.compute_time,
            "modeled_dma_time_s": report.dma_time,
            "dma_operations": report.dma.operations,
            "dma_bytes": report.dma.total_bytes,
            "interactions": report.interactions,
            "natoms": report.natoms,
        }

    def occupancy_from_cascade(self, cascade: CascadeResult) -> np.ndarray:
        """Stage 3: map MD damage onto the KMC site array.

        Per the paper's model only "the coordinates of vacancy" seed the
        KMC stage (interstitials diffuse away far below the KMC horizon);
        with ``recombination_radius`` set, close Frenkel pairs annihilate
        first (athermal cascade annealing).
        """
        occ = np.full(self.lattice.nsites, ATOM, dtype=np.int8)
        occ[cascade.vacancy_rows] = VACANCY
        radius = self.config.recombination_radius
        if radius is not None and len(cascade.runaway_positions):
            surviving = recombine_frenkel_pairs(
                self.lattice,
                cascade.vacancy_rows,
                cascade.runaway_positions,
                radius,
            )
            occ[:] = ATOM
            occ[surviving] = VACANCY
        return occ

    # ------------------------------------------------------------------
    # Fault-tolerant KMC stage (the recovery supervisor)
    # ------------------------------------------------------------------
    def _checkpoint_dir(self) -> Path:
        cfg = self.config
        if cfg.checkpoint_dir is not None:
            path = Path(cfg.checkpoint_dir)
            path.mkdir(parents=True, exist_ok=True)
            return path
        # Run artifacts never land in the working tree by default.
        return Path(tempfile.mkdtemp(prefix="repro-checkpoint-"))

    def _run_kmc_attempt(self, occupancy, injector, resume, ckpt_path):
        """One KMC attempt: fresh engine, optional resume point."""
        cfg = self.config
        params = cfg.rates or RateParameters(temperature=cfg.temperature)
        every = cfg.checkpoint_every if ckpt_path is not None else None
        path = ckpt_path if every is not None else None
        traj = cfg.trajectory
        traj_every = cfg.trajectory_every if traj is not None else None
        if cfg.kmc_nranks is None:
            engine = SerialAKMC(
                self.lattice,
                self.potential,
                params,
                occupancy,
                seed=cfg.seed,
                faults=injector,
            )
            if resume is not None:
                engine.restore(resume)
            return engine.run(
                max_events=cfg.kmc_max_events,
                checkpoint_every=every,
                checkpoint_path=path,
                trajectory=traj,
                trajectory_every=traj_every,
            )
        engine = ParallelAKMC(
            self.lattice,
            self.potential,
            params,
            nranks=cfg.kmc_nranks,
            scheme=cfg.kmc_scheme,
            seed=cfg.seed,
            faults=injector,
            watchdog=cfg.watchdog,
            backend=cfg.kmc_backend,
            workers=cfg.kmc_workers,
        )
        occ0 = resume.occupancy if resume is not None else occupancy
        return engine.run(
            occ0,
            max_cycles=cfg.kmc_max_cycles,
            checkpoint_every=every,
            checkpoint_path=path,
            resume=resume,
            trajectory=traj,
            trajectory_every=traj_every,
        )

    def _run_kmc_supervised(self, occupancy: np.ndarray):
        """Stage 4 under the fault supervisor.

        Runs KMC attempts until one completes.  On a rank failure
        (injected or organic), a world abort, or a watchdog/world
        timeout, the supervisor restores the last good checkpoint and
        resumes — or replays the stage from the start when no checkpoint
        exists yet.  Both paths converge on a final state bit-identical
        to a fault-free run: the event streams are pure functions of
        (seed, rank, cycle, sector) for the parallel engine and the
        checkpoint carries the exact RNG state for the serial one.

        Returns ``(result, recoveries, fault_report)``.
        """
        cfg = self.config
        plan = resolve_plan(cfg.faults)
        if plan is None and cfg.checkpoint_every is None:
            # The historical direct path: no injector, no checkpoints.
            return (
                self._run_kmc_attempt(occupancy, None, None, None),
                0,
                None,
            )
        injector = FaultInjector(plan) if plan is not None else None
        ckpt_path = self._checkpoint_dir() / "kmc_checkpoint.npz"
        recoveries = 0
        resume = None
        while True:
            try:
                result = self._run_kmc_attempt(
                    occupancy, injector, resume, ckpt_path
                )
                report = injector.snapshot() if injector is not None else None
                return result, recoveries, report
            except (WorldAborted, InjectedFault, TimeoutError, RuntimeError):
                recoveries += 1
                obs.add("runtime.recoveries")
                if recoveries > cfg.max_recoveries:
                    raise
            with obs.phase("coupling.recover"):
                # Restore the last good checkpoint; if the fault struck
                # before the first one landed, replay from the start.
                if ckpt_path.exists():
                    resume = load_kmc_checkpoint(ckpt_path)
                else:
                    resume = None
                if cfg.trajectory is not None:
                    # Rewind the store to the restored clock: frames the
                    # crashed attempt wrote beyond the checkpoint are
                    # dropped and re-recorded bit-identically by the
                    # resumed attempt.  With no checkpoint yet, rewind
                    # to 0.0 keeps only the post-MD initial frame.
                    rewind_store(
                        cfg.trajectory,
                        resume.time if resume is not None else 0.0,
                    )
                obs.add(
                    "coupling.recover.from_checkpoint"
                    if resume is not None
                    else "coupling.recover.from_scratch"
                )

    def run(self) -> CoupledResult:
        """Execute the full pipeline and assemble the result.

        The five stages of the Figure 7 pipeline each run under their own
        observation phase (``coupled.setup`` .. ``coupled.analysis``), so
        a profiled run shows exactly where the coupled wall clock goes.
        """
        cfg = self.config
        with obs.phase("coupled.pipeline"):
            self._notify("setup")
            with obs.phase("coupled.setup"):
                engine = self._build_md_engine()
                cascade_cfg = cfg.cascade or CascadeConfig(
                    temperature=cfg.temperature
                )
            self._notify("cascade")
            with obs.phase("coupled.cascade"):
                cascade = run_cascade(engine, cascade_cfg)
            if cfg.checkpoint_dir is not None:
                # Persist the post-cascade MD engine state so a recovery
                # (or a later session) never has to replay the MD stage.
                self._notify("checkpoint")
                with obs.phase("coupled.checkpoint"):
                    save_checkpoint(
                        self._checkpoint_dir() / "md_cascade.npz", engine
                    )
            sunway_report = None
            if cfg.sunway_model:
                self._notify("sunway_model")
                with obs.phase("coupled.sunway_model"):
                    sunway_report = self.model_sunway_step(engine)
            self._notify("map_damage")
            with obs.phase("coupled.map_damage"):
                occ0 = self.occupancy_from_cascade(cascade)
                vac_md = np.flatnonzero(occ0 == VACANCY)
            if cfg.trajectory is not None:
                # Open the store fresh and seed it with the post-MD
                # damage state at clock 0 — the "before" frame of the
                # paper's Figure 17.  The KMC stage then appends to it
                # incrementally (rank 0 via the gather path when
                # parallel), and recovery rewinds it with the
                # checkpoints.
                self._notify("trajectory_init")
                with obs.phase("io.trajectory.init"):
                    seed_store(cfg.trajectory, self.lattice, occ0)
            self._notify("kmc")
            with obs.phase("coupled.kmc"):
                kmc, recoveries, fault_report = self._run_kmc_supervised(occ0)
            trajectory_frames = None
            if cfg.trajectory is not None:
                with obs.phase("io.trajectory.finalize"):
                    finalize_store(cfg.trajectory)
                    trajectory_frames = len(TrajectoryReader(cfg.trajectory))
            self._notify("analysis")
            with obs.phase("coupled.analysis"):
                c_mc = len(vac_md) / self.lattice.nsites
                # KMC clock runs in ps; the timescale formula takes seconds.
                real_seconds = kmc_real_time(
                    t_threshold=kmc.time * 1e-12,
                    c_mc=c_mc,
                    temperature=cfg.temperature,
                )
                report_md = clustering_report(self.lattice, vac_md)
                report_kmc = clustering_report(self.lattice, kmc.vacancy_ranks)
        return CoupledResult(
            cascade=cascade,
            vacancies_after_md=vac_md,
            vacancies_after_kmc=kmc.vacancy_ranks,
            report_after_md=report_md,
            report_after_kmc=report_kmc,
            kmc_time=kmc.time,
            kmc_events=kmc.events,
            real_time_seconds=real_seconds,
            comm_stats=kmc.comm_stats,
            sunway_report=sunway_report,
            recoveries=recoveries,
            fault_report=fault_report,
            trajectory_path=cfg.trajectory,
            trajectory_frames=trajectory_frames,
        )
