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
from contextlib import nullcontext
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
from repro.runtime.faults import FaultInjector, InjectedFault
from repro.runtime.simmpi import WorldAborted
from repro.service.spec import ScenarioSpec


#: Recovery attempts before the supervisor gives up and re-raises.
MAX_RECOVERIES = 3


@dataclass(frozen=True)
class CoupledConfig:
    """One coupled run: a :class:`~repro.service.spec.ScenarioSpec` plus
    the two paths that belong to this run only.

    Build it with :meth:`ScenarioSpec.to_coupled_config
    <repro.service.spec.ScenarioSpec.to_coupled_config>`.  Every run
    parameter — box, temperature, cascade, KMC budget, ranks, scheme,
    backend, fault plan, checkpoint cadence, watchdog — lives in
    ``spec`` and is validated there, once.

    Attributes
    ----------
    spec:
        The scenario this run executes.
    trajectory:
        Path of a streaming chunked trajectory store
        (:mod:`repro.io.store`).  When set, the run appends occupancy
        frames incrementally — the post-MD damage state first, then the
        KMC evolution every ``spec.trajectory_every`` (default 1) serial
        events / parallel cycles — so the scientific output lands on
        disk as the run progresses.  The store participates in
        recovery: after a fault it is rewound to the restored
        checkpoint's clock and the resumed attempt re-records
        bit-identically.
    checkpoint_dir:
        Where the post-cascade MD checkpoint and the KMC checkpoints
        live.  ``None`` keeps KMC checkpoints (when ``spec.faults`` or
        ``spec.checkpoint_every`` asks for them) in a temporary
        directory removed when the KMC stage ends.
    """

    spec: ScenarioSpec = ScenarioSpec()
    trajectory: str | None = None
    checkpoint_dir: str | None = None


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
    #: How many times the KMC stage was restarted after a fault.
    recoveries: int = 0
    #: The injector's snapshot (injected/crashes/delays/plan), when
    #: faults were planned.
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
        ``"cascade"``, ``"checkpoint"``, ``"map_damage"``,
        ``"trajectory_init"``, ``"kmc"``, ``"analysis"``) as each
        pipeline stage begins — the stage-boundary hook the benchmark
        ledger times its per-stage spans with.  Exceptions it raises
        propagate (a broken hook is the caller's bug).
    """

    def __init__(
        self,
        config: CoupledConfig | None = None,
        potential: EAMPotential | None = None,
        progress=None,
    ) -> None:
        self.config = config or CoupledConfig()
        self.spec = self.config.spec
        self.progress = progress
        cells = self.spec.cells
        self.lattice = BCCLattice(cells, cells, cells)
        self.potential = potential or make_fe_potential(n=self.spec.table_points)

    def _notify(self, stage: str) -> None:
        if self.progress is not None:
            self.progress(stage)

    def _build_md_engine(self) -> MDEngine:
        """Stage 1: construct the MD engine over the lattice."""
        spec = self.spec
        return MDEngine(
            self.lattice,
            self.potential,
            MDConfig(temperature=spec.temperature, seed=spec.seed),
        )

    def cascade_config(self) -> CascadeConfig:
        """Stage 2's cascade: the spec's PKA and step count (each
        defaulting to :class:`CascadeConfig`'s) at the spec's temperature."""
        spec = self.spec
        return CascadeConfig(
            pka_energy=spec.pka_energy or CascadeConfig.pka_energy,
            nsteps=spec.md_steps or CascadeConfig.nsteps,
            temperature=spec.temperature,
        )

    def occupancy_from_cascade(self, cascade: CascadeResult) -> np.ndarray:
        """Stage 3: map MD damage onto the KMC site array.

        Per the paper's model only "the coordinates of vacancy" seed the
        KMC stage (interstitials diffuse away far below the KMC horizon);
        with ``recombination_radius`` set, close Frenkel pairs annihilate
        first (athermal cascade annealing).
        """
        occ = np.full(self.lattice.nsites, ATOM, dtype=np.int8)
        occ[cascade.vacancy_rows] = VACANCY
        radius = self.spec.recombination_radius
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
        path = Path(self.config.checkpoint_dir)
        path.mkdir(parents=True, exist_ok=True)
        return path

    def _run_kmc_attempt(self, occupancy, injector, resume, ckpt_path):
        """One KMC attempt: fresh engine, optional resume point."""
        spec = self.spec
        params = RateParameters(temperature=spec.temperature)
        every = spec.checkpoint_every if ckpt_path is not None else None
        path = ckpt_path if every is not None else None
        traj = self.config.trajectory
        traj_every = (spec.trajectory_every or 1) if traj is not None else None
        if spec.kmc_nranks is None:
            engine = SerialAKMC(
                self.lattice,
                self.potential,
                params,
                occupancy,
                seed=spec.seed,
                faults=injector,
            )
            if resume is not None:
                engine.restore(resume)
            return engine.run(
                max_events=spec.kmc_max_events,
                checkpoint_every=every,
                checkpoint_path=path,
                trajectory=traj,
                trajectory_every=traj_every,
            )
        engine = ParallelAKMC(
            self.lattice,
            self.potential,
            params,
            nranks=spec.kmc_nranks,
            scheme=spec.kmc_scheme,
            seed=spec.seed,
            faults=injector,
            watchdog=spec.watchdog,
            backend=spec.backend,
            workers=spec.workers,
        )
        occ0 = resume.occupancy if resume is not None else occupancy
        return engine.run(
            occ0,
            max_cycles=spec.kmc_max_cycles,
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
        faults = self.spec.faults
        if faults is None and self.spec.checkpoint_every is None:
            # The historical direct path: no injector, no checkpoints.
            return (
                self._run_kmc_attempt(occupancy, None, None, None),
                0,
                None,
            )
        injector = FaultInjector(faults) if faults is not None else None
        # Run artifacts never land in the working tree by default, and a
        # temporary checkpoint directory does not outlive the stage.
        if self.config.checkpoint_dir is not None:
            scope = nullcontext(self._checkpoint_dir())
        else:
            scope = tempfile.TemporaryDirectory(prefix="repro-checkpoint-")
        with scope as ckpt_dir:
            ckpt_path = Path(ckpt_dir) / "kmc_checkpoint.npz"
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
                    if recoveries > MAX_RECOVERIES:
                        raise
                with obs.phase("coupling.recover"):
                    # Restore the last good checkpoint; if the fault struck
                    # before the first one landed, replay from the start.
                    if ckpt_path.exists():
                        resume = load_kmc_checkpoint(ckpt_path)
                    else:
                        resume = None
                    if self.config.trajectory is not None:
                        # Rewind the store to the restored clock: frames
                        # the crashed attempt wrote beyond the checkpoint
                        # are dropped and re-recorded bit-identically by
                        # the resumed attempt.  With no checkpoint yet,
                        # rewind to 0.0 keeps only the post-MD initial
                        # frame.
                        rewind_store(
                            self.config.trajectory,
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
                cascade_cfg = self.cascade_config()
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
                    temperature=self.spec.temperature,
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
            recoveries=recoveries,
            fault_report=fault_report,
            trajectory_path=cfg.trajectory,
            trajectory_frames=trajectory_frames,
        )
