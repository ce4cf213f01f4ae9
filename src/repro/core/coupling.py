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
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro import observe as obs
from repro.core.clusters import ClusteringReport, clustering_report
from repro.core.timescale import kmc_real_time
from repro.io.checkpoint import load_kmc_checkpoint, save_checkpoint
from repro.io.store import TrajectoryReader, finalize_store, seed_store
from repro.kmc.akmc import ParallelAKMC, SerialAKMC
from repro.kmc.events import ATOM, VACANCY, RateParameters
from repro.lattice.bcc import BCCLattice
from repro.md.cascade import CascadeResult, cascade_stage, run_cascade
from repro.potential.eam import EAMPotential
from repro.potential.fe import make_fe_potential
from repro.runtime.faults import FaultInjector, InjectedFault
from repro.service.spec import ScenarioSpec


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
        disk as the run progresses.  Recovery only appends to it: the
        resumed attempt's writer skips every frame the store already
        holds, so a recovered store equals a fault-free one byte for
        byte.
    checkpoint_dir:
        Where the post-cascade MD checkpoint and the KMC checkpoint
        live.  A KMC checkpoint left there by an earlier run is removed
        when the KMC stage starts.  ``None`` keeps the KMC checkpoint
        (when ``spec.checkpoint_every`` asks for one) in a temporary
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

    @contextmanager
    def _kmc_checkpoint_slot(self):
        """The KMC checkpoint path of this stage, empty on entry:
        ``None`` without ``spec.checkpoint_every``, else a file in
        ``checkpoint_dir`` or in a temporary directory that does not
        outlive the stage (run artifacts never land in the working tree
        by default)."""
        if self.spec.checkpoint_every is None:
            yield None
        elif self.config.checkpoint_dir is not None:
            path = self._checkpoint_dir() / "kmc_checkpoint.npz"
            # Only this run's own checkpoints may be resumed.
            path.unlink(missing_ok=True)
            yield path
        else:
            with tempfile.TemporaryDirectory(prefix="repro-checkpoint-") as tmp:
                yield Path(tmp) / "kmc_checkpoint.npz"

    def _run_kmc_attempt(self, occupancy, injector, resume, ckpt_path):
        """One KMC attempt: fresh engine, optional resume point."""
        spec = self.spec
        params = RateParameters(temperature=spec.temperature)
        traj = self.config.trajectory
        outputs = dict(
            checkpoint_every=spec.checkpoint_every, checkpoint_path=ckpt_path,
            trajectory=traj,
            trajectory_every=spec.trajectory_every if traj is not None else None,
        )
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
            return engine.run(max_events=spec.kmc_max_events, **outputs)
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
            occ0, max_cycles=spec.kmc_max_cycles, resume=resume, **outputs
        )

    def _run_kmc_supervised(self, occupancy: np.ndarray):
        """Stage 4: KMC attempts until one completes.

        Only a planned crash (:class:`~repro.runtime.faults.InjectedFault`)
        starts another attempt, from the last checkpoint this stage wrote
        or, when none landed yet, from the start.  Each crash clause of
        ``spec.faults`` fires once, ever, so the recoveries equal the
        crash clauses that fired.  Every other failure — a watchdog or
        world timeout, a store or checkpoint error, an organic rank
        failure — surfaces from the attempt it struck: an attempt is a
        pure function of (spec, checkpoint), so a retry would fail the
        same way.  The recovered result is bit-identical to a fault-free
        run: the parallel event streams are pure functions of (seed,
        rank, cycle, sector), the serial checkpoint carries the exact RNG
        state, and the resumed writer skips every frame the trajectory
        store already holds (:mod:`repro.io.store`).

        Returns ``(result, recoveries, fault_report)``.
        """
        faults = self.spec.faults
        injector = FaultInjector(faults) if faults is not None else None
        with self._kmc_checkpoint_slot() as ckpt_path:
            recoveries = 0
            resume = None
            while True:
                try:
                    result = self._run_kmc_attempt(
                        occupancy, injector, resume, ckpt_path
                    )
                    report = injector.snapshot() if injector is not None else None
                    return result, recoveries, report
                except InjectedFault:
                    recoveries += 1
                    obs.add("runtime.recoveries")
                with obs.phase("coupling.recover"):
                    if ckpt_path is not None and ckpt_path.exists():
                        resume = load_kmc_checkpoint(ckpt_path)
                    else:
                        resume = None
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
                engine, cascade_cfg = cascade_stage(
                    self.spec, self.lattice, self.potential
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
            self._notify("map_damage")
            with obs.phase("coupled.map_damage"):
                occ0 = self.occupancy_from_cascade(cascade)
                vac_md = np.flatnonzero(occ0 == VACANCY)
            if cfg.trajectory is not None:
                # Open the store fresh and seed it with the post-MD
                # damage state at clock 0 — the "before" frame of the
                # paper's Figure 17.  The KMC stage then appends to it
                # incrementally (rank 0 via the gather path when
                # parallel); a recovered attempt only appends to it.
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
