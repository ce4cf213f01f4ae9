"""Checkpoint/restart: surviving an interruption of a long run.

The paper's production run takes 8.6 hours on 6.24 million cores; no such
run survives without checkpointing.  This example interrupts an MD
cascade halfway, restores it into a fresh engine, and verifies the
resumed trajectory is bit-identical to an uninterrupted one.  It also
streams the KMC stage into a chunked trajectory store.

    python examples/checkpoint_restart.py [workdir]

Without an explicit workdir the artifacts go to a fresh directory under
the system temp dir — never into the working tree.
"""

import sys
import tempfile
from pathlib import Path

import numpy as np

from repro.io.checkpoint import load_checkpoint, save_checkpoint
from repro.io.store import TrajectoryReader, finalize_store
from repro.io.xyz import write_vacancy_xyz
from repro.kmc.akmc import SerialAKMC
from repro.kmc.events import ATOM, VACANCY, RateParameters
from repro.lattice.bcc import BCCLattice
from repro.md.cascade import CascadeConfig, insert_pka
from repro.md.engine import MDConfig, MDEngine
from repro.potential.fe import make_fe_potential


def main(workdir: Path) -> None:
    workdir.mkdir(parents=True, exist_ok=True)
    potential = make_fe_potential(n=2000)

    # --- reference: an uninterrupted 80-step cascade -------------------
    reference = MDEngine(
        BCCLattice(6, 6, 6), potential, MDConfig(temperature=300.0, seed=3)
    )
    reference.initialize()
    insert_pka(reference.state, CascadeConfig(pka_energy=120.0), reference.lattice)
    reference.run(nsteps=80, displacement_threshold=1.2)

    # --- interrupted: 40 steps, checkpoint, restore, 40 more -----------
    first_half = MDEngine(
        BCCLattice(6, 6, 6), potential, MDConfig(temperature=300.0, seed=3)
    )
    first_half.initialize()
    insert_pka(
        first_half.state, CascadeConfig(pka_energy=120.0), first_half.lattice
    )
    first_half.run(nsteps=40, displacement_threshold=1.2)
    ckpt = workdir / "cascade.npz"
    save_checkpoint(ckpt, first_half)
    print(f"checkpoint written after step 40: {ckpt} "
          f"({ckpt.stat().st_size} bytes)")

    resumed = MDEngine(
        BCCLattice(6, 6, 6), potential, MDConfig(temperature=300.0, seed=3)
    )
    load_checkpoint(ckpt, resumed)
    resumed.run(nsteps=40, displacement_threshold=1.2)

    drift = float(np.abs(resumed.state.x - reference.state.x).max())
    print(f"resumed vs uninterrupted max position difference: {drift:.2e} A")
    assert drift < 1e-12, "restart must reproduce the trajectory exactly"

    # --- KMC stage with trajectory recording ---------------------------
    occ = np.full(reference.lattice.nsites, ATOM, dtype=np.int8)
    occ[reference.state.vacancy_rows()] = VACANCY
    engine = SerialAKMC(
        reference.lattice, potential, RateParameters(), occ, seed=3
    )
    traj_path = workdir / "kmc_trajectory"
    engine.run(max_events=200, trajectory=traj_path, trajectory_every=50)
    finalize_store(traj_path)
    reloaded = TrajectoryReader(traj_path)
    write_vacancy_xyz(
        workdir / "final_vacancies.xyz",
        reloaded.lattice,
        reloaded.vacancy_ranks(-1),
    )
    print(
        f"recorded {len(reloaded)} KMC frames to {traj_path} "
        f"(t = {reloaded.time_of(0):.3g} .. {reloaded.time_of(-1):.3g} ps); "
        f"final vacancy cloud exported as XYZ"
    )


if __name__ == "__main__":
    main(
        Path(sys.argv[1])
        if len(sys.argv) > 1
        else Path(tempfile.mkdtemp(prefix="repro-checkpoint-restart-"))
    )
