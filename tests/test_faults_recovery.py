"""Checkpoint/restore/resume and the coupled recovery supervisor.

The recovery contract: a run interrupted by a fault and resumed from the
last good checkpoint must finish in a final state **bit-identical** to a
run that was never interrupted.  The serial engine is checked here (exact
RNG state in the checkpoint); the parallel engine's resume and the
supervisor's parallel crash recovery are the conformance matrix's resume
and faults axes (``tests/test_runtime_conformance.py``).  What stays here
is how the supervisor behaves: its recovery budget, a replay from
scratch, and its temporary checkpoints.
"""

import numpy as np
import pytest

from repro.core import coupling
from repro.core.coupling import CoupledSimulation
from repro.kmc.akmc import ParallelAKMC, SerialAKMC
from repro.lattice.bcc import BCCLattice
from repro.service.spec import ScenarioSpec, SpecError


class TestSerialResume:
    def test_checkpoint_restore_resume_is_bit_exact(
        self, lattice8, potential, rate_params, kmc_initial_occ, tmp_path
    ):
        ref = SerialAKMC(
            lattice8, potential, rate_params, kmc_initial_occ, seed=9
        )
        ref_result = ref.run(max_events=120)

        interrupted = SerialAKMC(
            lattice8, potential, rate_params, kmc_initial_occ, seed=9
        )
        interrupted.run(max_events=60)
        ckpt = tmp_path / "serial.npz"
        interrupted.checkpoint(ckpt)

        resumed = SerialAKMC(
            lattice8, potential, rate_params, kmc_initial_occ, seed=9
        )
        resumed.restore(ckpt)
        result = resumed.run(max_events=120)

        assert result.events == ref_result.events
        assert result.time == ref_result.time  # exact float equality
        np.testing.assert_array_equal(result.occupancy, ref_result.occupancy)

    def test_periodic_checkpoints_do_not_perturb_the_run(
        self, lattice8, potential, rate_params, kmc_initial_occ, tmp_path
    ):
        plain = SerialAKMC(
            lattice8, potential, rate_params, kmc_initial_occ, seed=9
        ).run(max_events=80)
        ckpt = tmp_path / "periodic.npz"
        checkpointed = SerialAKMC(
            lattice8, potential, rate_params, kmc_initial_occ, seed=9
        ).run(max_events=80, checkpoint_every=20, checkpoint_path=ckpt)
        assert ckpt.exists()
        assert checkpointed.time == plain.time
        np.testing.assert_array_equal(
            checkpointed.occupancy, plain.occupancy
        )


def _coupled_config(trajectory=None, checkpoint_dir=None, **overrides):
    base = dict(
        cells=8,
        seed=3,
        md_steps=60,
        pka_energy=120.0,
        kmc_nranks=2,
        kmc_max_cycles=8,
        table_points=500,
    )
    return ScenarioSpec(**(base | overrides)).to_coupled_config(
        trajectory=trajectory, checkpoint_dir=checkpoint_dir
    )


class TestCoupledRecovery:
    """The recovery supervisor: what it retries, from where, and what it
    leaves behind."""

    @pytest.fixture(scope="class")
    def fault_free(self):
        return CoupledSimulation(_coupled_config()).run()

    def test_crash_before_first_checkpoint_replays_from_scratch(
        self, fault_free, tmp_path
    ):
        result = CoupledSimulation(
            _coupled_config(
                faults="crash:rank=0,cycle=1",
                checkpoint_every=50,  # never reached before the crash
                checkpoint_dir=str(tmp_path),
            )
        ).run()
        assert result.recoveries == 1
        np.testing.assert_array_equal(
            result.vacancies_after_kmc, fault_free.vacancies_after_kmc
        )

    def test_serial_crash_recovers_bit_identical(self, tmp_path):
        cfg = dict(kmc_nranks=None, kmc_max_events=120)
        fault_free = CoupledSimulation(_coupled_config(**cfg)).run()
        result = CoupledSimulation(
            _coupled_config(
                faults="crash:rank=0,event=60",
                checkpoint_every=20,
                checkpoint_dir=str(tmp_path),
                **cfg,
            )
        ).run()
        assert result.recoveries == 1
        np.testing.assert_array_equal(
            result.vacancies_after_kmc, fault_free.vacancies_after_kmc
        )
        assert result.kmc_time == fault_free.kmc_time

    def test_supervisor_gives_up_past_max_recoveries(
        self, tmp_path, monkeypatch
    ):
        # Two planned crashes but zero allowed recoveries: the first
        # fault must surface instead of looping.
        from repro.runtime.faults import InjectedFault

        monkeypatch.setattr(coupling, "MAX_RECOVERIES", 0)
        with pytest.raises(InjectedFault):
            CoupledSimulation(
                _coupled_config(
                    faults="crash:rank=1,cycle=2",
                    checkpoint_every=2,
                    checkpoint_dir=str(tmp_path),
                )
            ).run()

    def test_infeasible_decomposition_is_not_recovered(
        self, potential, tmp_path, monkeypatch, forbid_world
    ):
        # A configuration error, not a fault: 5 cells cannot be sectored
        # over 8 ranks.  It fails at the spec, before any World exists.
        from repro.runtime import simmpi

        forbid_world(simmpi)
        with pytest.raises(ValueError, match=r"4x4x4.*8 ranks.*sectors"):
            ParallelAKMC(BCCLattice(4, 4, 4), potential, nranks=8)
        with pytest.raises(SpecError, match=r"cells=5.*kmc_nranks=8"):
            _coupled_config(cells=5, kmc_nranks=8)
        # And a ValueError out of an attempt is never "recovered" by the
        # supervisor's retry loop.
        sim = CoupledSimulation(
            _coupled_config(
                checkpoint_every=2, checkpoint_dir=str(tmp_path)
            ),
            potential=potential,
        )
        attempts = []

        def bad_attempt(*args):
            attempts.append(args)
            raise ValueError("bad configuration")

        monkeypatch.setattr(sim, "_run_kmc_attempt", bad_attempt)
        occ = np.ones(sim.lattice.nsites, dtype=np.int8)
        occ[3] = 0
        with pytest.raises(ValueError, match="bad configuration"):
            sim._run_kmc_supervised(occ)
        assert len(attempts) == 1

    @pytest.mark.parametrize("kmc_nranks", [None, 2])
    def test_temporary_checkpoints_are_removed(
        self, kmc_nranks, tmp_path, monkeypatch
    ):
        # No checkpoint_dir: the crash recovers from checkpoints in a
        # temporary directory that is gone once the KMC stage ends.
        import tempfile

        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        fault = "event=30" if kmc_nranks is None else "cycle=3"
        result = CoupledSimulation(
            _coupled_config(
                kmc_nranks=kmc_nranks,
                kmc_max_events=60,
                faults=f"crash:rank=0,{fault}",
                checkpoint_every=2,
            )
        ).run()
        assert result.recoveries == 1
        assert not list(tmp_path.glob("repro-checkpoint-*"))

    def test_md_checkpoint_written_when_dir_given(self, tmp_path):
        CoupledSimulation(
            _coupled_config(checkpoint_dir=str(tmp_path), checkpoint_every=4)
        ).run()
        assert (tmp_path / "md_cascade.npz").exists()
        assert (tmp_path / "kmc_checkpoint.npz").exists()
