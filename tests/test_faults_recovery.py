"""Checkpoint/restore/resume and the coupled recovery supervisor.

The recovery contract: a run interrupted by a fault and resumed from the
last good checkpoint must finish in a final state **bit-identical** to a
run that was never interrupted.  The serial engine is checked here (exact
RNG state in the checkpoint); the parallel engine's resume and the
supervisor's parallel crash recovery are the conformance matrix's resume
and faults axes (``tests/test_runtime_conformance.py``).  What stays here
is how the supervisor behaves: it recovers exactly the planned crashes,
replays from scratch when no checkpoint landed yet, never resumes another
run's checkpoint, and removes its temporary checkpoints.
"""

import functools

import numpy as np
import pytest

from repro.core.coupling import CoupledSimulation
from repro.io.store import StoreError
from repro.kmc.akmc import ParallelAKMC, SerialAKMC
from repro.lattice.bcc import BCCLattice
from repro.runtime.transport import WatchdogTimeout
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
        ckpt = tmp_path / "serial.npz"
        interrupted.run(max_events=60, checkpoint_every=60, checkpoint_path=ckpt)

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
    def fault_free_runs(self):
        @functools.cache
        def run(backend, workers):
            config = _coupled_config(backend=backend, workers=workers)
            return CoupledSimulation(config).run()

        return run

    @pytest.fixture()
    def fault_free(self, fault_free_runs, world_backend):
        return fault_free_runs(**world_backend)

    def test_crash_before_first_checkpoint_replays_from_scratch(
        self, fault_free, tmp_path, world_backend
    ):
        result = CoupledSimulation(
            _coupled_config(
                faults="crash:rank=0,cycle=1",
                checkpoint_every=50,  # never reached before the crash
                checkpoint_dir=str(tmp_path),
                **world_backend,
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

    def test_each_planned_crash_is_recovered_once(self, tmp_path, world_backend):
        # Four crash clauses, four recoveries: no budget caps the loop,
        # and each clause fires once, ever.
        cfg = dict(kmc_max_cycles=20, **world_backend)
        fault_free = CoupledSimulation(_coupled_config(**cfg)).run()
        result = CoupledSimulation(
            _coupled_config(
                faults="crash:rank=0,cycle=3; crash:rank=1,cycle=7; "
                "crash:rank=0,cycle=11; crash:rank=1,cycle=15",
                checkpoint_every=2,
                checkpoint_dir=str(tmp_path),
                **cfg,
            )
        ).run()
        assert result.recoveries == 4
        assert result.fault_report["crashes"] == 4
        np.testing.assert_array_equal(
            result.vacancies_after_kmc, fault_free.vacancies_after_kmc
        )
        assert result.kmc_events == fault_free.kmc_events
        assert result.kmc_time == fault_free.kmc_time

    def test_stale_checkpoint_in_a_reused_dir_is_not_resumed(
        self, tmp_path, world_backend
    ):
        # Seed 3 leaves its KMC checkpoint in the directory; seed 4
        # crashes before its own first checkpoint, so it must replay
        # from the start rather than resume seed 3's state.
        cfg = dict(kmc_max_cycles=50, checkpoint_every=20, **world_backend)
        CoupledSimulation(
            _coupled_config(checkpoint_dir=str(tmp_path), **cfg)
        ).run()
        assert (tmp_path / "kmc_checkpoint.npz").exists()
        fresh = CoupledSimulation(_coupled_config(seed=4, **cfg)).run()
        reused = CoupledSimulation(
            _coupled_config(
                seed=4,
                faults="crash:rank=1,cycle=10",
                checkpoint_dir=str(tmp_path),
                **cfg,
            )
        ).run()
        assert reused.recoveries == 1
        assert len(reused.vacancies_after_kmc) == len(
            reused.vacancies_after_md
        )
        np.testing.assert_array_equal(
            reused.vacancies_after_kmc, fresh.vacancies_after_kmc
        )
        assert reused.kmc_events == fresh.kmc_events
        assert reused.kmc_time == fresh.kmc_time

    @pytest.mark.parametrize(
        "error",
        [WatchdogTimeout, TimeoutError, RuntimeError, StoreError, ValueError],
    )
    def test_infeasible_decomposition_is_not_recovered(
        self, error, potential, tmp_path, monkeypatch, forbid_world
    ):
        # A configuration error, not a fault: 5 cells cannot be sectored
        # over 8 ranks.  It fails at the spec, before any World exists.
        from repro.runtime import simmpi

        forbid_world(simmpi)
        with pytest.raises(ValueError, match=r"4x4x4.*8 ranks.*sectors"):
            ParallelAKMC(BCCLattice(4, 4, 4), potential, nranks=8)
        with pytest.raises(SpecError, match=r"cells=5.*kmc_nranks=8"):
            _coupled_config(cells=5, kmc_nranks=8)
        # Only a planned crash starts another attempt: any other failure
        # out of an attempt would recur, so it surfaces from the first.
        sim = CoupledSimulation(
            _coupled_config(
                faults="crash:rank=1,cycle=2",
                checkpoint_every=2,
                checkpoint_dir=str(tmp_path),
            ),
            potential=potential,
        )
        attempts = []

        def bad_attempt(*args):
            attempts.append(args)
            raise error("attempt failed")

        monkeypatch.setattr(sim, "_run_kmc_attempt", bad_attempt)
        occ = np.ones(sim.lattice.nsites, dtype=np.int8)
        occ[3] = 0
        with pytest.raises(error, match="attempt failed"):
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
