"""Checkpoint/restore/resume and the coupled recovery supervisor.

The recovery contract: a run interrupted by a fault and resumed from the
last good checkpoint must finish in a final state **bit-identical** to a
run that was never interrupted — serial (exact RNG state in the
checkpoint) and parallel under all three communication schemes (event
streams are pure functions of ``(seed, rank, cycle, sector)``).
"""

import numpy as np
import pytest

from repro.core import coupling
from repro.core.coupling import CoupledSimulation
from repro.kmc.akmc import ParallelAKMC, SerialAKMC
from repro.lattice.bcc import BCCLattice
from repro.service.spec import ScenarioSpec, SpecError

SCHEMES = ("traditional", "ondemand", "onesided")


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


class TestParallelResume:
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_resume_is_bit_exact_per_scheme(
        self,
        scheme,
        lattice8,
        potential,
        rate_params,
        kmc_initial_occ,
        tmp_path,
    ):
        def engine():
            return ParallelAKMC(
                lattice8,
                potential,
                rate_params,
                nranks=4,
                scheme=scheme,
                seed=5,
            )

        ref = engine().run(kmc_initial_occ, max_cycles=8)

        ckpt = tmp_path / f"parallel-{scheme}.npz"
        engine().run(
            kmc_initial_occ,
            max_cycles=5,
            checkpoint_every=5,
            checkpoint_path=ckpt,
        )
        from repro.io.checkpoint import load_kmc_checkpoint

        snap = load_kmc_checkpoint(ckpt)
        assert snap.cycle == 5
        result = engine().run(snap.occupancy, max_cycles=8, resume=snap)

        assert result.events == ref.events
        assert result.time == ref.time
        np.testing.assert_array_equal(result.occupancy, ref.occupancy)


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
    """The ISSUE acceptance: injected crash -> recovery -> bit-identical."""

    @pytest.fixture(scope="class")
    def fault_free(self):
        return CoupledSimulation(_coupled_config()).run()

    def test_parallel_crash_recovers_bit_identical(self, fault_free, tmp_path):
        result = CoupledSimulation(
            _coupled_config(
                faults="crash:rank=1,cycle=5",
                checkpoint_every=2,
                checkpoint_dir=str(tmp_path),
            )
        ).run()
        assert result.recoveries == 1
        assert result.fault_report["crashes"] == 1
        np.testing.assert_array_equal(
            result.vacancies_after_kmc, fault_free.vacancies_after_kmc
        )
        assert result.kmc_events == fault_free.kmc_events
        assert result.kmc_time == fault_free.kmc_time

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

    def test_messaging_faults_do_not_change_the_answer(self, fault_free):
        result = CoupledSimulation(
            _coupled_config(
                faults=(
                    "delay:rank=0,nth=3,seconds=0.01; "
                    "delay:rank=1,nth=2,seconds=0.01"
                )
            )
        ).run()
        assert result.recoveries == 0
        assert result.fault_report["injected"] == 2
        np.testing.assert_array_equal(
            result.vacancies_after_kmc, fault_free.vacancies_after_kmc
        )
