"""Alloy (Fe-Cu) AKMC tests: energetics, events, Cu precipitation, and
what an alloy run inherits from the species-blind engines."""

import hashlib

import numpy as np
import pytest

from repro.core.clusters import clustering_report
from repro.io.store import TrajectoryReader
from repro.kmc.akmc import ParallelAKMC, SerialAKMC
from repro.kmc.alloy import (
    S_CU,
    S_FE,
    S_VACANCY,
    AlloyKMCModel,
    AlloyRateParameters,
)
from repro.kmc.events import KMCModel
from repro.lattice.bcc import BCCLattice
from repro.potential.alloy import make_fe_cu_alloy


@pytest.fixture(scope="module")
def alloy_tables():
    return make_fe_cu_alloy(n=500)


@pytest.fixture(scope="module")
def alloy_model(alloy_tables):
    return AlloyKMCModel(BCCLattice(8, 8, 8), alloy_tables, AlloyRateParameters())


def _serial(alloy_model, occ, seed, **kwargs):
    return SerialAKMC(
        alloy_model.lattice, alloy_model.alloy, alloy_model.params, occ,
        seed=seed, **kwargs,
    )


class TestParameters:
    def test_cu_barrier_below_fe(self):
        p = AlloyRateParameters()
        assert p.e_m0(S_CU) < p.e_m0(S_FE)

    def test_vacancy_has_no_barrier(self):
        with pytest.raises(ValueError):
            AlloyRateParameters().e_m0(S_VACANCY)

    def test_validation(self):
        with pytest.raises(ValueError):
            AlloyRateParameters(nu=0.0)


class TestEnergetics:
    def test_pure_fe_matches_species_uniformity(self, alloy_model):
        occ = np.full(alloy_model.nrows, S_FE, dtype=np.int8)
        e0 = alloy_model.site_energy(0, occ)
        e1 = alloy_model.site_energy(100, occ)
        assert e0 == pytest.approx(e1)

    def test_cu_site_differs_from_fe(self, alloy_model):
        occ = np.full(alloy_model.nrows, S_FE, dtype=np.int8)
        e_fe = alloy_model.site_energy(100, occ)
        occ[100] = S_CU
        e_cu = alloy_model.site_energy(100, occ)
        assert e_cu != pytest.approx(e_fe)

    def test_vacancy_site_energy_rejected(self, alloy_model):
        occ = np.full(alloy_model.nrows, S_FE, dtype=np.int8)
        occ[4] = S_VACANCY
        with pytest.raises(ValueError, match="vacancy"):
            alloy_model.site_energy(4, occ)

    def test_cu_cu_binding_positive(self, alloy_model):
        # The demixing thermodynamics that drive precipitation.
        lat = alloy_model.lattice
        base = np.full(alloy_model.nrows, S_FE, dtype=np.int8)
        adjacent = base.copy()
        adjacent[100] = S_CU
        adjacent[int(alloy_model.first_matrix[100][0])] = S_CU
        apart = base.copy()
        apart[100] = S_CU
        apart[int(lat.rank_of(0, 4, 4, 4))] = S_CU
        binding = alloy_model.configuration_energy(
            apart
        ) - alloy_model.configuration_energy(adjacent)
        assert binding > 0.05  # well above kT = 0.052 eV at 600 K

    def test_random_solution_counts(self, alloy_model):
        occ = alloy_model.random_solution(30, 3, np.random.default_rng(0))
        assert int(np.sum(occ == S_CU)) == 30
        assert int(np.sum(occ == S_VACANCY)) == 3
        assert int(np.sum(occ == S_FE)) == alloy_model.nrows - 33

    def test_random_solution_validation(self, alloy_model):
        with pytest.raises(ValueError):
            alloy_model.random_solution(
                alloy_model.nrows, 1, np.random.default_rng(0)
            )


class TestEvents:
    def test_vacancy_in_pure_fe_has_8_events(self, alloy_model):
        occ = np.full(alloy_model.nrows, S_FE, dtype=np.int8)
        occ[100] = S_VACANCY
        targets, rates = alloy_model.vacancy_events(100, occ)
        assert len(targets) == 8
        assert np.all(rates > 0)

    def test_cu_hop_faster_than_fe_hop(self, alloy_model):
        # The lower Cu barrier makes the vacancy a Cu transporter.
        occ = np.full(alloy_model.nrows, S_FE, dtype=np.int8)
        occ[100] = S_VACANCY
        cu_site = int(alloy_model.first_matrix[100][0])
        occ[cu_site] = S_CU
        targets, rates = alloy_model.vacancy_events(100, occ)
        cu_rate = float(rates[targets == cu_site][0])
        fe_rates = rates[targets != cu_site]
        assert cu_rate > np.max(fe_rates)

    def test_swap_moves_species(self, alloy_model):
        occ = np.full(alloy_model.nrows, S_FE, dtype=np.int8)
        occ[100] = S_VACANCY
        t = int(alloy_model.first_matrix[100][0])
        occ[t] = S_CU
        alloy_model.execute_swap(occ, 100, t)
        assert occ[100] == S_CU
        assert occ[t] == S_VACANCY

    def test_invalid_swap_rejected(self, alloy_model):
        occ = np.full(alloy_model.nrows, S_FE, dtype=np.int8)
        with pytest.raises(ValueError, match="invalid swap"):
            alloy_model.execute_swap(occ, 0, 1)

    def test_requires_vacancy(self, alloy_model):
        occ = np.full(alloy_model.nrows, S_FE, dtype=np.int8)
        with pytest.raises(ValueError, match="vacancy"):
            alloy_model.vacancy_events(5, occ)


class TestPrecipitation:
    @pytest.fixture(scope="class")
    def evolution(self, alloy_model):
        occ0 = alloy_model.random_solution(30, 3, np.random.default_rng(7))
        result = _serial(alloy_model, occ0, seed=11).run(max_events=1500)
        return occ0, result

    def test_species_conserved(self, alloy_model, evolution):
        occ0, result = evolution
        for code in (S_VACANCY, S_FE, S_CU):
            assert int(np.sum(result.occupancy == code)) == int(
                np.sum(occ0 == code)
            )

    def test_time_advances(self, evolution):
        _occ0, result = evolution
        assert result.time > 0
        assert result.events == 1500

    def test_cu_clusters_grow(self, alloy_model, evolution):
        occ0, result = evolution
        lat = alloy_model.lattice
        before = clustering_report(
            lat, alloy_model.sites[np.flatnonzero(occ0 == S_CU)]
        )
        after = clustering_report(lat, np.flatnonzero(result.occupancy == S_CU))
        # The early-precipitation signature: larger clusters, lower
        # dispersion than the random solution.
        assert after.max_cluster > before.max_cluster
        assert after.mean_nn_distance < before.mean_nn_distance

    def test_deterministic(self, alloy_model):
        occ0 = alloy_model.random_solution(10, 2, np.random.default_rng(3))
        a = _serial(alloy_model, occ0, seed=5).run(max_events=50)
        b = _serial(alloy_model, occ0, seed=5).run(max_events=50)
        assert np.array_equal(a.occupancy, b.occupancy)

    #: Final state of the deleted ``AlloySerialAKMC`` (flat rebuild with
    #: a rate cache) after 300 events from ``random_solution(30, 3,
    #: default_rng(7))`` on the 8^3 lattice at ``table_points=500``,
    #: computed at the commit before the engines were unified: seed ->
    #: (sha256(occupancy)[:16], clock in ps).
    PARENT_ALLOY_SERIAL = {
        5: ("6762e88e3e3167a7", 506329.19948733284),
        11: ("7768d35d014cca3f", 252415.6990068461),
        2018: ("332f75c4eaefddb8", 338443.64515922684),
    }

    @pytest.mark.parametrize("seed", sorted(PARENT_ALLOY_SERIAL))
    def test_unified_engine_reproduces_the_alloy_engine(self, alloy_model, seed):
        """Occupancy bit-for-bit; clock to the catalog-vs-flat contract
        (the two sum the same rates in different orders)."""
        occ0 = alloy_model.random_solution(30, 3, np.random.default_rng(7))
        result = _serial(alloy_model, occ0, seed=seed).run(max_events=300)
        digest, clock = self.PARENT_ALLOY_SERIAL[seed]
        assert hashlib.sha256(result.occupancy.tobytes()).hexdigest()[:16] == digest
        assert result.time == pytest.approx(clock, rel=1e-12)
        assert result.events == result.cycles == 300


class TestInherited:
    """Checkpoints, restore, the trajectory store and fault points come
    with the engine, not with the species."""

    @pytest.fixture(scope="class")
    def occ0(self, alloy_model):
        return alloy_model.random_solution(30, 3, np.random.default_rng(7))

    def test_checkpoint_restore_continue_is_bit_identical(
        self, alloy_model, occ0, tmp_path
    ):
        straight = _serial(alloy_model, occ0, seed=3).run(max_events=120)
        path = tmp_path / "alloy.npz"
        _serial(alloy_model, occ0, seed=3).run(
            max_events=70, checkpoint_every=35, checkpoint_path=path
        )
        resumed = _serial(alloy_model, occ0, seed=99)  # seed overwritten
        resumed.restore(path)
        assert resumed.events == 70
        result = resumed.run(max_events=120)
        assert np.array_equal(result.occupancy, straight.occupancy)
        assert result.time == straight.time
        assert result.events == straight.events == 120

    def test_trajectory_round_trips_species_codes(
        self, alloy_model, occ0, tmp_path
    ):
        engine = _serial(alloy_model, occ0, seed=3)
        states = []
        store = tmp_path / "alloy-store"
        for stop in (20, 40, 60):
            result = engine.run(
                max_events=stop, trajectory=store, trajectory_every=20
            )
            states.append((result.time, result.occupancy))
        reader = TrajectoryReader(store)
        assert len(reader) == 3
        for (t_ref, occ_ref), (t, frame) in zip(
            states, reader.iter_frames(), strict=True
        ):
            assert t == t_ref
            assert np.array_equal(frame, occ_ref)
        assert set(np.unique(reader.frame(-1))) == {S_VACANCY, S_FE, S_CU}

    def test_parallel_crash_recovers_to_fault_free_state(
        self, alloy_model, tmp_path
    ):
        """A ``crash:`` plan on an alloy ``ParallelAKMC`` aborts the world;
        a resume from the last checkpoint ends at the fault-free
        occupancy."""
        from repro.io.checkpoint import load_kmc_checkpoint
        from repro.runtime.faults import FaultPlan, InjectedFault

        occ0 = alloy_model.random_solution(30, 5, np.random.default_rng(7))

        def engine(faults=None):
            return ParallelAKMC(
                alloy_model.lattice, alloy_model.alloy, nranks=8, seed=5,
                faults=faults,
            )

        clean = engine().run(occ0, max_cycles=8)
        path = tmp_path / "alloy-par.npz"
        budget = dict(max_cycles=8, checkpoint_every=2, checkpoint_path=path)
        crashing = engine(FaultPlan.parse("crash:rank=3,cycle=5"))
        with pytest.raises(InjectedFault):
            crashing.run(occ0, **budget)
        ckpt = load_kmc_checkpoint(path)
        assert ckpt.cycle == 4
        result = engine().run(ckpt.occupancy, resume=ckpt, **budget)
        assert np.array_equal(result.occupancy, clean.occupancy)
        assert result.time == clean.time
        assert result.events == clean.events > 0


class TestOccupancyBoundary:
    """Site codes are validated against the model's species where
    occupancy enters an engine."""

    @pytest.fixture(params=["fe", "alloy"])
    def system(self, request, alloy_model, potential, rate_params):
        """(lattice, potential, params, a code the model rejects,
        the codes it accepts)."""
        if request.param == "fe":
            return alloy_model.lattice, potential, rate_params, S_CU, (0, 1)
        return (
            alloy_model.lattice, alloy_model.alloy, alloy_model.params,
            3, (0, 1, 2),
        )

    @staticmethod
    def _poisoned(lattice, code, site=77):
        occ = np.ones(lattice.nsites, dtype=np.int8)
        occ[5] = S_VACANCY
        occ[site:] = code  # first offender is `site`
        return occ

    def test_serial_constructor_rejects_unknown_code(self, system):
        lattice, pot, params, code, accepted = system
        with pytest.raises(ValueError) as exc_info:
            SerialAKMC(lattice, pot, params, self._poisoned(lattice, code))
        msg = str(exc_info.value)
        assert f"code {code} " in msg
        assert "site rank 77 " in msg
        assert str(accepted) in msg

    def test_serial_restore_rejects_unknown_code(self, system, tmp_path):
        from repro.io.checkpoint import save_kmc_checkpoint

        lattice, pot, params, code, _accepted = system
        path = tmp_path / "bad.npz"
        save_kmc_checkpoint(
            path, self._poisoned(lattice, code), time=1.0, cycle=1, events=1
        )
        engine = SerialAKMC(lattice, pot, params)
        with pytest.raises(ValueError, match=f"code {code} at site rank 77"):
            engine.restore(path)
        assert engine.events == 0  # untouched by the rejected restore

    def test_parallel_run_rejects_unknown_code_before_any_world(
        self, system, forbid_world
    ):
        from repro.runtime import simmpi

        forbid_world(simmpi)
        lattice, pot, params, code, _accepted = system
        engine = ParallelAKMC(lattice, pot, params, nranks=8)
        with pytest.raises(ValueError, match=f"code {code} at site rank 77"):
            engine.run(self._poisoned(lattice, code), max_cycles=1)

    def test_all_unknown_matrix_is_not_a_frozen_lattice(self, alloy_model, potential):
        """The parent reported an all-``2`` single-species matrix as a
        frozen lattice (``step()`` -> ``None``)."""
        occ = np.full(alloy_model.lattice.nsites, S_CU, dtype=np.int8)
        with pytest.raises(ValueError, match="code 2 at site rank 0"):
            SerialAKMC(alloy_model.lattice, potential, occupancy=occ)

    def test_model_classes_declare_their_species(self):
        assert KMCModel.species == (1,)
        assert AlloyKMCModel.species == (S_FE, S_CU)
