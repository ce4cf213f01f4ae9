"""Serial AKMC tests: BKL mechanics, conservation, clustering physics."""

import numpy as np
import pytest

from repro.kmc.akmc import ParallelAKMC, SerialAKMC, place_random_vacancies
from repro.kmc.events import VACANCY


class TestPlacement:
    def test_places_exact_count(self, kmc_model8):
        occ = place_random_vacancies(kmc_model8, 12, np.random.default_rng(0))
        assert int(np.sum(occ == VACANCY)) == 12

    def test_count_validation(self, kmc_model8):
        with pytest.raises(ValueError):
            place_random_vacancies(
                kmc_model8, kmc_model8.nrows + 1, np.random.default_rng(0)
            )

    def test_reproducible(self, kmc_model8):
        a = place_random_vacancies(kmc_model8, 9, np.random.default_rng(5))
        b = place_random_vacancies(kmc_model8, 9, np.random.default_rng(5))
        assert np.array_equal(a, b)


class TestBKL:
    @pytest.fixture()
    def engine(self, lattice8, potential, rate_params, kmc_initial_occ):
        return SerialAKMC(
            lattice8, potential, rate_params, kmc_initial_occ, seed=11
        )

    def test_step_advances_time_positively(self, engine):
        dt = engine.step()
        assert dt is not None and dt > 0
        assert engine.time == dt
        assert engine.events == 1

    def test_step_moves_exactly_one_vacancy(self, engine):
        before = set(engine.vacancy_rows.tolist())
        engine.step()
        after = set(engine.vacancy_rows.tolist())
        assert len(before - after) == 1
        assert len(after - before) == 1

    def test_hop_is_first_shell(self, engine):
        before = set(engine.vacancy_rows.tolist())
        engine.step()
        after = set(engine.vacancy_rows.tolist())
        (old,) = before - after
        (new,) = after - before
        assert new in engine.model.first_matrix[old]

    def test_vacancy_count_conserved_long_run(self, engine):
        n0 = len(engine.vacancy_rows)
        engine.run(max_events=300)
        assert len(engine.vacancy_rows) == n0

    def test_frozen_perfect_lattice(self, lattice8, potential, rate_params):
        engine = SerialAKMC(lattice8, potential, rate_params, seed=1)
        result = engine.run(max_events=10)
        assert result.events == 0

    def test_run_needs_a_bound(self, engine):
        with pytest.raises(ValueError, match="max_events"):
            engine.run()

    def test_t_threshold_stops_run(self, engine):
        result = engine.run(t_threshold=1.0, max_events=10**6)
        assert result.time >= 1.0
        assert result.events < 10**6

    def test_deterministic_under_seed(
        self, lattice8, potential, rate_params, kmc_initial_occ
    ):
        finals = []
        for _ in range(2):
            e = SerialAKMC(
                lattice8, potential, rate_params, kmc_initial_occ, seed=3
            )
            finals.append(e.run(max_events=50).occupancy)
        assert np.array_equal(finals[0], finals[1])

    def test_occupancy_length_validated(self, lattice8, potential, rate_params):
        with pytest.raises(ValueError, match="occupancy"):
            SerialAKMC(
                lattice8, potential, rate_params, np.ones(5, dtype=np.int8)
            )


class TestClusteringPhysics:
    def test_vacancies_aggregate_over_time(
        self, lattice8, potential, rate_params, kmc_model8
    ):
        from repro.core.clusters import clustering_report

        occ0 = place_random_vacancies(
            kmc_model8, 25, np.random.default_rng(42)
        )
        vac0 = kmc_model8.sites[np.flatnonzero(occ0 == VACANCY)]
        before = clustering_report(lattice8, vac0)
        engine = SerialAKMC(lattice8, potential, rate_params, occ0, seed=9)
        result = engine.run(max_events=2000)
        after = clustering_report(lattice8, result.vacancy_ranks)
        # The Figure 17 observable: aggregation.
        assert after.max_cluster > before.max_cluster
        assert after.mean_nn_distance < before.mean_nn_distance
        assert after.n_clusters < before.n_clusters


class TestOccupancyBoundary:
    """Site codes are validated where occupancy enters an engine."""

    @pytest.fixture
    def system(self, lattice8, potential, rate_params):
        """(lattice, potential, params, a code the model rejects,
        the codes it accepts)."""
        return lattice8, potential, rate_params, 2, (0, 1)

    @staticmethod
    def _poisoned(lattice, code, site=77):
        occ = np.ones(lattice.nsites, dtype=np.int8)
        occ[5] = VACANCY
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

    def test_all_unknown_matrix_is_not_a_frozen_lattice(self, lattice8, potential):
        """An all-``2`` matrix was once reported as a frozen lattice
        (``step()`` -> ``None``)."""
        occ = np.full(lattice8.nsites, 2, dtype=np.int8)
        with pytest.raises(ValueError, match="code 2 at site rank 0"):
            SerialAKMC(lattice8, potential, occupancy=occ)
