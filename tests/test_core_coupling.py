"""Coupled MD-KMC pipeline integration tests."""

import dataclasses

import numpy as np
import pytest

from repro.core.coupling import CoupledConfig, CoupledSimulation
from repro.kmc.events import VACANCY
from repro.service.spec import ScenarioSpec, SpecError


def _config(**spec) -> CoupledConfig:
    return ScenarioSpec(**spec).to_coupled_config()


@pytest.fixture(scope="module")
def coupled_result():
    sim = CoupledSimulation(
        _config(cells=6, kmc_max_events=200, table_points=1000, seed=7)
    )
    return sim, sim.run()


class TestConfig:
    def test_too_small_box_rejected(self):
        with pytest.raises(SpecError, match="cells"):
            _config(cells=3)

    def test_bad_temperature_rejected(self):
        with pytest.raises(SpecError, match="temperature"):
            _config(temperature=-10.0)

    def test_config_is_a_spec_plus_run_local_knobs(self):
        names = [f.name for f in dataclasses.fields(CoupledConfig)]
        assert names == ["spec", "trajectory", "checkpoint_dir"]
        # One validator: run parameters are checked by ScenarioSpec only.
        assert "__post_init__" not in vars(CoupledConfig)
        assert CoupledConfig().spec == ScenarioSpec()

    @pytest.mark.parametrize("field,value", [
        ("temperature", float("nan")),
        ("table_points", 1),
        ("kmc_max_events", -5),
        ("kmc_nranks", 0),
        ("kmc_scheme", "bogus"),
        ("backend", "bogus"),
        ("watchdog", -1),
    ])
    def test_bad_run_parameter_fails_at_the_spec(self, field, value):
        # Each of these once slipped through the coupled run's own,
        # weaker validator.  Now the spec names the field, and with no
        # config there is no CoupledSimulation, potential or engine.
        with pytest.raises(SpecError, match=field):
            _config(**{field: value})


class TestPipeline:
    def test_md_stage_produces_damage(self, coupled_result):
        _sim, res = coupled_result
        assert len(res.vacancies_after_md) >= 1
        assert res.cascade.n_runaways >= 1

    def test_vacancy_count_conserved_by_kmc(self, coupled_result):
        _sim, res = coupled_result
        assert len(res.vacancies_after_kmc) == len(res.vacancies_after_md)

    def test_kmc_advanced_time(self, coupled_result):
        _sim, res = coupled_result
        assert res.kmc_time > 0
        assert res.kmc_events > 0

    def test_real_time_positive_and_huge(self, coupled_result):
        # ps of KMC time leverage into macroscopic real time through the
        # concentration ratio.
        _sim, res = coupled_result
        assert res.real_time_seconds > res.kmc_time * 1e-12

    def test_occupancy_mapping(self, coupled_result):
        sim, res = coupled_result
        occ = sim.occupancy_from_cascade(res.cascade)
        assert len(occ) == sim.lattice.nsites
        assert int(np.sum(occ == VACANCY)) == len(res.cascade.vacancy_rows)
        assert np.all(occ[res.cascade.vacancy_rows] == VACANCY)

    def test_reports_present(self, coupled_result):
        _sim, res = coupled_result
        assert res.report_after_md.n_vacancies == len(res.vacancies_after_md)
        assert res.report_after_kmc.n_vacancies == len(
            res.vacancies_after_kmc
        )

    def test_deterministic(self):
        cfg = _config(cells=6, kmc_max_events=50, table_points=1000, seed=13)
        a = CoupledSimulation(cfg).run()
        b = CoupledSimulation(cfg).run()
        assert np.array_equal(a.vacancies_after_kmc, b.vacancies_after_kmc)
        assert a.kmc_time == b.kmc_time


class TestParallelKMCStage:
    def test_parallel_kmc_path(self):
        sim = CoupledSimulation(
            _config(
                cells=8,
                kmc_nranks=8,
                kmc_scheme="ondemand",
                kmc_max_cycles=4,
                table_points=1000,
                seed=3,
            )
        )
        res = sim.run()
        assert res.comm_stats is not None
        assert len(res.vacancies_after_kmc) == len(res.vacancies_after_md)
