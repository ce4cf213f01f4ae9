"""Physics-validation tests: diffusion, defect energetics, recombination."""

import numpy as np
import pytest

from repro.analysis.diffusion import (
    arrhenius_fit,
    theoretical_single_hop_msd,
    track_single_vacancy,
)
from repro.analysis.energies import (
    cluster_binding_per_vacancy,
    configuration_energy,
    divacancy_binding_energy,
    vacancy_formation_energy,
)
from repro.core.coupling import recombine_frenkel_pairs
from repro.kmc.events import KMCModel, RateParameters
from repro.lattice.bcc import BCCLattice


@pytest.fixture(scope="module")
def model6(potential):
    return KMCModel(BCCLattice(6, 6, 6), potential, RateParameters())


class TestDefectEnergies:
    def test_vacancy_formation_positive(self, model6):
        e_f = vacancy_formation_energy(model6)
        assert e_f > 0.5  # removing an atom always costs bond energy

    def test_formation_energy_site_independent(self, model6):
        assert vacancy_formation_energy(model6, 0) == pytest.approx(
            vacancy_formation_energy(model6, 99), rel=1e-9
        )

    def test_divacancy_bound_at_first_shell(self, model6, rate_params):
        # Clustering requires binding >> kT (0.052 eV at 600 K).
        e_b = divacancy_binding_energy(model6, shell=1)
        assert e_b > 2 * rate_params.kt

    def test_second_shell_also_bound(self, model6):
        assert divacancy_binding_energy(model6, shell=2) > 0

    def test_invalid_shell_rejected(self, model6):
        with pytest.raises(ValueError, match="shell"):
            divacancy_binding_energy(model6, shell=3)

    def test_cluster_binding_grows_with_size(self, model6):
        # Per-vacancy binding of a compact tri-vacancy exceeds the pair's
        # half-binding (more shared broken bonds).
        lat = model6.lattice
        a = 0
        b = int(lat.first_shell_ranks(a)[0])
        c = int(lat.first_shell_ranks(a)[1])
        pair = cluster_binding_per_vacancy(model6, np.array([a, b]))
        tri = cluster_binding_per_vacancy(model6, np.array([a, b, c]))
        assert tri > pair > 0

    def test_configuration_energy_extensive(self, model6):
        occ = model6.perfect_occupancy()
        e = configuration_energy(model6, occ)
        assert e == pytest.approx(
            model6.nrows * float(model6.site_energy(0, occ)[0]), rel=1e-9
        )


class TestDiffusion:
    @pytest.fixture(scope="class")
    def tracer_600(self, potential):
        return track_single_vacancy(
            BCCLattice(6, 6, 6), potential, 600.0, nhops=150, seed=4
        )

    def test_tracer_executes_hops(self, tracer_600):
        assert tracer_600.hops == 150
        assert tracer_600.time > 0

    def test_msd_positive_and_plausible(self, tracer_600):
        lat = BCCLattice(6, 6, 6)
        per_hop = theoretical_single_hop_msd(lat)
        # A 150-hop random walk: MSD ~ 150 * per-hop (within wide
        # stochastic bounds).
        assert 0 < tracer_600.msd < 6 * 150 * per_hop

    def test_diffusion_faster_when_hotter(self, potential):
        lat = BCCLattice(6, 6, 6)
        cold = track_single_vacancy(lat, potential, 500.0, nhops=80, seed=1)
        hot = track_single_vacancy(lat, potential, 900.0, nhops=80, seed=1)
        assert hot.diffusion_coefficient > cold.diffusion_coefficient

    def test_arrhenius_activation_energy_near_barrier(self, potential):
        # The fitted activation energy must sit near the e_m0 = 0.65 eV
        # reference barrier (EAM corrections shift it slightly).
        lat = BCCLattice(6, 6, 6)
        results = [
            track_single_vacancy(lat, potential, t, nhops=60, seed=2)
            for t in (500.0, 700.0, 900.0)
        ]
        _d0, e_a = arrhenius_fit(results)
        assert 0.4 < e_a < 0.9

    def test_arrhenius_needs_two_points(self, potential):
        lat = BCCLattice(6, 6, 6)
        r = track_single_vacancy(lat, potential, 600.0, nhops=10, seed=0)
        with pytest.raises(ValueError):
            arrhenius_fit([r])


class TestRecombination:
    def test_close_pair_annihilates(self):
        lat = BCCLattice(6, 6, 6)
        vac = np.array([0])
        interstitial = lat.position_of(0) + np.array([1.0, 0, 0])
        surviving = recombine_frenkel_pairs(lat, vac, interstitial, radius=3.0)
        assert len(surviving) == 0

    def test_distant_pair_survives(self):
        lat = BCCLattice(6, 6, 6)
        vac = np.array([0])
        far = lat.position_of(int(lat.rank_of(0, 3, 3, 3)))
        surviving = recombine_frenkel_pairs(lat, vac, far, radius=3.0)
        assert surviving.tolist() == [0]

    def test_each_interstitial_captures_at_most_one(self):
        lat = BCCLattice(6, 6, 6)
        a, b = 0, int(lat.first_shell_ranks(0)[0])
        vac = np.array([a, b])
        interstitial = lat.position_of(a) + np.array([0.5, 0, 0])
        surviving = recombine_frenkel_pairs(lat, vac, interstitial, radius=5.0)
        assert len(surviving) == 1

    def test_periodic_distance_used(self):
        lat = BCCLattice(6, 6, 6)
        vac = np.array([0])  # at the origin corner
        # An interstitial just across the periodic boundary.
        x = lat.lengths - 0.5
        surviving = recombine_frenkel_pairs(lat, vac, x, radius=2.0)
        assert len(surviving) == 0

    def test_radius_validation(self):
        lat = BCCLattice(6, 6, 6)
        with pytest.raises(ValueError):
            recombine_frenkel_pairs(lat, np.array([0]), np.zeros(3), radius=0)

    def test_coupled_pipeline_with_recombination(self, potential):
        from repro.core.coupling import CoupledSimulation
        from repro.service.spec import ScenarioSpec

        spec = dict(cells=6, kmc_max_events=10, table_points=1000, seed=7)
        base = CoupledSimulation(ScenarioSpec(**spec).to_coupled_config())
        res_base = base.run()
        recomb = CoupledSimulation(
            ScenarioSpec(**spec, recombination_radius=4.0).to_coupled_config()
        )
        res_recomb = recomb.run()
        assert len(res_recomb.vacancies_after_md) <= len(
            res_base.vacancies_after_md
        )
