"""AKMC event/rate model tests (Equation 4)."""

import importlib.util
import inspect
import math

import numpy as np
import pytest

from repro.constants import KB_EV
from repro.kmc.akmc import ParallelAKMC
from repro.kmc.events import ATOM, VACANCY, KMCModel, RateParameters
from repro.lattice.bcc import BCCLattice
from repro.lattice.domain import DomainDecomposition
from tests import lattice_oracle
from tests.kmc_oracle import vacancy_events


class TestOneRateModel:
    def test_pure_iron_is_the_only_rate_model(self):
        """No alloy model, no base class, no rate-bound mode switch."""
        assert importlib.util.find_spec("repro.kmc.alloy") is None
        assert KMCModel.__mro__ == (KMCModel, object)
        assert "rate_bound" not in inspect.signature(ParallelAKMC).parameters


class TestRateParameters:
    def test_kt(self):
        p = RateParameters(temperature=600.0)
        assert p.kt == pytest.approx(KB_EV * 600.0)

    def test_reference_rate_arrhenius(self):
        p = RateParameters()
        assert p.reference_rate == pytest.approx(
            p.nu * math.exp(-p.e_m0 / p.kt)
        )

    @pytest.mark.parametrize(
        "kwargs",
        [{"nu": 0.0}, {"temperature": -1.0}, {"energy_cutoff": 0.0}],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            RateParameters(**kwargs)


class TestSiteEnergy:
    def test_perfect_lattice_energy_matches_cold_curve_shells(
        self, kmc_model8, potential
    ):
        occ = kmc_model8.perfect_occupancy()
        e = float(kmc_model8.site_energy(0, occ)[0])
        # Site energy over the 2.9 A shell: 8 first + 6 second neighbors.
        a = kmc_model8.lattice.a
        d = np.array([math.sqrt(3) / 2 * a] * 8 + [a] * 6)
        expected = 0.5 * float(np.sum(potential.phi(d))) + float(
            potential.embed(np.sum(potential.fdens(d)))
        )
        assert e == pytest.approx(expected, rel=1e-9)

    def test_uniform_across_sites(self, kmc_model8):
        occ = kmc_model8.perfect_occupancy()
        energies = kmc_model8.site_energy(np.arange(50), occ)
        assert np.allclose(energies, energies[0])

    def test_vacancy_neighbor_raises_energy(self, kmc_model8):
        occ = kmc_model8.perfect_occupancy()
        e0 = float(kmc_model8.site_energy(0, occ)[0])
        nbr = int(kmc_model8.first_matrix[0][0])
        occ[nbr] = VACANCY
        e1 = float(kmc_model8.site_energy(0, occ)[0])
        assert e1 > e0  # losing a bond costs energy


class TestVacancyEvents:
    def test_eight_events_for_isolated_vacancy(self, kmc_model8):
        # "there are eight possible events for a vacancy".
        occ = kmc_model8.perfect_occupancy()
        occ[100] = VACANCY
        targets, rates = vacancy_events(kmc_model8, 100, occ)
        assert len(targets) == 8
        assert np.all(rates > 0)

    def test_targets_are_first_shell(self, kmc_model8):
        occ = kmc_model8.perfect_occupancy()
        occ[100] = VACANCY
        targets, _rates = vacancy_events(kmc_model8, 100, occ)
        assert set(targets.tolist()) == set(
            kmc_model8.first_matrix[100].tolist()
        )

    def test_vacant_neighbor_not_a_target(self, kmc_model8):
        occ = kmc_model8.perfect_occupancy()
        occ[100] = VACANCY
        nbr = int(kmc_model8.first_matrix[100][0])
        occ[nbr] = VACANCY
        targets, _ = vacancy_events(kmc_model8, 100, occ)
        assert nbr not in targets
        assert len(targets) == 7

    def test_rates_bounded_by_floor_barrier(self, kmc_model8, rate_params):
        occ = kmc_model8.perfect_occupancy()
        occ[100] = VACANCY
        _t, rates = vacancy_events(kmc_model8, 100, occ)
        rate_max = rate_params.nu * math.exp(
            -rate_params.de_min / rate_params.kt
        )
        assert np.all(rates <= rate_max + 1e-15)

    def test_symmetric_rates_for_isolated_vacancy(self, kmc_model8):
        # All 8 hops of an isolated vacancy are equivalent by symmetry.
        occ = kmc_model8.perfect_occupancy()
        occ[100] = VACANCY
        _t, rates = vacancy_events(kmc_model8, 100, occ)
        assert np.allclose(rates, rates[0], rtol=1e-9)

    def test_hop_toward_companion_vacancy_favored(self, kmc_model8):
        # Binding: a hop that moves a vacancy adjacent to another vacancy
        # lowers the configuration energy, so its barrier is lower.
        occ = kmc_model8.perfect_occupancy()
        occ[100] = VACANCY
        # Put a second vacancy two first-shell hops away from 100.
        nbr = int(kmc_model8.first_matrix[100][0])
        second = int(kmc_model8.first_matrix[nbr][0])
        if second == 100:
            second = int(kmc_model8.first_matrix[nbr][1])
        occ[second] = VACANCY
        targets, rates = vacancy_events(kmc_model8, 100, occ)
        toward = rates[targets == nbr]
        away = rates[targets != nbr]
        assert toward[0] > np.mean(away)

    def test_requires_vacancy(self, kmc_model8):
        occ = kmc_model8.perfect_occupancy()
        with pytest.raises(ValueError, match="vacancy"):
            vacancy_events(kmc_model8, 5, occ)


class TestSwap:
    def test_swap_exchanges_occupancy(self, kmc_model8):
        occ = kmc_model8.perfect_occupancy()
        occ[100] = VACANCY
        t = int(kmc_model8.first_matrix[100][0])
        kmc_model8.execute_swap(occ, 100, t)
        assert occ[100] == ATOM
        assert occ[t] == VACANCY

    def test_swap_conserves_counts(self, kmc_model8):
        occ = kmc_model8.perfect_occupancy()
        occ[100] = VACANCY
        n_vac = int(np.sum(occ == VACANCY))
        kmc_model8.execute_swap(occ, 100, int(kmc_model8.first_matrix[100][0]))
        assert int(np.sum(occ == VACANCY)) == n_vac

    def test_invalid_swap_rejected(self, kmc_model8):
        occ = kmc_model8.perfect_occupancy()
        with pytest.raises(ValueError, match="invalid swap"):
            kmc_model8.execute_swap(occ, 0, 1)


class TestInfluence:
    def test_influence_includes_self_and_first_shell(self, kmc_model8):
        rows = kmc_model8.influence_rows([100])
        assert 100 in rows
        for nbr in kmc_model8.first_matrix[100]:
            assert nbr in rows

    def test_influence_radius_covers_rate_stencil(self, kmc_model8):
        # Changing occ outside the influence set of {v} must not change
        # v's rates.
        occ = kmc_model8.perfect_occupancy()
        occ[100] = VACANCY
        _t, rates_before = vacancy_events(kmc_model8, 100, occ)
        influence = set(kmc_model8.influence_rows([100]).tolist())
        outside = next(
            r for r in range(kmc_model8.nrows) if r not in influence
        )
        occ[outside] = VACANCY
        _t, rates_after = vacancy_events(kmc_model8, 100, occ)
        assert np.array_equal(rates_before, rates_after)


def _reference_tables(lattice, potential, params, sites):
    """Per-slot oracle: one spline evaluation per (site, slot).

    Neighbors come from the scalar ``rank_of``-based
    ``neighbor_ranks_within`` (in ``tests/lattice_oracle.py`` since the
    lattice's own went onto ``SiteSet``) and every rank is looked up in
    ``sites`` by binary search — no per-basis sharing and no
    whole-lattice shortcut.
    """
    offsets = lattice.offsets_within(params.energy_cutoff)
    n, m = len(sites), offsets.max_count

    def localize(ranks):
        local = np.clip(np.searchsorted(sites, ranks), 0, n - 1)
        found = sites[local] == ranks
        local[~found] = 0
        return local, found

    e_global = np.zeros((n, m), dtype=np.int64)
    dist = np.zeros((n, m))
    for row, site in enumerate(sites):
        nbrs = lattice_oracle.neighbor_ranks_within(
            lattice, int(site), params.energy_cutoff
        )
        e_global[row, : len(nbrs)] = nbrs
        d = offsets.corner_distances if site % 2 == 0 else offsets.center_distances
        dist[row, : len(nbrs)] = d * lattice.a
    e_matrix, e_valid = localize(e_global)
    e_valid &= dist > 0
    e_matrix[~e_valid] = 0
    safe = np.where(e_valid, dist, potential.cutoff)
    first_matrix, first_valid = localize(
        lattice_oracle.first_shell_ranks(lattice, sites)
    )
    return {
        "e_matrix": e_matrix,
        "e_valid": e_valid,
        "phi_slots": np.where(e_valid, potential.phi(safe), 0.0),
        "f_slots": np.where(e_valid, potential.fdens(safe), 0.0),
        "first_matrix": first_matrix,
        "first_valid": first_valid,
    }


class TestStaticTables:
    """The per-basis tables are bit-identical to per-slot evaluation."""

    @pytest.fixture(scope="class")
    def lattice10(self):
        return BCCLattice(10, 10, 10)

    def _site_sets(self, lattice, potential, params):
        sub = DomainDecomposition(lattice, (2, 1, 1)).subdomain(1)
        width = ParallelAKMC(lattice, potential, params, nranks=1).width
        rank_local = np.union1d(
            sub.owned_site_ranks(lattice),
            sub.all_ghost_site_ranks(lattice, width),
        )
        rng = np.random.default_rng(5)
        arbitrary = np.sort(
            rng.choice(lattice.nsites, lattice.nsites // 3, replace=False)
        )
        return {
            "full": np.arange(lattice.nsites, dtype=np.int64),
            "rank_local": rank_local,
            "arbitrary": arbitrary,
        }

    @pytest.mark.parametrize("which", ["full", "rank_local", "arbitrary"])
    def test_tables_equal_per_slot_oracle(
        self, lattice10, potential, rate_params, which
    ):
        sites = self._site_sets(lattice10, potential, rate_params)[which]
        model = KMCModel(
            lattice10, potential, rate_params,
            sites=None if which == "full" else sites,
        )
        ref = _reference_tables(lattice10, potential, rate_params, sites)
        if which == "full":
            assert ref["e_valid"].all() and ref["first_valid"].all()
        else:
            # Non-strict construction: stencils cut by the subset edge.
            assert 0 < len(sites) < lattice10.nsites
            assert not ref["e_valid"].all() and not ref["first_valid"].all()
        for name, want in ref.items():
            got = getattr(model, name)
            assert got.dtype == want.dtype, name
            assert np.array_equal(got, want), name
