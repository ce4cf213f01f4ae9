"""Parallel alloy AKMC tests: scheme equivalence with species."""

import hashlib

import numpy as np
import pytest

from repro.kmc.akmc import ParallelAKMC
from repro.kmc.alloy import (
    S_CU,
    S_FE,
    S_VACANCY,
    AlloyKMCModel,
    AlloyRateParameters,
)
from repro.lattice.bcc import BCCLattice
from repro.potential.alloy import make_fe_cu_alloy


@pytest.fixture(scope="module")
def alloy_tables():
    return make_fe_cu_alloy(n=500)


@pytest.fixture(scope="module")
def alloy_occ0(alloy_tables):
    """30 Cu + 5 vacancies on the 8^3 lattice — the pinned workload."""
    model = AlloyKMCModel(BCCLattice(8, 8, 8), alloy_tables, AlloyRateParameters())
    return model.random_solution(30, 5, np.random.default_rng(7))


def _run(alloy_tables, occ0, scheme, max_cycles):
    return ParallelAKMC(
        BCCLattice(8, 8, 8), alloy_tables, nranks=8, scheme=scheme, seed=5
    ).run(occ0, max_cycles=max_cycles)


@pytest.fixture(scope="module")
def alloy_parallel_results(alloy_tables, alloy_occ0):
    results = {
        scheme: _run(alloy_tables, alloy_occ0, scheme, max_cycles=8)
        for scheme in ("traditional", "ondemand", "onesided")
    }
    return alloy_occ0, results


class TestParallelAlloy:
    def test_all_schemes_identical(self, alloy_parallel_results):
        _occ0, results = alloy_parallel_results
        ref = results["traditional"].occupancy
        assert np.array_equal(results["ondemand"].occupancy, ref)
        assert np.array_equal(results["onesided"].occupancy, ref)

    def test_reproduces_the_parent_alloy_engine(self, alloy_parallel_results):
        """``make_parallel_alloy_akmc`` at the commit before the engines
        were unified, same workload: bit-for-bit on every scheme (it
        already ran on the catalog)."""
        _occ0, results = alloy_parallel_results
        for scheme, res in results.items():
            digest = hashlib.sha256(res.occupancy.tobytes()).hexdigest()[:16]
            assert (digest, res.time, res.cycles, res.events) == (
                "4905de8cd873138e", 2083.3712864230442, 8, 6,
            ), scheme

    def test_longer_run_reproduces_the_parent_alloy_engine(
        self, alloy_tables, alloy_occ0
    ):
        # 40 cycles / 14 events of the same workload (one scheme: the
        # three are asserted identical above).
        res = _run(alloy_tables, alloy_occ0, "traditional", max_cycles=40)
        digest = hashlib.sha256(res.occupancy.tobytes()).hexdigest()[:16]
        assert (digest, res.time, res.cycles, res.events) == (
            "796f7275090ca1cc", 10416.85643211523, 40, 14,
        )

    def test_species_counts_conserved(self, alloy_parallel_results):
        occ0, results = alloy_parallel_results
        for scheme, res in results.items():
            for code in (S_VACANCY, S_FE, S_CU):
                assert int(np.sum(res.occupancy == code)) == int(
                    np.sum(occ0 == code)
                ), (scheme, code)

    def test_events_executed(self, alloy_parallel_results):
        _occ0, results = alloy_parallel_results
        assert results["ondemand"].events > 0

    def test_ondemand_traffic_advantage_holds_with_species(
        self, alloy_parallel_results
    ):
        _occ0, results = alloy_parallel_results
        trad = results["traditional"].comm_stats["total_sent_bytes"]
        ond = results["ondemand"].comm_stats["total_sent_bytes"]
        assert ond < 0.1 * trad

    def test_subdomain_model_matches_global_rates(self, alloy_tables):
        # A vacancy well inside a subdomain must see identical rates from
        # the rank-local model and the full-lattice model.
        lattice = BCCLattice(8, 8, 8)
        from repro.lattice.domain import DomainDecomposition

        full = AlloyKMCModel(lattice, alloy_tables, AlloyRateParameters())
        decomp = DomainDecomposition(lattice, (2, 2, 2))
        sub = decomp.subdomain(0)
        owned = sub.owned_site_ranks(lattice)
        ghosts = sub.all_ghost_site_ranks(lattice, 2)
        sites = np.union1d(owned, ghosts)
        local = AlloyKMCModel(lattice, full.alloy, full.params, sites=sites)
        # Pick an interior owned site (away from the subdomain boundary).
        vrank = int(lattice.rank_of(0, 1, 1, 1))
        occ_full = np.full(full.nrows, S_FE, dtype=np.int8)
        occ_full[vrank] = S_VACANCY
        t_full, r_full = full.vacancy_events(vrank, occ_full)
        occ_local = occ_full[sites].copy()
        vrow = int(np.searchsorted(sites, vrank))
        t_local, r_local = local.vacancy_events(vrow, occ_local)
        assert np.allclose(np.sort(r_full), np.sort(r_local))
        # Targets map back to the same global ranks.
        assert set(sites[t_local].tolist()) == set(t_full.tolist())
