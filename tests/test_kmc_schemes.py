"""Communication-scheme tests: equivalence, conservation, traffic profile.

All three schemes run the same workload via the session-scoped
``parallel_kmc_results`` fixture (one 8-rank run each).
"""

import numpy as np
import pytest

from repro.kmc.events import VACANCY
from repro.kmc.ondemand import apply_updates, pack_updates
from repro.perfmodel.machine import TAIHULIGHT


class TestTrajectoryEquivalence:
    def test_ondemand_matches_traditional_exactly(self, parallel_kmc_results):
        r = parallel_kmc_results
        assert np.array_equal(
            r["traditional"].occupancy, r["ondemand"].occupancy
        )

    def test_onesided_matches_traditional_exactly(self, parallel_kmc_results):
        r = parallel_kmc_results
        assert np.array_equal(
            r["traditional"].occupancy, r["onesided"].occupancy
        )

    def test_event_counts_identical(self, parallel_kmc_results):
        r = parallel_kmc_results
        events = {s: res.events for s, res in r.items()}
        assert len(set(events.values())) == 1

    def test_simulated_time_identical(self, parallel_kmc_results):
        r = parallel_kmc_results
        times = {res.time for res in r.values()}
        assert len(times) == 1

    def test_events_actually_happened(self, parallel_kmc_results):
        assert parallel_kmc_results["ondemand"].events > 0


class TestConservation:
    def test_vacancy_count_conserved_all_schemes(
        self, parallel_kmc_results, kmc_initial_occ
    ):
        n0 = int(np.sum(kmc_initial_occ == VACANCY))
        for scheme, res in parallel_kmc_results.items():
            assert res.nvacancies == n0, scheme

    def test_occupancy_codes_valid(self, parallel_kmc_results):
        occ = parallel_kmc_results["ondemand"].occupancy
        assert set(np.unique(occ).tolist()) <= {0, 1}

    def test_vacancies_moved_from_initial(
        self, parallel_kmc_results, kmc_initial_occ
    ):
        final = parallel_kmc_results["ondemand"].occupancy
        assert not np.array_equal(final, kmc_initial_occ)


class TestTrafficProfile:
    def test_ondemand_volume_far_below_traditional(self, parallel_kmc_results):
        # Figure 12's mechanism at test scale.
        r = parallel_kmc_results
        trad = r["traditional"].comm_stats["total_sent_bytes"]
        ond = r["ondemand"].comm_stats["total_sent_bytes"]
        assert ond < 0.1 * trad

    def test_ondemand_comm_time_faster(self, parallel_kmc_results):
        # Figure 13's direction, priced as Figure 13 prices it.
        r = parallel_kmc_results
        price = TAIHULIGHT.network.traffic_time
        trad = price(r["traditional"].comm_stats)
        ond = price(r["ondemand"].comm_stats)
        assert ond < trad

    def test_onesided_eliminates_zero_size_messages(
        self, parallel_kmc_results
    ):
        # "to eliminate these zero-size messages": the one-sided variant
        # sends orders of magnitude fewer messages.
        r = parallel_kmc_results
        two_sided = r["ondemand"].comm_stats["total_messages"]
        one_sided = r["onesided"].comm_stats["total_messages"]
        assert one_sided < 0.2 * two_sided

    def test_onesided_volume_equals_ondemand(self, parallel_kmc_results):
        # Same dirty sites travel; only the transport differs.
        r = parallel_kmc_results
        assert (
            r["onesided"].comm_stats["total_sent_bytes"]
            == r["ondemand"].comm_stats["total_sent_bytes"]
        )

    def test_traditional_volume_independent_of_events(
        self, parallel_kmc_results, kmc_initial_occ
    ):
        # "All the sites in the ghost region have to be transferred
        # regardless of whether all the sites are updated or not" — the
        # traditional volume is cycles x strips, events don't enter.
        r = parallel_kmc_results["traditional"]
        assert r.comm_stats["total_sent_bytes"] % r.cycles == 0


class TestOnDemandCodecs:
    def test_pack_apply_roundtrip(self):
        sites = np.array([2, 5, 9, 14], dtype=np.int64)
        occ = np.array([1, 1, 0, 1], dtype=np.int8)
        rows = np.array([1, 2])
        ranks, values = pack_updates(sites, occ, rows)
        assert ranks.tolist() == [5, 9]
        target_occ = np.array([1, 0, 1, 1], dtype=np.int8)
        n = apply_updates(sites, target_occ, ranks, values)
        assert n == 2
        assert target_occ.tolist() == [1, 1, 0, 1]

    def test_apply_empty_is_noop(self):
        sites = np.array([1, 2, 3], dtype=np.int64)
        occ = np.ones(3, dtype=np.int8)
        assert apply_updates(sites, occ, np.empty(0, dtype=np.int64), []) == 0

    def test_apply_unknown_rank_rejected(self):
        sites = np.array([1, 2, 3], dtype=np.int64)
        occ = np.ones(3, dtype=np.int8)
        with pytest.raises(ValueError, match="outside"):
            apply_updates(sites, occ, np.array([99]), np.array([0]))
