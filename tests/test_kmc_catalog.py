"""Event-catalog tests: sum-tree invariants, exact selection, batched
rate kernels, and catalog/driver trajectory equivalence."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kmc import akmc
from repro.kmc.akmc import ParallelAKMC, SerialAKMC, place_random_vacancies
from repro.kmc.catalog import EventCatalog
from repro.kmc.events import ATOM, VACANCY
from tests.kmc_oracle import oracle_sector_events, oracle_step, vacancy_events


def _fill(catalog, table):
    for row, rates in table.items():
        rates = np.asarray(rates, dtype=float)
        catalog.set_row(row, np.arange(len(rates), dtype=np.int64), rates)


class TestSumTree:
    def test_total_and_row_rates(self):
        cat = EventCatalog(10)
        _fill(cat, {0: [1.0, 2.0], 7: [3.0]})
        assert cat.total == pytest.approx(6.0)
        assert cat.row_rate(0) == pytest.approx(3.0)
        assert cat.row_rate(7) == pytest.approx(3.0)
        assert cat.row_rate(3) == 0.0
        assert cat.n_active == 2

    def test_clear_row(self):
        cat = EventCatalog(4)
        _fill(cat, {1: [2.0], 2: [5.0]})
        cat.clear_row(1)
        assert cat.total == pytest.approx(5.0)
        assert cat.n_active == 1
        t, r = cat.row_events(1)
        assert len(t) == 0 and len(r) == 0
        cat.clear_row(1)  # idempotent
        assert cat.n_active == 1

    def test_prefix_sums(self):
        cat = EventCatalog(6)
        _fill(cat, {0: [1.0], 2: [2.0], 5: [4.0]})
        assert cat.prefix(0) == 0.0
        assert cat.prefix(1) == pytest.approx(1.0)
        assert cat.prefix(3) == pytest.approx(3.0)
        assert cat.prefix(6) == pytest.approx(7.0)

    def test_empty_catalog_rejects_sampling(self):
        cat = EventCatalog(3)
        with pytest.raises(ValueError, match="empty"):
            cat.sample(0.5)

    def test_non_power_of_two_rows(self):
        cat = EventCatalog(5)
        _fill(cat, {4: [1.0]})
        assert cat.total == pytest.approx(1.0)
        assert cat.sample(0.5) == (4, 0)


class TestSelection:
    def test_mass_boundaries(self):
        cat = EventCatalog(8)
        _fill(cat, {1: [1.0, 2.0], 4: [3.0], 6: [2.0]})
        # Cumulative layout: [0,1) -> (1,0); [1,3) -> (1,1);
        # [3,6) -> (4,0); [6,8) -> (6,0); total 8.
        assert cat.sample(0.0) == (1, 0)
        assert cat.sample(0.9 / 8.0) == (1, 0)
        assert cat.sample(1.5 / 8.0) == (1, 1)
        assert cat.sample(3.5 / 8.0) == (4, 0)
        assert cat.sample(7.5 / 8.0) == (6, 0)

    def test_target_past_total_picks_rightmost_positive(self):
        # Regression for the searchsorted(cumsum)+clamp idiom: when
        # u*total rounds past the last partial sum the old path clamped
        # onto whatever the last flat slot was; the catalog must land on
        # the rightmost row that actually carries rate mass.
        cat = EventCatalog(16)
        _fill(cat, {2: [1e-30, 1e-30], 9: [0.7, 0.3]})
        row, idx = cat.sample(1.0)  # u == 1.0: past every partial sum
        assert row == 9
        assert cat.rates[9][idx] > 0.0

    def test_zero_rate_events_never_selected(self):
        cat = EventCatalog(4)
        _fill(cat, {1: [0.0, 0.0, 5.0, 0.0]})
        for u in np.linspace(0.0, 1.0, 23):
            row, idx = cat.sample(float(u))
            assert (row, idx) == (1, 2)

    def test_adversarial_magnitude_spread(self):
        # Tiny rates followed by a huge one: partial sums collapse onto
        # the big value; every sample must still land on a positive rate
        # inside its bracket.
        rates = np.array([*[1e-300] * 7, 1e8])
        cat = EventCatalog(2)
        cat.set_row(0, np.arange(8, dtype=np.int64), rates)
        for u in [0.0, 1e-16, 0.3, 0.999999, 1.0 - 1e-16, 1.0]:
            row, idx = cat.sample(float(u))
            assert row == 0
            assert rates[idx] > 0.0

    def test_sample_consistent_with_prefix(self):
        rng = np.random.default_rng(0)
        cat = EventCatalog(64)
        rows = rng.choice(64, size=20, replace=False)
        for row in rows:
            k = int(rng.integers(1, 9))
            cat.set_row(
                int(row), np.arange(k, dtype=np.int64), rng.uniform(0.1, 9.0, k)
            )
        for u in rng.uniform(0.0, 1.0, 200):
            row, _idx = cat.sample(float(u))
            target = float(u) * cat.total
            assert cat.prefix(row) <= target * (1 + 1e-12) + 1e-300
            assert target <= (cat.prefix(row) + cat.row_rate(row)) * (1 + 1e-12)


class TestIncrementalExactness:
    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(0, 999), min_size=1, max_size=120), st.integers(0, 2**32 - 1))
    def test_storm_matches_brute_force_and_rebuild(self, ops, seed):
        """Random insert/remove/update storms: totals match brute-force
        sums, and the incrementally maintained tree is bit-identical to
        one rebuilt from scratch over the same rows."""
        rng = np.random.default_rng(seed)
        nrows = 37
        cat = EventCatalog(nrows)
        table: dict[int, np.ndarray] = {}
        for op in ops:
            row = op % nrows
            if op % 3 == 0 and row in table:
                cat.clear_row(row)
                del table[row]
            else:
                k = int(rng.integers(0, 9))
                rates = rng.uniform(1e-6, 1e3, k)
                cat.set_row(row, np.arange(k, dtype=np.int64), rates)
                table[row] = rates
        brute = sum(float(np.sum(r)) for r in table.values())
        assert cat.total == pytest.approx(brute, rel=1e-12, abs=1e-300)
        rebuilt = EventCatalog(nrows)
        for row, rates in table.items():
            rebuilt.set_row(row, np.arange(len(rates), dtype=np.int64), rates)
        assert np.array_equal(cat.tree, rebuilt.tree)
        assert cat.n_active == rebuilt.n_active == len(table)

    def test_bulk_set_rows_matches_per_row(self):
        rng = np.random.default_rng(7)
        nrows = 300
        rows = np.sort(rng.choice(nrows, size=150, replace=False))
        counts = rng.integers(0, 9, size=len(rows))
        rates = rng.uniform(0.1, 10.0, int(counts.sum()))
        targets = rng.integers(0, nrows, size=len(rates))
        bulk = EventCatalog(nrows)  # 150 rows: vectorized rebuild path
        bulk.set_rows(rows, counts, targets, rates)
        single = EventCatalog(nrows)
        start = 0
        for row, c in zip(rows, counts, strict=True):
            single.set_row(int(row), targets[start : start + c], rates[start : start + c])
            start += c
        assert np.array_equal(bulk.tree, single.tree)
        assert bulk.n_active == single.n_active


class TestBatchedRates:
    def test_batch_matches_scalar_bitwise(self, kmc_model8):
        """vacancy_events_batch must reproduce the oracle's scalar
        vacancy_events exactly — same targets, bit-identical rates —
        across random occupancies."""
        rng = np.random.default_rng(11)
        for _trial in range(5):
            occ = place_random_vacancies(kmc_model8, 40, rng)
            vrows = np.flatnonzero(occ == VACANCY)
            counts, targets, rates = kmc_model8.vacancy_events_batch(vrows, occ)
            start = 0
            for v, c in zip(vrows, counts, strict=True):
                t_ref, r_ref = vacancy_events(kmc_model8, int(v), occ)
                assert np.array_equal(targets[start : start + c], t_ref)
                assert np.array_equal(rates[start : start + c], r_ref)
                start += c
            assert start == len(targets)

    def test_batch_validates_occupancy(self, kmc_model8):
        occ = kmc_model8.perfect_occupancy()
        occ[4] = VACANCY
        with pytest.raises(ValueError, match="does not hold a vacancy"):
            kmc_model8.vacancy_events_batch(np.array([4, 9]), occ)

    def test_batch_empty_rows(self, kmc_model8):
        occ = kmc_model8.perfect_occupancy()
        counts, targets, rates = kmc_model8.vacancy_events_batch(
            np.empty(0, dtype=np.int64), occ
        )
        assert len(counts) == len(targets) == len(rates) == 0

    def test_batch_isolated_vacancy_cluster(self, kmc_model8):
        """A vacancy fully surrounded by vacancies contributes no events."""
        occ = kmc_model8.perfect_occupancy()
        center = 100
        shell = kmc_model8.first_matrix[center][kmc_model8.first_valid[center]]
        occ[center] = VACANCY
        occ[shell] = VACANCY
        vrows = np.flatnonzero(occ == VACANCY)
        counts, targets, rates = kmc_model8.vacancy_events_batch(vrows, occ)
        row_pos = int(np.searchsorted(vrows, center))
        assert counts[row_pos] == 0
        assert counts.sum() == len(targets) == len(rates)
        assert np.all(occ[targets] == ATOM)


class TestDriverEquivalence:
    def test_serial_catalog_matches_flat_rebuild(
        self, lattice8, potential, rate_params, kmc_initial_occ
    ):
        """Fixed seed, catalog engine vs the cache-free flat oracle:
        identical event sequences (occupancy after every step) and times."""
        system = (lattice8, potential, rate_params, kmc_initial_occ)
        cat = SerialAKMC(*system, seed=7)
        flat = SerialAKMC(*system, seed=7)
        for step in range(150):
            dt_c, dt_f = cat.step(), oracle_step(flat)
            assert np.array_equal(cat.occ, flat.occ), f"diverged at step {step}"
            assert dt_c == pytest.approx(dt_f, rel=1e-12)
        assert cat.time == pytest.approx(flat.time, rel=1e-12)
        assert cat.events == flat.events == 150

    def test_serial_incremental_matches_full_rebuild_bitwise(
        self, lattice8, potential, rate_params, kmc_initial_occ
    ):
        """Forcing a from-scratch catalog rebuild before every step must
        change nothing at all — times bit-identical — because set-leaf
        updates never accumulate drift."""
        inc = SerialAKMC(
            lattice8, potential, rate_params, kmc_initial_occ, seed=13
        )
        reb = SerialAKMC(
            lattice8, potential, rate_params, kmc_initial_occ, seed=13
        )
        for _ in range(100):
            inc.step()
            reb.catalog = EventCatalog(reb.model.nrows)
            reb._dirty = None  # full build pending
            reb.step()
        assert np.array_equal(inc.occ, reb.occ)
        assert inc.time == reb.time  # exactly, not approximately

    def test_frozen_lattice_with_catalog(self, lattice8, potential, rate_params):
        engine = SerialAKMC(lattice8, potential, rate_params, seed=1)
        assert engine.step() is None
        assert engine.events == 0

    @pytest.mark.parametrize("scheme", ["traditional", "ondemand", "onesided"])
    def test_parallel_catalog_matches_flat_rebuild(
        self, monkeypatch, lattice8, potential, rate_params, kmc_initial_occ, scheme
    ):
        """The sector-synchronous driver with persistent per-sector
        catalogs reproduces the flat-rebuild trajectory for every
        communication scheme.  The oracle sector pass is substituted
        in-process, hence the pinned thread backend."""

        def run():
            return ParallelAKMC(
                lattice8,
                potential,
                rate_params,
                nranks=8,
                scheme=scheme,
                seed=5,
                backend="thread",
            ).run(kmc_initial_occ, max_cycles=10)

        cat = run()
        monkeypatch.setattr(akmc, "_sector_events", oracle_sector_events)
        flat = run()
        assert np.array_equal(cat.occupancy, flat.occupancy)
        assert cat.events == flat.events
        assert cat.time == flat.time
        assert cat.events > 0
