"""Regression tests for the sector-cycle rate bound (Satellite: rate cap).

The parallel engines derive their synchronous cycle length from a
claimed per-vacancy rate bound ``8 * nu * exp(-e_m0/kT)``.  But the EAM
correction term in Equation (4) can push a barrier *below* ``e_m0``
(only the ``de_min`` floor limits it), so uncapped event rates exceed
the reference rate and the claimed bound did not actually hold.  These
tests pin both halves of the fix:

per-event rates are capped at the reference rate (so the advertised
bound holds for the dt actually used) and every clamped event is counted
on ``kmc.rate_bound.clamped``.
"""

import numpy as np
import pytest

from repro import observe as obs
from repro.kmc.akmc import ParallelAKMC, place_random_vacancies
from repro.kmc.events import VACANCY, KMCModel
from tests.kmc_oracle import vacancy_events


def _two_vacancy_occ(model):
    """A deterministic config whose correction drives a barrier below e_m0.

    Two nearby vacancies on the 8^3 lattice: the second vacancy removes
    bonds around the first one's exchange partners, lowering E_after and
    hence the barrier below the reference.
    """
    occ = model.perfect_occupancy()
    occ[model.lattice.nsites // 2] = VACANCY  # row 512
    occ[model.lattice.nsites // 2 - 16] = VACANCY  # row 496
    return occ


class TestUncappedViolatesClaimedBound:
    def test_event_rate_exceeds_reference(self, kmc_model8, rate_params):
        occ = _two_vacancy_occ(kmc_model8)
        vrow = kmc_model8.lattice.nsites // 2
        _targets, rates = vacancy_events(kmc_model8, vrow, occ)
        # The bug: uncapped rates break the advertised per-event bound.
        assert float(rates.max()) > rate_params.reference_rate

    def test_per_vacancy_total_exceeds_claimed_bound(
        self, kmc_model8, rate_params
    ):
        occ = _two_vacancy_occ(kmc_model8)
        vrow = kmc_model8.lattice.nsites // 2
        _targets, rates = vacancy_events(kmc_model8, vrow, occ)
        assert float(rates.sum()) > 8.0 * rate_params.reference_rate

    def test_violation_occurs_in_generic_config(self, kmc_model8, rate_params):
        """Not a contrived corner: the suite's stock 20-vacancy config
        also exceeds the claimed bound."""
        occ = place_random_vacancies(
            kmc_model8, 20, np.random.default_rng(5)
        )
        vrows = np.flatnonzero(occ == VACANCY)
        _counts, _targets, rates = kmc_model8.vacancy_events_batch(vrows, occ)
        assert float(rates.max()) > rate_params.reference_rate


class TestRateCap:
    def test_cap_validation(self, lattice8, potential, rate_params):
        with pytest.raises(ValueError, match="rate_cap"):
            KMCModel(lattice8, potential, rate_params, rate_cap=0.0)

    def test_capped_rates_honor_bound(self, lattice8, potential, rate_params):
        model = KMCModel(
            lattice8, potential, rate_params,
            rate_cap=rate_params.reference_rate,
        )
        occ = _two_vacancy_occ(model)
        for vrow in np.flatnonzero(occ == VACANCY):
            _targets, rates = vacancy_events(model, int(vrow), occ)
            assert float(rates.max()) <= rate_params.reference_rate
            assert float(rates.sum()) <= 8.0 * rate_params.reference_rate

    def test_clamped_counter_fires(self, lattice8, potential, rate_params):
        model = KMCModel(
            lattice8, potential, rate_params,
            rate_cap=rate_params.reference_rate,
        )
        occ = _two_vacancy_occ(model)
        registry = obs.enable(trace=False)
        try:
            vacancy_events(model, model.lattice.nsites // 2, occ)
        finally:
            obs.disable()
        assert registry.counters["kmc.rate_bound.clamped"] > 0

    def test_batch_matches_scalar_under_cap(
        self, lattice8, potential, rate_params
    ):
        model = KMCModel(
            lattice8, potential, rate_params,
            rate_cap=rate_params.reference_rate,
        )
        occ = place_random_vacancies(model, 20, np.random.default_rng(5))
        vrows = np.flatnonzero(occ == VACANCY)
        counts, targets, rates = model.vacancy_events_batch(vrows, occ)
        off = 0
        for vrow, count in zip(vrows, counts, strict=True):
            t_one, r_one = vacancy_events(model, int(vrow), occ)
            assert np.array_equal(targets[off:off + count], t_one)
            # Bit-identical, not approximately equal: the cap is applied
            # post-exp on both paths.
            assert np.array_equal(rates[off:off + count], r_one)
            off += count


class TestEngineModes:
    def test_clamp_is_default_and_caps_model(
        self, lattice8, potential, rate_params
    ):
        engine = ParallelAKMC(lattice8, potential, rate_params, nranks=8)
        assert engine.dt_rate_bound == pytest.approx(
            8.0 * rate_params.reference_rate
        )
        assert engine.rate_cap == pytest.approx(rate_params.reference_rate)

    def test_clamp_run_counts_clamped_events(
        self, lattice8, potential, rate_params, kmc_model8, world_backend
    ):
        engine = ParallelAKMC(
            lattice8, potential, rate_params, nranks=8, seed=5,
            **world_backend,
        )
        occ = place_random_vacancies(kmc_model8, 20, np.random.default_rng(5))
        registry = obs.enable(trace=False)
        try:
            result = engine.run(occ, max_cycles=3)
        finally:
            obs.disable()
        assert result.events >= 0
        assert registry.counters.get("kmc.rate_bound.clamped", 0) > 0
