"""The flat BKL event selector: zero-rate bug regression + properties.

Flat selectors used ``searchsorted(cumsum, u * sum) `` with a blind
``min(pick, n - 1)`` clamp.  NumPy's pairwise ``sum`` and sequential
``cumsum`` can disagree in the last ulp, so ``u * total`` can overshoot
``cumsum[-1]`` — and the clamp then returns the last index even when its
rate is exactly zero, executing a physically forbidden transition.
:func:`tests.kmc_oracle.select_event` — the selector of the flat-rebuild
oracle the engines' catalog is tested against — fixes this with the
catalog's rightmost-positive fallback; these tests pin the bug and the
fix, and that oracle and catalog agree.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kmc.catalog import EventCatalog
from tests.kmc_oracle import select_event


def legacy_select(rates: np.ndarray, u: float) -> int:
    """The pre-fix idiom, verbatim (for demonstrating the bug)."""
    cum = np.cumsum(rates)
    pick = int(np.searchsorted(cum, u * rates.sum()))
    return min(pick, len(rates) - 1)


def overshoot_rates() -> np.ndarray:
    """A rate vector where ``np.sum`` strictly exceeds ``cumsum[-1]``.

    Found by seed search; the disagreement is one ulp, which is all the
    bug needs.
    """
    rates = np.random.default_rng(5).uniform(0.0, 1.0, 64)
    rates[-1] = 0.0
    assert float(np.sum(rates)) > float(np.cumsum(rates)[-1])
    return rates


class TestZeroRateRegression:
    def test_legacy_selector_picks_zero_rate_event(self):
        """The historical bug, demonstrated: the clamp lands on rate 0."""
        rates = overshoot_rates()
        u = np.nextafter(1.0, 0.0)
        pick = legacy_select(rates, u)
        assert pick == len(rates) - 1
        assert rates[pick] == 0.0  # a forbidden event was selected

    def test_fixed_selector_never_picks_zero_rate(self):
        rates = overshoot_rates()
        u = np.nextafter(1.0, 0.0)
        pick = select_event(rates, u)
        assert rates[pick] > 0.0
        # Rightmost positive-rate event, matching the catalog's fallback.
        assert pick == 62

    def test_catalog_agrees_on_the_overshoot_vector(self):
        """Flat selector and catalog pick the same event at the bad u."""
        rates = overshoot_rates()
        catalog = EventCatalog(len(rates))
        for row, rate in enumerate(rates):
            catalog.set_row(
                row,
                np.array([row], dtype=np.int64),
                np.array([rate], dtype=float),
            )
        u = np.nextafter(1.0, 0.0)
        row, idx = catalog.sample(u)
        assert idx == 0
        assert row == select_event(rates, u)

    def test_leading_zero_rates_at_u_zero(self):
        """u=0 with zero-rate leading events selects the first allowed one."""
        rates = np.array([0.0, 0.0, 3.0, 1.0])
        assert select_event(rates, 0.0) == 2

    def test_empty_and_zero_total_raise(self):
        with pytest.raises(ValueError):
            select_event(np.array([]), 0.5)
        with pytest.raises(ValueError):
            select_event(np.zeros(4), 0.5)


@settings(max_examples=300, deadline=None)
@given(
    rates=st.lists(
        st.one_of(
            st.just(0.0),
            st.floats(
                min_value=1e-12,
                max_value=1e12,
                allow_nan=False,
                allow_infinity=False,
            ),
        ),
        min_size=1,
        max_size=64,
    ).filter(lambda r: sum(r) > 0.0),
    u=st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
)
def test_select_event_properties(rates, u):
    """Safety invariants over arbitrary rate vectors and draws.

    The selected index is in range, its rate is strictly positive, and
    its cumulative interval brackets the target up to summation
    round-off — for *any* mix of zero and positive rates.  The serial
    and sector oracles both call this exact function, so the property
    covers every flat path at once.
    """
    rates = np.asarray(rates, dtype=float)
    idx = select_event(rates, u)
    assert 0 <= idx < len(rates)
    assert rates[idx] > 0.0
    total = float(np.sum(rates))
    target = u * total
    cum = np.cumsum(rates)
    tol = 16 * np.finfo(float).eps * max(total, 1.0)
    lo = 0.0 if idx == 0 else float(cum[idx - 1])
    assert lo <= target + tol
    assert target <= float(cum[idx]) + tol


@settings(max_examples=200, deadline=None)
@given(
    rates=st.lists(
        st.one_of(
            st.just(0.0),
            st.floats(
                min_value=1e-9,
                max_value=1e9,
                allow_nan=False,
                allow_infinity=False,
            ),
        ),
        min_size=1,
        max_size=32,
    ).filter(lambda r: sum(r) > 0.0),
    u=st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
)
def test_catalog_sample_never_picks_zero_rate(rates, u):
    """The catalog path upholds the same invariant on the same inputs."""
    rates = np.asarray(rates, dtype=float)
    catalog = EventCatalog(len(rates))
    for row, rate in enumerate(rates):
        catalog.set_row(
            row, np.array([row], dtype=np.int64), np.array([rate], dtype=float)
        )
    row, idx = catalog.sample(u)
    assert idx == 0
    assert rates[row] > 0.0


def test_flat_and_catalog_selectors_agree_event_for_event():
    """Away from ulp boundaries the two selectors are the same function.

    Seeded, not hypothesis-driven: adversarial u values sitting within
    one ulp of a cumulative boundary may legitimately resolve to
    adjacent events (the two paths sum in different orders); random
    draws never land there.
    """
    rng = np.random.default_rng(42)
    for _ in range(300):
        n = int(rng.integers(1, 48))
        rates = rng.uniform(0.0, 5.0, n)
        rates[rng.random(n) < 0.3] = 0.0
        if not np.sum(rates) > 0.0:
            continue
        catalog = EventCatalog(n)
        for row, rate in enumerate(rates):
            catalog.set_row(
                row,
                np.array([row], dtype=np.int64),
                np.array([rate], dtype=float),
            )
        u = rng.random()
        row, _ = catalog.sample(u)
        assert row == select_event(rates, u)
