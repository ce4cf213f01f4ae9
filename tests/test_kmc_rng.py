"""Deterministic RNG stream tests."""

import numpy as np
import pytest

from repro.kmc.rng import cycle_seed, sector_rng


class TestStreams:
    def test_same_coordinates_same_stream(self):
        a = sector_rng(7, rank=1, cycle=2, sector=3).random(5)
        b = sector_rng(7, rank=1, cycle=2, sector=3).random(5)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize(
        "other",
        [
            dict(rank=0, cycle=2, sector=3),
            dict(rank=1, cycle=0, sector=3),
            dict(rank=1, cycle=2, sector=0),
        ],
    )
    def test_different_coordinates_different_stream(self, other):
        base = sector_rng(7, rank=1, cycle=2, sector=3).random(8)
        alt = sector_rng(7, **other).random(8)
        assert not np.array_equal(base, alt)

    def test_different_seed_different_stream(self):
        a = sector_rng(1, 0, 0, 0).random(8)
        b = sector_rng(2, 0, 0, 0).random(8)
        assert not np.array_equal(a, b)

    def test_negative_coordinates_rejected(self):
        with pytest.raises(ValueError):
            cycle_seed(7, -1, 0, 0)

    def test_streams_statistically_independent(self):
        # Crude: correlations between adjacent streams stay small.
        a = sector_rng(0, 0, 0, 0).random(4000)
        b = sector_rng(0, 0, 0, 1).random(4000)
        corr = np.corrcoef(a, b)[0, 1]
        assert abs(corr) < 0.06
