"""The compacted layout of Figure 5 as a property of the one spline table.

A core that keeps only a table's sample column (column 6 of the
coefficient matrix, ~39 KB) can rebuild every segment on the fly: row
``m`` depends on samples ``m-2 .. m+3`` only, through the five-point
formula.  These tests pin that locality and the sizes it buys; the Sunway
kernel model prices the layout, and no second evaluator exists.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.potential.spline import SplineTable, segment_coefficients


def resident_row(samples, m, dx):
    """Row ``m`` rebuilt from six resident samples: ``m-2 .. m+3``,
    shifted inward at the table's ends."""
    lo = max(min(m - 2, len(samples) - 6), 0)
    return segment_coefficients(samples[lo : lo + 6], dx)[m - lo]


def resident_rows(t):
    samples = t.coeff[:, 6]
    return np.array([resident_row(samples, m, t.dx) for m in range(t.n + 1)])


class TestLayout:
    def test_nbytes_about_39kb_at_5000(self):
        # "a compacted interpolation table, of which size is only 39 KB".
        t = SplineTable.from_function(np.sin, 5.0, n=5000)
        assert t.coeff[:, 6].nbytes == pytest.approx(39 * 1024, rel=0.03)

    def test_compaction_ratio_is_one_seventh(self):
        # "(1/7 of the traditional table)".
        t = SplineTable.from_function(np.sin, 5.0, n=5000)
        assert t.coeff[:, 6].nbytes / t.nbytes == pytest.approx(1 / 7)

    def test_roundtrip_through_spline(self):
        # The sample column alone rebuilds the whole matrix.
        t = SplineTable.from_function(np.cos, 2.0, n=50)
        back = SplineTable(t.coeff[:, 6].copy(), t.xmax)
        assert np.array_equal(back.coeff, t.coeff)


class TestEquivalence:
    """Every row rebuilt from six resident samples equals the table's row
    bit for bit — the paper's correctness premise ("all the values in the
    traditional table can be calculated on the fly")."""

    @pytest.mark.parametrize(
        "func",
        [np.sin, np.cos, lambda r: np.exp(-r), lambda r: r**3 - 2 * r],
        ids=["sin", "cos", "exp", "cubic"],
    )
    def test_values_identical(self, func):
        t = SplineTable.from_function(func, 4.0, n=200)
        assert np.array_equal(resident_rows(t)[:, 3:], t.coeff[:, 3:])

    def test_derivatives_identical(self):
        t = SplineTable.from_function(np.sin, 4.0, n=200)
        assert np.array_equal(resident_rows(t)[:, :3], t.coeff[:, :3])

    @given(
        seed=st.integers(0, 2**31),
        x=st.floats(0.0, 1.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_equivalence_property_random_tables(self, seed, x):
        t = SplineTable(np.random.default_rng(seed).normal(size=16), 1.0)
        m = min(int(x / t.dx), t.n - 1)
        p = min(x / t.dx - m, 1.0)
        c = resident_row(t.coeff[:, 6], m, t.dx)
        value = ((c[3] * p + c[4]) * p + c[5]) * p + c[6]
        assert value == pytest.approx(float(t(x)), abs=1e-12)

    def test_boundary_knots_identical(self):
        # The fallback derivative formulas at m in {0, 1, n-1, n} only
        # read samples inside the table's first or last six; in these
        # short tables most rows are such boundary rows.
        for size in (6, 7, 8, 12):
            t = SplineTable(np.random.default_rng(size).normal(size=size), 1.0)
            assert np.array_equal(resident_rows(t), t.coeff)

    def test_hits_knots_exactly(self):
        # Column 6 is the sample set, and the table passes through it.
        samples = np.random.default_rng(3).normal(size=40)
        t = SplineTable(samples, 2.0)
        assert np.array_equal(t.coeff[:, 6], samples)
        x = np.linspace(0, 2.0, 40)
        assert np.allclose(t(x[:-1]), samples[:-1], atol=1e-12)


class TestLocality:
    """Sample ``k`` enters rows ``k-3 .. k+2`` and no others, so a
    segment needs six resident samples and no more."""

    @staticmethod
    def moved_rows(samples, k):
        moved = samples.copy()
        moved[k] += 1.0
        diff = segment_coefficients(moved, 0.1) != segment_coefficients(samples, 0.1)
        return np.flatnonzero(np.any(diff, axis=1))

    def test_sample_moves_only_nearby_rows(self):
        # Every k, the boundary knots 0, 1, n-1 and n included: their
        # fallback formulas read fewer samples, never farther ones.
        samples = np.random.default_rng(5).normal(size=20)
        for k in range(len(samples)):
            rows = self.moved_rows(samples, k)
            assert rows.size and rows.min() >= k - 3 and rows.max() <= k + 2

    def test_interior_sample_moves_six_rows(self):
        samples = np.random.default_rng(6).normal(size=20)
        for k in range(5, len(samples) - 5):
            assert np.array_equal(
                self.moved_rows(samples, k), np.arange(k - 3, k + 3)
            )
