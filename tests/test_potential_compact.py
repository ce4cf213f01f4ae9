"""Compacted-table tests: layout size and exact equivalence (Figure 5)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.potential.compact import CompactTable
from repro.potential.spline import SplineTable


class TestLayout:
    def test_nbytes_about_39kb_at_5000(self):
        # "a compacted interpolation table, of which size is only 39 KB".
        t = CompactTable.from_function(np.sin, 5.0, n=5000)
        assert t.nbytes == pytest.approx(39 * 1024, rel=0.03)

    def test_compaction_ratio_is_one_seventh(self):
        # "(1/7 of the traditional table)".
        compact = CompactTable.from_function(np.sin, 5.0, n=5000)
        traditional = SplineTable.from_function(np.sin, 5.0, n=5000)
        assert compact.nbytes / traditional.nbytes == pytest.approx(1 / 7)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            CompactTable(np.zeros(3), 1.0)
        with pytest.raises(ValueError):
            CompactTable(np.zeros(10), -1.0)

    def test_roundtrip_through_spline(self):
        t = SplineTable.from_function(np.cos, 2.0, n=50)
        back = CompactTable.from_spline(t).to_spline()
        assert np.allclose(back.coeff, t.coeff)


class TestEquivalence:
    """The compacted table must reproduce the traditional one exactly —
    the paper's correctness premise ("all the values in the traditional
    table can be calculated on the fly")."""

    @pytest.mark.parametrize(
        "func",
        [np.sin, np.cos, lambda r: np.exp(-r), lambda r: r**3 - 2 * r],
        ids=["sin", "cos", "exp", "cubic"],
    )
    def test_values_identical(self, func):
        xmax, n = 4.0, 200
        trad = SplineTable.from_function(func, xmax, n=n)
        comp = CompactTable.from_function(func, xmax, n=n)
        x = np.linspace(0, xmax, 4096)
        assert np.allclose(trad(x), comp(x), atol=1e-13, rtol=0)

    def test_derivatives_identical(self):
        trad = SplineTable.from_function(np.sin, 4.0, n=200)
        comp = CompactTable.from_function(np.sin, 4.0, n=200)
        x = np.linspace(0, 4.0, 4096)
        assert np.allclose(
            trad.derivative(x), comp.derivative(x), atol=1e-11, rtol=0
        )

    def test_value_and_derivative_identical(self):
        trad = SplineTable.from_function(np.cos, 3.0, n=100)
        comp = CompactTable.from_spline(trad)
        x = np.linspace(0, 3.0, 512)
        tv, td = trad.value_and_derivative(x)
        cv, cd = comp.value_and_derivative(x)
        assert np.allclose(tv, cv, atol=1e-13)
        assert np.allclose(td, cd, atol=1e-11)

    @given(
        seed=st.integers(0, 2**31),
        x=st.floats(0.0, 1.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_equivalence_property_random_tables(self, seed, x):
        rng = np.random.default_rng(seed)
        samples = rng.normal(size=16)
        trad = SplineTable(samples.copy(), 1.0)
        comp = CompactTable(samples.copy(), 1.0)
        assert float(trad(x)) == pytest.approx(float(comp(x)), abs=1e-12)

    def test_boundary_knots_identical(self):
        # The fallback derivative formulas at m in {0, 1, n-1, n} must
        # also agree between layouts.
        rng = np.random.default_rng(7)
        samples = rng.normal(size=12)
        trad = SplineTable(samples, 1.0)
        comp = CompactTable(samples, 1.0)
        edges = np.array([0.0, 0.04, 0.09, 0.91, 0.96, 0.999])
        assert np.allclose(trad(edges), comp(edges), atol=1e-13)
        assert np.allclose(
            trad.derivative(edges), comp.derivative(edges), atol=1e-12
        )

    def test_hits_knots_exactly(self):
        samples = np.random.default_rng(3).normal(size=40)
        comp = CompactTable(samples, 2.0)
        x = np.linspace(0, 2.0, 40)
        assert np.allclose(comp(x[:-1]), samples[:-1], atol=1e-12)
