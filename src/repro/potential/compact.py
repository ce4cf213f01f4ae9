"""Compacted interpolation tables (the paper's §2.1.2 contribution).

The traditional ``(n+1) x 7`` coefficient matrix is ~273 KB for n = 5000 —
too large for the 64 KB CPE local store, forcing 3 DMA gets per neighbor
per time step.  The compacted table keeps only the ``n + 1`` sampled values
(~39 KB, "1/7 of the traditional table") and reconstructs the cubic
segment coefficients *on the fly* from five consecutive samples, using the
same five-point derivative formula shown in Figure 5:

    L[m,5] = ( S[m-2] - S[m+2] + 8*(S[m+1] - S[m-1]) ) / 12

The trade is extra arithmetic per evaluation for a 7x smaller resident
footprint — exactly the trade the paper makes, amortized by eliminating
per-neighbor DMA traffic.

:class:`CompactTable` evaluates to results identical to
:class:`~repro.potential.spline.SplineTable` built from the same samples
(the test suite asserts agreement to floating-point roundoff).
"""

from __future__ import annotations

import numpy as np

from repro.potential.spline import SplineTable


class CompactTable:
    """Sampled-value interpolation table with on-the-fly reconstruction.

    Parameters
    ----------
    samples:
        Function values at the ``n + 1`` uniform knots over ``[0, xmax]``.
    xmax:
        Upper end of the tabulated domain.
    name:
        Optional label.
    """

    layout = "compacted"

    def __init__(self, samples: np.ndarray, xmax: float, name: str = "") -> None:
        samples = np.asarray(samples, dtype=float)
        if samples.ndim != 1:
            raise ValueError("samples must be one-dimensional")
        if len(samples) < 5:
            raise ValueError("need at least 5 samples")
        if xmax <= 0:
            raise ValueError(f"xmax must be positive, got {xmax}")
        self.samples = samples
        self.n = len(samples) - 1
        self.xmax = float(xmax)
        self.dx = self.xmax / self.n
        self.name = name

    @classmethod
    def from_function(
        cls, func, xmax: float, n: int = 5000, name: str = ""
    ) -> "CompactTable":
        """Tabulate ``func`` at ``n + 1`` uniform knots over ``[0, xmax]``."""
        x = np.linspace(0.0, xmax, n + 1)
        return cls(func(x), xmax, name=name)

    @classmethod
    def from_spline(cls, table: SplineTable) -> "CompactTable":
        """Compact an existing traditional table (drop the coefficients)."""
        return cls(table.samples.copy(), table.xmax, name=table.name)

    def to_spline(self) -> SplineTable:
        """Expand back to the traditional layout."""
        return SplineTable(self.samples.copy(), self.xmax, name=self.name)

    @property
    def nbytes(self) -> int:
        """Memory footprint of the table payload in bytes."""
        return self.samples.nbytes

    def _knot_derivative(self, m: np.ndarray) -> np.ndarray:
        """Five-point derivative at knots ``m``, with boundary fallbacks.

        Vectorized equivalent of
        :func:`repro.potential.spline.knot_derivatives` evaluated only at
        the requested knots — this is the "interpolation formula" a slave
        core applies to its resident samples.
        """
        s = self.samples
        n = self.n
        m = np.asarray(m)
        mc = np.clip(m, 2, n - 2)
        five_point = (s[mc - 2] - s[mc + 2] + 8.0 * (s[mc + 1] - s[mc - 1])) / 12.0
        d = five_point
        d = np.where(m == 0, s[1] - s[0], d)
        d = np.where(m == 1, 0.5 * (s[2] - s[0]), d)
        d = np.where(m == n - 1, 0.5 * (s[n] - s[n - 2]), d)
        d = np.where(m == n, s[n] - s[n - 1], d)
        return d

    def _locate(self, x):
        x = np.asarray(x, dtype=float)
        scaled = x / self.dx
        m = np.clip(scaled.astype(int), 0, self.n - 1)
        p = np.clip(scaled - m, 0.0, 1.0)
        return m, p

    def _segment(self, m):
        """On-the-fly cubic coefficients (c3, c4, c5, c6) of segments ``m``."""
        s = self.samples
        d0 = self._knot_derivative(m)
        d1 = self._knot_derivative(m + 1)
        df = s[m + 1] - s[m]
        c6 = s[m]
        c5 = d0
        c4 = 3.0 * df - 2.0 * d0 - d1
        c3 = d0 + d1 - 2.0 * df
        return c3, c4, c5, c6

    def __call__(self, x):
        """Interpolated value(s) at ``x`` (clamped to the table domain)."""
        m, p = self._locate(x)
        c3, c4, c5, c6 = self._segment(m)
        return ((c3 * p + c4) * p + c5) * p + c6

    def derivative(self, x):
        """Interpolated derivative(s) at ``x``."""
        m, p = self._locate(x)
        c3, c4, c5, _c6 = self._segment(m)
        return ((3.0 * c3 * p + 2.0 * c4) * p + c5) / self.dx

    def value_and_derivative(self, x):
        """Both value and derivative with a single reconstruction."""
        m, p = self._locate(x)
        c3, c4, c5, c6 = self._segment(m)
        value = ((c3 * p + c4) * p + c5) * p + c6
        deriv = ((3.0 * c3 * p + 2.0 * c4) * p + c5) / self.dx
        return value, deriv

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CompactTable(name={self.name!r}, n={self.n}, xmax={self.xmax}, "
            f"nbytes={self.nbytes})"
        )

