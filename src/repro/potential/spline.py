"""Cubic-spline interpolation tables (the LAMMPS/CoMD coefficient matrix).

A tabulated function on ``n`` uniform segments over ``[0, xmax]`` is stored
as an ``(n + 1) x 7`` coefficient matrix.  For a query ``x`` falling in
segment ``m`` with fractional position ``p = x/dx - m``:

    value      = ((C[m,3]*p + C[m,4])*p + C[m,5])*p + C[m,6]
    derivative = ( C[m,0]*p + C[m,1])*p + C[m,2]

Columns 3-6 are the cubic value coefficients and columns 0-2 the
pre-scaled derivative coefficients — exactly the "5000 x 7 2D array ...
columns 3-6 are the coefficients of a cubic function and the columns 0-2
are the coefficients of its derivative function" described in §2.1.2 and
Figure 5 of the paper.

The knot-derivative estimate used during construction is the five-point
formula the paper compacts against:

    C[m,5] = ( (S[m-2] - S[m+2]) + 8*(S[m+1] - S[m-1]) ) / 12

The paper's *compacted* table is a storage layout of this one table, not
a second one: column 6 holds the ``n + 1`` samples (~39 KB at n = 5000,
1/7 of the ~273 KB matrix), and row ``m`` depends on samples ``m-2 ..
m+3`` only, so a core holding the sample column rebuilds any segment from
six resident samples.  :mod:`repro.sunway.kernel` prices that layout.
"""

from __future__ import annotations

import numpy as np


#: Fewest samples a table takes: the five-point stencil of Figure 5.
MIN_SAMPLES = 5


def knot_derivatives(samples: np.ndarray) -> np.ndarray:
    """Per-knot derivative estimates (in units of the knot spacing).

    Interior knots use the five-point central difference of Figure 5;
    the first/last two knots fall back to lower-order one-sided and
    three-point formulas, matching the construction in LAMMPS ``pair_eam``.
    """
    s = np.asarray(samples, dtype=float)
    n = len(s)
    if n < MIN_SAMPLES:
        raise ValueError(
            f"need at least {MIN_SAMPLES} samples for spline tables, got {n}"
        )
    d = np.empty(n)
    d[0] = s[1] - s[0]
    d[1] = 0.5 * (s[2] - s[0])
    d[2:-2] = ((s[:-4] - s[4:]) + 8.0 * (s[3:-1] - s[1:-3])) / 12.0
    d[-2] = 0.5 * (s[-1] - s[-3])
    d[-1] = s[-1] - s[-2]
    return d


def segment_coefficients(samples: np.ndarray, dx: float) -> np.ndarray:
    """Build the full ``(n+1) x 7`` coefficient matrix from sampled values."""
    s = np.asarray(samples, dtype=float)
    d = knot_derivatives(s)
    n = len(s)
    coeff = np.zeros((n, 7))
    coeff[:, 6] = s
    coeff[:, 5] = d
    # Hermite cubic over [m, m+1] in fractional coordinates; the final knot
    # keeps a degenerate (constant-extrapolation) segment.
    df = s[1:] - s[:-1]
    coeff[:-1, 4] = 3.0 * df - 2.0 * d[:-1] - d[1:]
    coeff[:-1, 3] = d[:-1] + d[1:] - 2.0 * df
    # Pre-scaled derivative coefficients (d/dx, not d/dp).
    coeff[:, 2] = coeff[:, 5] / dx
    coeff[:, 1] = 2.0 * coeff[:, 4] / dx
    coeff[:, 0] = 3.0 * coeff[:, 3] / dx
    return coeff


class SplineTable:
    """A cubic-spline interpolation table.

    Parameters
    ----------
    samples:
        Function values at the ``n + 1`` uniformly spaced knots
        ``0, dx, 2*dx, ..., xmax``.
    xmax:
        Upper end of the tabulated domain.
    name:
        Optional label (e.g. ``"pair"``, ``"density"``, ``"embedding"``).
    """

    def __init__(self, samples: np.ndarray, xmax: float, name: str = "") -> None:
        samples = np.asarray(samples, dtype=float)
        if samples.ndim != 1:
            raise ValueError("samples must be one-dimensional")
        if xmax <= 0:
            raise ValueError(f"xmax must be positive, got {xmax}")
        self.n = len(samples) - 1
        self.xmax = float(xmax)
        self.dx = self.xmax / self.n
        self.name = name
        self.coeff = segment_coefficients(samples, self.dx)

    @classmethod
    def from_function(
        cls, func, xmax: float, n: int = 5000, name: str = ""
    ) -> "SplineTable":
        """Tabulate ``func`` at ``n + 1`` uniform knots over ``[0, xmax]``."""
        x = np.linspace(0.0, xmax, n + 1)
        return cls(func(x), xmax, name=name)

    @property
    def nbytes(self) -> int:
        """Memory footprint of the table payload in bytes."""
        return self.coeff.nbytes

    def _locate(self, x):
        x = np.asarray(x, dtype=float)
        scaled = x / self.dx
        m = np.clip(scaled.astype(int), 0, self.n - 1)
        p = np.clip(scaled - m, 0.0, 1.0)
        return m, p

    def __call__(self, x):
        """Interpolated value(s) at ``x`` (clamped to the table domain)."""
        m, p = self._locate(x)
        c = self.coeff[m]
        return ((c[..., 3] * p + c[..., 4]) * p + c[..., 5]) * p + c[..., 6]

    def derivative(self, x):
        """Interpolated derivative(s) at ``x``."""
        m, p = self._locate(x)
        c = self.coeff[m]
        return (c[..., 0] * p + c[..., 1]) * p + c[..., 2]

    def value_and_derivative(self, x):
        """Both value and derivative with a single table lookup."""
        m, p = self._locate(x)
        c = self.coeff[m]
        value = ((c[..., 3] * p + c[..., 4]) * p + c[..., 5]) * p + c[..., 6]
        deriv = (c[..., 0] * p + c[..., 1]) * p + c[..., 2]
        return value, deriv

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SplineTable(name={self.name!r}, n={self.n}, xmax={self.xmax}, "
            f"nbytes={self.nbytes})"
        )
