"""EAM potential substrate.

Implements the embedded-atom method (Equations 1-3 of the paper) on top of
cubic-spline interpolation tables in the paper's two storage layouts:

* :class:`~repro.potential.spline.SplineTable` — the *traditional* layout
  used by LAMMPS/CoMD: a ``(n+1) x 7`` coefficient matrix (~273 KB for
  n = 5000), columns 0-2 holding derivative coefficients and columns 3-6
  the cubic value coefficients.
* :class:`~repro.potential.compact.CompactTable` — the paper's *compacted*
  layout: only the ``n+1`` sampled values (~39 KB), with segment
  coefficients reconstructed on the fly via the five-point interpolation
  formula of Figure 5.

Both layouts evaluate to identical values, which the test suite asserts.

The package exports nothing: import from the defining submodule
(``from repro.potential.fe import make_fe_potential``).
"""
