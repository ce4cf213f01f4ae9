"""EAM potential substrate.

Implements the embedded-atom method (Equations 1-3 of the paper) on top of
one kind of interpolation table, :class:`~repro.potential.spline.SplineTable`:
the ``(n+1) x 7`` coefficient matrix used by LAMMPS/CoMD (~273 KB for
n = 5000), columns 0-2 holding derivative coefficients and columns 3-6 the
cubic value coefficients.  The paper's *compacted* layout (Figure 5) is
the same table stored as its sample column 6 (~39 KB), from which any
segment is rebuilt with the five-point formula; the Sunway kernel model
prices that storage choice and evaluates through the one table.

The package exports nothing: import from the defining submodule
(``from repro.potential.fe import make_fe_potential``).
"""
