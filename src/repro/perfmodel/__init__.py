"""Analytical scaling models for the paper's large-scale figures.

The paper's scaling results (Figs 10, 11, 14, 15, 16) were measured on up
to 6,656,000 Sunway cores; a Python reproduction cannot run them.  Per
DESIGN.md, we regenerate their *shape* from first-principles arithmetic:

    T(P) = compute(workload / P) + network(boundary, P) + sync(P)

with the MD compute cost measured from this repository's blocked CPE
kernel, the traffic counted from two small executed runs of the parallel
engines (ghost width, bytes per ghost row and exchanges per MD step;
bytes per event and exchanges per on-demand KMC cycle — see
:func:`~repro.perfmodel.calibrate.executed_traffic`), 26 messages per
exchange, and the one TaihuLight network price list
(:mod:`repro.perfmodel.machine`), which also prices the executed traffic
counts of Figure 13.  The models make the same qualitative predictions
the paper measures: strong-scaling decay to ~47% at 64x for MD, the KMC
L2 super-linear window, flat compute/growing communication in weak
scaling, and a coupled efficiency that declines to ~61% at 6.24M cores
(the paper's 75.7%).

Importing the package loads nothing: it exports no names; import from
the defining submodule.
"""
