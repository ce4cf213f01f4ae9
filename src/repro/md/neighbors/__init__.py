"""Neighbor-finding structures for short-range MD.

The paper's contribution (§2.1.1) plus the two mainstream baselines it
compares against:

========================  =========================  =======================
structure                 used by                    cost profile
========================  =========================  =======================
lattice neighbor list     this paper (Crystal MD)    no per-atom neighbor
                                                     storage; static index
                                                     arithmetic; linked
                                                     lists for run-aways
Verlet neighbor list      LAMMPS                     O(neighbors) memory per
                                                     atom; rebuilt when
                                                     displacements exceed
                                                     half the skin
linked cells              IMD / ls1-MarDyn / CoMD    cell occupancy rebuilt
                                                     every step
========================  =========================  =======================

All three produce identical interaction pair sets on identical
configurations (asserted by the test suite).

The package exports nothing: the engines import
:mod:`~repro.md.neighbors.lattice_list` alone, and the two baselines and
the :mod:`~repro.md.neighbors.memory` footprint model are loaded only by
the comparison that names them.
"""
