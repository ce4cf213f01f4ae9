"""Deterministic RNG streams for KMC.

Correctness of the communication-scheme equivalence tests (traditional vs
on-demand vs one-sided must produce *identical* trajectories) requires
that randomness be a pure function of (seed, rank, cycle, sector) — never
of message arrival order.  ``numpy``'s ``SeedSequence`` spawn keys give
exactly that: independent, reproducible streams per logical position in
the simulation schedule.
"""

from __future__ import annotations

import numpy as np


def cycle_seed(seed: int, rank: int, cycle: int, sector: int) -> np.random.SeedSequence:
    """The seed sequence of one (rank, cycle, sector) work unit."""
    if rank < 0 or cycle < 0 or sector < 0:
        raise ValueError("rank, cycle and sector must be non-negative")
    return np.random.SeedSequence(entropy=seed, spawn_key=(rank, cycle, sector))


def sector_rng(seed: int, rank: int, cycle: int, sector: int) -> np.random.Generator:
    """Generator for one sector's event selection."""
    return np.random.default_rng(cycle_seed(seed, rank, cycle, sector))
