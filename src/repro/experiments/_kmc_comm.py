"""Shared driver of the Figures 12-13 communication experiments.

Runs the *same* parallel AKMC workload under the traditional and
on-demand schemes and collects the exact traffic counts of both; the
communication time is those counts priced by the TaihuLight network
(:meth:`~repro.perfmodel.machine.ScalingNetwork.traffic_time`).  Scaled
down from the paper's 1.6e7 sites / 16-1024 masters to what an
in-process runtime executes in seconds; the vacancy concentration — the
variable the on-demand advantage rides on — is kept realistically low.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.kmc.akmc import ParallelAKMC, place_random_vacancies
from repro.kmc.events import KMCModel, RateParameters
from repro.lattice.bcc import BCCLattice
from repro.perfmodel.machine import TAIHULIGHT
from repro.potential.fe import make_fe_potential

#: Default scaled-down rank counts (paper: 16..1024 master cores).
DEFAULT_RANKS = (8, 27)

#: Default lattice cells per axis per rank-grid cell (subdomain >= 4 for
#: conflict-free sectoring at the KMC ghost width of 2).
CELLS_PER_RANK_AXIS = 4


@lru_cache(maxsize=8)
def _run_pair(
    ranks: int,
    cycles: int,
    vacancies: int,
    seed: int,
    cells_per_axis: int,
) -> tuple[dict, dict]:
    """(traditional stats, ondemand stats) for one configuration."""
    grid_side = round(ranks ** (1.0 / 3.0))
    if grid_side**3 != ranks:
        raise ValueError(f"ranks must be a cube for this experiment, got {ranks}")
    cells = grid_side * cells_per_axis
    lattice = BCCLattice(cells, cells, cells)
    potential = make_fe_potential(n=1000)
    params = RateParameters()
    model = KMCModel(lattice, potential, params)
    occ0 = place_random_vacancies(
        model, vacancies, np.random.default_rng(seed)
    )
    out = []
    results = {}
    for scheme in ("traditional", "ondemand"):
        engine = ParallelAKMC(
            lattice,
            potential,
            params,
            grid=(grid_side, grid_side, grid_side),
            scheme=scheme,
            seed=seed,
        )
        result = engine.run(occ0, max_cycles=cycles)
        stats = dict(result.comm_stats)
        stats["comm_time"] = TAIHULIGHT.network.traffic_time(stats)
        stats["events"] = result.events
        stats["nsites"] = lattice.nsites
        out.append(stats)
        results[scheme] = result
    # The schemes must have simulated the *same* trajectory, or the
    # comparison is meaningless.
    if not np.array_equal(
        results["traditional"].occupancy, results["ondemand"].occupancy
    ):
        raise AssertionError(
            "traditional and on-demand schemes diverged; the communication "
            "comparison would be invalid"
        )
    return tuple(out)


def run_comm_experiment(
    ranks_list: tuple[int, ...] = DEFAULT_RANKS,
    cycles: int = 8,
    vacancy_concentration: float = 2e-3,
    seed: int = 2018,
    cells_per_axis: int = CELLS_PER_RANK_AXIS,
) -> list[dict]:
    """Rows of {ranks, scheme -> volume/time/messages} comparisons."""
    rows = []
    for ranks in ranks_list:
        grid_side = round(ranks ** (1.0 / 3.0))
        cells = grid_side * cells_per_axis
        nsites = 2 * cells**3
        vacancies = max(4, int(nsites * vacancy_concentration))
        trad, ond = _run_pair(ranks, cycles, vacancies, seed, cells_per_axis)
        rows.append(
            {
                "ranks": ranks,
                "nsites": nsites,
                "vacancies": vacancies,
                "events": trad["events"],
                "traditional_bytes": trad["total_sent_bytes"],
                "ondemand_bytes": ond["total_sent_bytes"],
                "traditional_messages": trad["total_messages"],
                "ondemand_messages": ond["total_messages"],
                "traditional_time": trad["comm_time"],
                "ondemand_time": ond["comm_time"],
                "volume_ratio": (
                    ond["total_sent_bytes"] / trad["total_sent_bytes"]
                    if trad["total_sent_bytes"]
                    else float("nan")
                ),
                "time_speedup": (
                    trad["comm_time"] / ond["comm_time"]
                    if ond["comm_time"]
                    else float("nan")
                ),
            }
        )
    return rows
