"""The one three-scheme comparison and the Figures 12-13 driver on it.

:class:`SchemeComparison` runs the *same* parallel AKMC workload under
each communication scheme and checks the trajectories agree; the
``kmc-schemes`` CLI command and ``examples/parallel_kmc_schemes.py``
print it.  The figures run the traditional and on-demand schemes and
collect the exact traffic counts of both; the
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


class SchemeComparison:
    """One parallel AKMC workload, with an engine per communication scheme.

    The workload is ``vacancies`` random vacancies on a ``cells``-cubed
    lattice.  Construction builds the lattice, the occupancy and every
    engine, so arguments that cannot build them raise ``ValueError``
    before any world starts; :meth:`run` runs them.
    """

    def __init__(
        self,
        cells: int,
        vacancies: int,
        nranks: int,
        seed: int,
        schemes: tuple[str, ...] = ("traditional", "ondemand", "onesided"),
        backend: str | None = None,
        workers: int | None = None,
    ) -> None:
        lattice = BCCLattice(cells, cells, cells)
        potential = make_fe_potential(n=1000)
        params = RateParameters()
        self.occupancy = place_random_vacancies(
            KMCModel(lattice, potential, params),
            vacancies,
            np.random.default_rng(seed),
        )
        self.engines = {
            scheme: ParallelAKMC(
                lattice,
                potential,
                params,
                nranks=nranks,
                scheme=scheme,
                seed=seed,
                backend=backend,
                workers=workers,
            )
            for scheme in schemes
        }

    def run(self, cycles: int) -> dict:
        """``{scheme: KMCResult}`` after ``cycles`` cycles of each scheme.

        Raises ``AssertionError`` when the schemes simulate different
        trajectories: their traffic comparison would then be meaningless.
        """
        results = {
            scheme: engine.run(self.occupancy, max_cycles=cycles)
            for scheme, engine in self.engines.items()
        }
        first, *rest = results.values()
        if not all(np.array_equal(r.occupancy, first.occupancy) for r in rest):
            raise AssertionError(f"schemes {', '.join(results)} diverged")
        return results


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
    results = SchemeComparison(
        grid_side * cells_per_axis,
        vacancies,
        ranks,
        seed,
        schemes=("traditional", "ondemand"),
    ).run(cycles)
    out = []
    for result in results.values():
        stats = dict(result.comm_stats)
        stats["comm_time"] = TAIHULIGHT.network.traffic_time(stats)
        stats["events"] = result.events
        out.append(stats)
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
