"""Calibration of the scaling-model inputs from executable components.

Two kinds of input are taken from this repository's own code, not typed
in:

* the MD per-atom step cost, from one run of the blocked CPE kernel (the
  same cost model Figure 9 uses) — :func:`calibrate_from_kernels`;
* the traffic the models price, from two small executed 8-rank runs —
  :func:`executed_traffic`: a ``ParallelDamageMD`` without a PKA and an
  on-demand ``ParallelAKMC``, counted exactly by the runtime.  When the
  engines change what they send (a shorter cutoff narrows the ghost
  shell, a leaner wire format drops bytes), the modeled communication of
  Figures 9-16 moves with them.

Every other field of :class:`CalibratedCosts` is a default whose source
its attribute docs give.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from repro.kmc.akmc import ParallelAKMC, place_random_vacancies
from repro.kmc.events import KMCModel, RateParameters
from repro.lattice.bcc import BCCLattice
from repro.md.ghost import GhostExchanger
from repro.md.neighbors.lattice_list import LatticeNeighborList
from repro.md.parallel_damage import ParallelDamageMD
from repro.md.state import AtomState
from repro.potential.fe import make_fe_potential
from repro.sunway.arch import SunwayArch
from repro.sunway.kernel import STRATEGY_LADDER, BlockedEAMKernel


@dataclass(frozen=True)
class CalibratedCosts:
    """Per-unit compute costs feeding the scaling models.

    Attributes
    ----------
    md_atom_step_time:
        Seconds per atom per MD step on one CG (64 CPEs working), under
        the fully optimized kernel.  Measured: :func:`calibrate_from_kernels`.
    kmc_event_time:
        Seconds to compute the rates of one vacancy and service one event
        on an MPE, *outside* the L2-resident regime.  Fitted so Fig 14
        lands in the paper's band.
    kmc_l2_speedup:
        Factor by which L2 residence accelerates event service ("the
        benefit of L2 cache on the master cores").  Fitted so Fig 14's
        super-linear bump lands in the paper's band.
    kmc_vacancy_record_bytes:
        Active working-set bytes per vacancy (site neighborhood, event
        list, rate cache) — decides when the dataset fits the 256 KB L2.
        Fitted so Fig 14's L2 transition falls in the paper's 3,000 to
        12,000-core window.
    kmc_site_scan_time:
        Per-site bookkeeping cost of a cycle sweep on an MPE.  Fitted so
        Figs 14-15 land in the paper's band.
    """

    md_atom_step_time: float
    kmc_event_time: float = 5.0e-5
    kmc_l2_speedup: float = 1.6
    kmc_vacancy_record_bytes: float = 2048.0
    kmc_site_scan_time: float = 1.0e-9


class Traffic(NamedTuple):
    """What the executed engines send, per unit of work, on one rank."""

    #: MD bytes per sent ghost row per step (both exchange phases).
    md_bytes_per_row: float
    #: MD exchanges per step: one message per neighbour rank each.
    md_exchanges_per_step: float
    #: The MD engine's ghost shell width in cells.
    md_ghost_width: int
    #: On-demand KMC bytes per executed event.
    kmc_bytes_per_event: float
    #: On-demand KMC exchanges per cycle: one message per neighbour each.
    kmc_exchanges_per_cycle: float


@lru_cache(maxsize=1)
def executed_traffic() -> Traffic:
    """Count the models' traffic inputs from two small 8-rank runs.

    MD: the sends of a 2-step run minus those of a 1-step run are one
    step's (the run-away migration round fires at step 0 only), divided
    by the rows of the engine's exchange plans and by its neighbours.
    KMC: the on-demand scheme's bytes over its events, and a rank's
    messages over its cycles and neighbours.
    """
    potential = make_fe_potential(n=1000)
    md = ParallelDamageMD(BCCLattice(12, 12, 12), potential, nranks=8)
    one, two = (md.run(nsteps).comm_stats for nsteps in (1, 2))
    sites, _rows = md.decomp.subdomain(0).site_set(md.lattice, md.width)
    plans = GhostExchanger(md.decomp, 0, sites.ranks, md.width).plans
    rows = sum(len(plan.send_rows) for plan in plans)

    lattice = BCCLattice(8, 8, 8)
    params = RateParameters()
    occupancy = place_random_vacancies(
        KMCModel(lattice, potential, params), 8, np.random.default_rng(0)
    )
    kmc = ParallelAKMC(lattice, potential, params, nranks=8, scheme="ondemand")
    result = kmc.run(occupancy, max_cycles=4)
    stats = result.comm_stats
    return Traffic(
        md_bytes_per_row=(two["sent_bytes"][0] - one["sent_bytes"][0]) / rows,
        md_exchanges_per_step=(
            two["sent_messages"][0] - one["sent_messages"][0]
        ) / len(plans),
        md_ghost_width=md.width,
        kmc_bytes_per_event=stats["total_sent_bytes"] / result.events,
        kmc_exchanges_per_cycle=(
            stats["sent_messages"][0]
            / (result.cycles * len(kmc.decomp.neighbors(0)))
        ),
    )


@lru_cache(maxsize=4)
def _kernel_atom_time(cells: int, table_points: int) -> float:
    """Per-atom-per-step cost of the optimized kernel on one CG."""
    lattice = BCCLattice(cells, cells, cells)
    potential = make_fe_potential(n=min(table_points, 2000))
    state = AtomState.perfect(lattice)
    rng = np.random.default_rng(0)
    state.x = state.x + rng.normal(0.0, 0.05, state.x.shape)
    nblist = LatticeNeighborList(lattice, potential.cutoff)
    strategy = STRATEGY_LADDER[-1]  # compacted + reuse + double buffer
    kernel = BlockedEAMKernel(
        SunwayArch(), potential, strategy, table_points=table_points
    )
    report = kernel.run_step(state, nblist)
    return report.total_time / lattice.nsites


def calibrate_from_kernels(
    cells: int = 16, table_points: int = 5000
) -> CalibratedCosts:
    """Build the cost set, measuring what the executable models provide."""
    return CalibratedCosts(md_atom_step_time=_kernel_atom_time(cells, table_points))
