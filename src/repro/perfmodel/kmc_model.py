"""KMC strong/weak scaling model (Figures 14 and 15).

KMC runs on master cores only ("only master cores are used").  Per cycle
and per rank:

    T = sites_per_rank * t_scan * l2(ws)       (sweep bookkeeping)
      + vac_per_rank * t_event * l2(ws)        (rate computation + events)
      + 26 * X * alpha + vac_per_rank * B * beta(P)  (sector exchanges)
      + collective(P)                          (time synchronization)

The exchanges per cycle ``X`` (one per sector) and the bytes per event
``B`` are counted from an executed on-demand ``ParallelAKMC`` run
(:func:`~repro.perfmodel.calibrate.executed_traffic`) — Figs 14/15 are
run with the paper's own (on-demand) code, so strips carry only
event-affected sites.  ``l2(ws)`` is the L2-residence factor: when the
active working set (vacancy records) fits the MPE's 256 KB L2, event
service accelerates by ``kmc_l2_speedup`` — the mechanism behind the
paper's super-linear window ("the benefit of L2 cache on the master
cores, which can store the entire dataset").  Weak scaling is dominated
by the growth of the collective time-synchronization cost ("the
increased communication time is due to the collective operations used
for time synchronization").
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.perfmodel.calibrate import CalibratedCosts, executed_traffic
from repro.perfmodel.machine import EXCHANGE_MESSAGES, TAIHULIGHT, MachineSpec
from repro.perfmodel.machine import strong_scaling_rows, weak_scaling_rows


@dataclass
class KMCScalingModel:
    """Evaluates the KMC cycle-time model over machine scales."""

    costs: CalibratedCosts
    machine: MachineSpec = field(default_factory=lambda: TAIHULIGHT)
    vacancy_concentration: float = 4.5e-5

    def _l2_factor(self, vacancies_per_rank: float) -> float:
        """Penalty multiplier when the active set spills out of L2."""
        ws = vacancies_per_rank * self.costs.kmc_vacancy_record_bytes
        if ws <= self.machine.arch.mpe_l2_bytes:
            return 1.0
        return self.costs.kmc_l2_speedup

    def cycle_time(self, total_sites: float, cores: int) -> dict:
        """Modeled per-cycle time breakdown at a master-core count."""
        if cores < 1:
            raise ValueError(f"cores must be >= 1, got {cores}")
        sites_per = total_sites / cores
        vac_per = sites_per * self.vacancy_concentration
        l2 = self._l2_factor(vac_per)
        compute = (
            sites_per * self.costs.kmc_site_scan_time
            + vac_per * self.costs.kmc_event_time
        ) * l2
        net = self.machine.network
        traffic = executed_traffic()
        # Events per rank per cycle bound the on-demand traffic.
        comm = net.exchange(
            EXCHANGE_MESSAGES * traffic.kmc_exchanges_per_cycle,
            max(vac_per, 1.0) * traffic.kmc_bytes_per_event,
            cores,
        )
        sync = net.collective(cores)
        return {
            "cores": cores,
            "sites_per_core": sites_per,
            "vacancies_per_core": vac_per,
            "l2_resident": l2 == 1.0,
            "compute": compute,
            "comm": comm + sync,
            "sync": sync,
            "total": compute + comm + sync,
        }

    def strong_scaling(self, total_sites: float, cores_list: list[int]) -> list[dict]:
        """Speedup/efficiency rows against the first core count (Fig 14)."""
        return strong_scaling_rows(
            lambda cores: self.cycle_time(total_sites, cores), cores_list
        )

    def weak_scaling(self, sites_per_core: float, cores_list: list[int]) -> list[dict]:
        """Compute/comm breakdown at fixed per-core load (Fig 15)."""
        return weak_scaling_rows(
            lambda cores: self.cycle_time(sites_per_core * cores, cores), cores_list
        )


def paper_kmc_strong_cores() -> list[int]:
    """Fig 14 x-axis: 1,500 .. 48,000 master cores."""
    return [1500 * (2**k) for k in range(6)]


def paper_kmc_weak_cores() -> list[int]:
    """Fig 15 x-axis: 1,600 .. 102,400 master cores."""
    return [1600 * (2**k) for k in range(7)]
