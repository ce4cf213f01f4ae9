"""KMC strong/weak scaling model (Figures 14 and 15).

KMC runs on master cores only ("only master cores are used").  Per cycle
and per rank:

    T = sites_per_rank * t_scan * l2(ws)       (sweep bookkeeping)
      + vac_per_rank * t_event * l2(ws)        (rate computation + events)
      + 8 * (26 * alpha + strip_bytes * beta)  (per-sector exchanges)
      + collective(P)                          (time synchronization)

``l2(ws)`` is the L2-residence factor: when the active working set
(vacancy records) fits the MPE's 256 KB L2, event service accelerates by
``kmc_l2_speedup`` — the mechanism behind the paper's super-linear window
("the benefit of L2 cache on the master cores, which can store the entire
dataset").  Weak scaling is dominated by the growth of the collective
time-synchronization cost ("the increased communication time is due to
the collective operations used for time synchronization").
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.perfmodel.calibrate import CalibratedCosts
from repro.perfmodel.machine import EXCHANGE_MESSAGES, TAIHULIGHT, MachineSpec

#: Bytes one rank ships per KMC event in a sector exchange of the
#: on-demand scheme — Fig 14/15 are run with the paper's own (on-demand)
#: code, so strips carry only event-affected sites.  A default estimate,
#: not a measurement: the executed on-demand scheme of this repository
#: sends 168 bytes per event (Figures 12-13 runs at 8 and 27 ranks).
ONDEMAND_BYTES_PER_EVENT = 24.0


@dataclass
class KMCScalingModel:
    """Evaluates the KMC cycle-time model over machine scales."""

    costs: CalibratedCosts
    machine: MachineSpec = field(default_factory=lambda: TAIHULIGHT)
    vacancy_concentration: float = 4.5e-5
    sectors: int = 8

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
        # Events per rank per sector bound the on-demand traffic.
        strip_bytes = max(vac_per, 1.0) * ONDEMAND_BYTES_PER_EVENT
        comm = self.sectors * net.exchange(EXCHANGE_MESSAGES, strip_bytes, cores)
        sync = net.collective(cores)
        total = compute + comm + sync
        return {
            "cores": cores,
            "sites_per_core": sites_per,
            "vacancies_per_core": vac_per,
            "l2_resident": l2 == 1.0,
            "compute": compute,
            "comm": comm + sync,
            "sync": sync,
            "total": total,
        }

    def strong_scaling(self, total_sites: float, cores_list: list[int]) -> list[dict]:
        """Speedup/efficiency rows against the first core count (Fig 14)."""
        if not cores_list:
            raise ValueError("cores_list must not be empty")
        base = self.cycle_time(total_sites, cores_list[0])
        rows = []
        for cores in cores_list:
            r = self.cycle_time(total_sites, cores)
            ideal = cores / cores_list[0]
            speedup = base["total"] / r["total"]
            rows.append(
                {
                    **r,
                    "ideal_speedup": ideal,
                    "speedup": speedup,
                    "efficiency": speedup / ideal,
                }
            )
        return rows

    def weak_scaling(
        self, sites_per_core: float, cores_list: list[int]
    ) -> list[dict]:
        """Compute/comm breakdown at fixed per-core load (Fig 15)."""
        if not cores_list:
            raise ValueError("cores_list must not be empty")
        rows = []
        base_total = None
        for cores in cores_list:
            r = self.cycle_time(sites_per_core * cores, cores)
            if base_total is None:
                base_total = r["total"]
            rows.append({**r, "efficiency": base_total / r["total"]})
        return rows


def paper_kmc_strong_cores() -> list[int]:
    """Fig 14 x-axis: 1,500 .. 48,000 master cores."""
    return [1500 * (2**k) for k in range(6)]


def paper_kmc_weak_cores() -> list[int]:
    """Fig 15 x-axis: 1,600 .. 102,400 master cores."""
    return [1600 * (2**k) for k in range(7)]
