"""Exchange-scheme interface and the traditional two-phase ghost exchange.

"Before processing a sector, each process has to get partial ghost sites
(except those in the local subdomain) from the subdomains of its neighbor
processes ... After finishing the simulation of the current sector, each
process has to put the ghost sites back to its neighbor processes ...
This two-time communication pattern is widely used in the KMC software,
such as SPPARKS and KMCLib.  All the sites in the ghost region have to be
transferred regardless of whether all the sites are updated or not."
(§2.2.1, Figures 8b-8c)

Payloads are int32 site values — the per-site record a production lattice
KMC code ships.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from repro import observe as obs
from repro.kmc.sublattice import SectorSchedule

#: Tag bases of the exchange phases (sector index 0..7 is added).
TAG_GET = 1000
TAG_PUT = 2000
TAG_ONDEMAND = 3000


class ExchangeScheme(ABC):
    """Strategy object reconciling ghost sites around each sector.

    Subclasses mutate the shared occupancy array in place; the engine
    reports which rows its events modified via ``after_sector``.
    """

    name: str = "abstract"

    def __init__(self, comm, schedule: SectorSchedule, occ: np.ndarray) -> None:
        self.comm = comm
        self.schedule = schedule
        self.occ = occ

    @abstractmethod
    def before_sector(self, sector: int) -> None:
        """Bring the sector's ghost region up to date (if the scheme needs to)."""

    @abstractmethod
    def after_sector(self, sector: int, dirty_rows: np.ndarray) -> None:
        """Publish this sector's modifications to the neighbors."""


class TraditionalExchange(ExchangeScheme):
    """SPPARKS/KMCLib-style full-strip get + put around every sector."""

    name = "traditional"

    def __init__(self, comm, schedule: SectorSchedule, occ: np.ndarray) -> None:
        super().__init__(comm, schedule, occ)
        # The one reader of the strip sets: asking builds them, here
        # and once, so the on-demand schemes never pay for them.
        self.strips = schedule.sector_comm

    def before_sector(self, sector: int) -> None:
        """Get phase: refresh our sector's ghost strips from their owners."""
        with obs.phase("kmc.ghost_sync"):
            plans = self.strips[sector]
            for sc in plans:
                self.comm.send(
                    sc.neighbor,
                    TAG_GET + sector,
                    self.occ[sc.get_send_rows].astype(np.int32),
                )
            for sc in plans:
                _src, _tag, data = self.comm.recv(
                    source=sc.neighbor, tag=TAG_GET + sector
                )
                self.occ[sc.get_recv_rows] = data.astype(self.occ.dtype)

    def after_sector(self, sector: int, dirty_rows: np.ndarray) -> None:
        """Put phase: return (possibly modified) ghost strips to owners.

        The full strip travels "regardless of whether all the sites are
        updated or not" — that is the redundancy the on-demand strategy
        removes; ``dirty_rows`` is deliberately ignored here.
        """
        with obs.phase("kmc.ghost_sync"):
            plans = self.strips[sector]
            for sc in plans:
                self.comm.send(
                    sc.neighbor,
                    TAG_PUT + sector,
                    self.occ[sc.put_send_rows].astype(np.int32),
                )
            for sc in plans:
                _src, _tag, data = self.comm.recv(
                    source=sc.neighbor, tag=TAG_PUT + sector
                )
                self.occ[sc.put_recv_rows] = data.astype(self.occ.dtype)
