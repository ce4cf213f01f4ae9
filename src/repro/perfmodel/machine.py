"""Machine constants of the scaling models, and their scaling loops.

:class:`ScalingNetwork` is the one Sunway network price list of the
repository: it prices the counted traffic of Figures 9-16 and the
executed traffic counts of Figure 13 alike.  It extends the postal model
with a *power-law* contention term: at full-machine scale the effective
per-byte cost of the TaihuLight interconnect degrades roughly as
``P^gamma`` (shared links, adaptive routing pressure) — the effect
behind the paper's "the communication time for larger number of cores is
a little higher, which is caused by the communication contention".

:data:`TAIHULIGHT` collects the system-level facts of §3 ("total 40,960
computing nodes", 4 CGs per node, 8 GB per CG, 1.45 GHz, 256 KB MPE L2).
:func:`strong_scaling_rows` and :func:`weak_scaling_rows` turn any
model's time at a core count into a figure's rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.sunway.arch import SunwayArch

#: Messages one rank sends per halo exchange: one to each face, edge and
#: corner neighbour of a 3-D block decomposition.  The executed on-demand
#: KMC sends exactly this many per sector at 27 ranks (3 x 3 x 3, so all
#: 26 neighbours are distinct), traditional twice as many.
EXCHANGE_MESSAGES = 26


@dataclass(frozen=True)
class ScalingNetwork:
    """Postal network model with power-law contention.

    Attributes
    ----------
    alpha:
        Per-message latency (s), and the per-hop cost of a
        synchronization collective.  Fitted so Figs 14-15 land in the
        paper's band.
    beta0:
        Per-byte cost (s) extrapolated to one rank; under the default
        ``gamma`` it is 2e-9 s (0.5 GB/s per rank) at 1,000 ranks.
        Fitted so Figs 10-11 land in the paper's band.
    gamma:
        Contention exponent: ``beta(P) = beta0 * P^gamma``.  Fitted so
        Fig 11 lands in the paper's 85% ("caused by the communication
        contention").
    sync_contention:
        Linear-in-depth inflation of collective hops at scale.  Fitted
        so Figs 14-15 land in the paper's band (Fig 15: "the collective
        operations used for time synchronization").
    """

    alpha: float = 1.0e-5
    beta0: float = 2.0e-9 * 1000**-0.3
    gamma: float = 0.3
    sync_contention: float = 1.5

    def beta(self, nranks: int) -> float:
        """Effective per-byte cost at ``nranks`` ranks."""
        if nranks < 1:
            raise ValueError(f"nranks must be >= 1, got {nranks}")
        return self.beta0 * nranks**self.gamma

    def exchange(self, messages: int, nbytes: float, nranks: int) -> float:
        """Time of one halo-exchange phase on the critical rank."""
        return messages * self.alpha + nbytes * self.beta(nranks)

    def collective(self, nranks: int) -> float:
        """Time of one global synchronization (allreduce/barrier)."""
        if nranks <= 1:
            return 0.0
        depth = math.log2(nranks)
        return self.alpha * depth * (1.0 + self.sync_contention * depth)

    def traffic_time(self, snapshot: dict) -> float:
        """Communication time of the critical rank of executed traffic.

        ``snapshot`` is a :meth:`~repro.runtime.stats.TrafficStats.snapshot`.
        Each rank's sends are priced as one exchange of its exact message
        and byte counts — the postal model is linear, so this is the sum
        of ``alpha + nbytes * beta(P)`` over its messages — and every
        rank takes part in every collective of the world.
        """
        nranks = snapshot["nranks"]
        sends = max(
            self.exchange(msgs, nbytes, nranks)
            for msgs, nbytes in zip(
                snapshot["sent_messages"], snapshot["sent_bytes"], strict=True
            )
        )
        collectives = snapshot["total_collectives"] // nranks
        return sends + collectives * self.collective(nranks)


@dataclass(frozen=True)
class MachineSpec:
    """System-level facts of the Sunway TaihuLight."""

    arch: SunwayArch = SunwayArch()
    nodes: int = 40960
    cgs_per_node: int = 4
    network: ScalingNetwork = ScalingNetwork()

    @property
    def total_cgs(self) -> int:
        return self.nodes * self.cgs_per_node

    @property
    def total_cores(self) -> int:
        """Master + slave cores of the full machine (10,649,600)."""
        return self.total_cgs * self.arch.cores_per_cg

    def cgs_from_cores(self, cores: int) -> int:
        """Core groups represented by a paper-style master+slave core count."""
        cgs, rem = divmod(cores, self.arch.cores_per_cg)
        if rem or cgs < 1:
            raise ValueError(
                f"{cores} cores is not a whole number of {self.arch.cores_per_cg}"
                "-core groups"
            )
        return cgs


#: The evaluation platform of §3.
TAIHULIGHT = MachineSpec()


def weak_scaling_rows(time_at, cores_list: list[int]) -> list[dict]:
    """Efficiency rows of ``time_at(cores)`` against the first core count."""
    if not cores_list:
        raise ValueError("cores_list must not be empty")
    rows = [time_at(cores) for cores in cores_list]
    return [{**row, "efficiency": rows[0]["total"] / row["total"]} for row in rows]


def strong_scaling_rows(time_at, cores_list: list[int]) -> list[dict]:
    """Speedup/efficiency rows of ``time_at(cores)`` at a fixed total load.

    The speedup is the first row's time over each row's: the weak rows'
    efficiency.
    """
    rows = weak_scaling_rows(time_at, cores_list)
    for cores, row in zip(cores_list, rows, strict=True):
        ideal, speedup = cores / cores_list[0], row["efficiency"]
        row.update(ideal_speedup=ideal, speedup=speedup, efficiency=speedup / ideal)
    return rows
