"""Alpha-beta(-contention) network cost model.

An in-process threaded runtime cannot produce meaningful wall-clock
communication times, so the runtime converts *measured* message counts and
byte volumes into modeled time with the standard postal model:

    t(message of s bytes) = alpha + s * beta

optionally inflated by a contention factor that grows with the number of
communicating ranks — the effect the paper observes at scale ("the
communication time for larger number of cores is a little higher, which is
caused by the communication contention").

Collectives use the usual log2(P) tree depth.
"""

from __future__ import annotations

from dataclasses import dataclass
import math


@dataclass(frozen=True)
class NetworkModel:
    """Postal-model network parameters.

    Attributes
    ----------
    alpha:
        Per-message latency in seconds.  Default is in the range of a
        modern HPC interconnect (~1.5 microseconds).
    beta:
        Per-byte transfer time in seconds (default ~ 8 GB/s effective
        point-to-point bandwidth).
    contention_coeff:
        Strength of the contention term: effective per-byte cost is
        ``beta * (1 + contention_coeff * log2(nranks))``.  Zero disables
        contention.
    """

    alpha: float = 1.5e-6
    beta: float = 1.25e-10
    contention_coeff: float = 0.0

    def effective_beta(self, nranks: int = 1) -> float:
        """Per-byte cost including the contention inflation."""
        if nranks <= 1:
            return self.beta
        return self.beta * (1.0 + self.contention_coeff * math.log2(nranks))

    def point_to_point(self, nbytes: int, nranks: int = 1) -> float:
        """Modeled time of one point-to-point message of ``nbytes``."""
        if nbytes < 0:
            raise ValueError(f"nbytes must be non-negative, got {nbytes}")
        return self.alpha + nbytes * self.effective_beta(nranks)

    def collective(self, nranks: int, nbytes: int = 8) -> float:
        """Modeled time of a tree-based collective over ``nranks`` ranks.

        ``nbytes`` is the per-hop payload (8 bytes for an allreduce of one
        double).
        """
        if nranks < 1:
            raise ValueError(f"nranks must be >= 1, got {nranks}")
        depth = max(1, math.ceil(math.log2(nranks))) if nranks > 1 else 0
        return depth * (self.alpha + nbytes * self.effective_beta(nranks))


#: Parameters loosely calibrated to the Sunway TaihuLight interconnect
#: (MPI latency a few microseconds, ~5 GB/s effective node bandwidth,
#: visible contention at scale).
SUNWAY_NETWORK = NetworkModel(alpha=3.0e-6, beta=2.0e-10, contention_coeff=0.02)
