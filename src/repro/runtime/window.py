"""One-sided communication windows (MPI-3 RMA style).

§2.2.1: "we can use MPI one-sided communication interfaces, by which only
one side is involved in the communication, to eliminate these zero-size
messages. Firstly, each process opens a globally-shared window on the
subdomain. Secondly, each process puts the updates in the ghost sites to
its neighbor processes. Thirdly, a global synchronization is carried out
to guarantee the completion of the communications."

The :class:`Window` here follows that protocol exactly: ``put`` deposits a
payload at a target rank with no action required from the target, and
``fence`` (the global synchronization) completes all outstanding puts and
hands each rank whatever was put into its window during the epoch.  It
is the one window class of every backend: a put is an envelope under the
window's reserved tag in the target's ordinary mailbox, sent and counted
like a user send by the communicator, and the fence is
:meth:`repro.runtime.simmpi.RankComm._fence`.
"""

from __future__ import annotations

from typing import Any


class Window:
    """One rank's handle on a collectively-created RMA window."""

    def __init__(self, comm, tag: int) -> None:
        self.comm = comm
        self._tag = tag
        #: Logical puts issued this epoch, by target rank; the fence
        #: tells each target how many to drain.
        self._epoch_counts = [0] * comm.size

    def put(self, target: int, payload) -> None:
        """Deposit ``payload`` in ``target``'s window; target not involved.

        Completion is only guaranteed after the next :meth:`fence`.
        A fault plan on the world may delay the put at the origin (the
        DMA analogue of a congested network engine); the target still
        drains each put exactly once.
        """
        if not 0 <= target < self.comm.size:
            raise ValueError(f"target rank {target} out of range")
        self._epoch_counts[target] += 1
        self.comm._deliver("put", target, self._tag, payload)

    def fence(self) -> list[tuple[int, Any]]:
        """Synchronize the epoch; return ``(origin, payload)`` puts received.

        Entries come back in origin-rank order, FIFO per origin (origins
        address disjoint site sets in every exchange scheme, so ordering
        across origins is immaterial; rank order makes it deterministic
        anyway).
        """
        counts = self._epoch_counts
        self._epoch_counts = [0] * self.comm.size
        return self.comm._fence(self._tag, counts)
