"""The on-demand communication strategy (paper §2.2.1, Figure 8d).

"When a vacancy transition (an event) occurs, it only affects the
potential of atoms within the cutoff radius and the other sites keep
steady. To keep the sites in the subdomain and the ghost sites always in
the latest state, we only have to transfer the affected sites to the
corresponding neighbor processes after the simulation of a sector within
a time step is finished."

Two-sided variant: the receiver cannot know message sizes in advance
("the source, the tag, and the size of the messages are determined at
runtime"), so it probes first — and every neighbor pair exchanges a
message each sector even when empty ("the sender has to send a zero-size
message to the receiver even there is no update in the ghost sites").

Payloads carry (global site rank: int64, site value: int32) per affected
site; with the very low vacancy concentrations of the paper's workloads
this is a tiny fraction of the full-strip traffic.
"""

from __future__ import annotations

import numpy as np

from repro import observe as obs
from repro.kmc.comm import ExchangeScheme, TAG_ONDEMAND
from repro.lattice.bcc import SiteSet


def pack_updates(sites: np.ndarray, occ: np.ndarray, rows: np.ndarray):
    """Wire format of an on-demand update: (ranks, values) arrays."""
    return (
        sites[rows].astype(np.int64),
        occ[rows].astype(np.int32),
    )


def apply_updates(sites: np.ndarray, occ: np.ndarray, ranks, values) -> int:
    """Apply received (ranks, values) to the local occupancy; returns count.

    Every received rank must be inside the local site set — senders only
    address sites in the receiver's interest region.
    """
    ranks = np.asarray(ranks, dtype=np.int64)
    if len(ranks) == 0:
        return 0
    rows = SiteSet(None, sites).rows_of(ranks)
    occ[rows] = np.asarray(values).astype(occ.dtype)
    return len(rows)


class OnDemandExchange(ExchangeScheme):
    """Dirty-site exchange over two-sided probe + recv."""

    name = "ondemand"

    def before_sector(self, sector: int) -> None:
        """No get phase: ghosts are kept current by the after phases."""

    def after_sector(self, sector: int, dirty_rows: np.ndarray) -> None:
        with obs.phase("kmc.ghost_sync"):
            sched = self.schedule
            dirty_rows = np.asarray(dirty_rows, dtype=np.int64)
            for n in sched.neighbors:
                rows = sched.interest_rows(n, dirty_rows)
                # A message goes to every neighbor — zero-size when clean —
                # because the two-sided receive must be matched.
                self.comm.send(
                    n,
                    TAG_ONDEMAND + sector,
                    pack_updates(sched.sites, self.occ, rows),
                )
            for n in sched.neighbors:
                # The paper's receive protocol: probe for the
                # runtime-determined envelope, then post the actual receive.
                status = self.comm.probe(source=n, tag=TAG_ONDEMAND + sector)
                _src, _tag, payload = self.comm.recv(source=n, tag=status.tag)
                ranks, values = payload
                apply_updates(sched.sites, self.occ, ranks, values)
