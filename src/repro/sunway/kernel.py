"""Block-wise EAM force kernel under the paper's four optimization variants.

"we use one process on each master core, and each process launches 64
threads (running on 64 slave cores) using the Athread multithreading
library ... The subdomain of each process is further equally partitioned
into slabs, and each thread is responsible for one slab." and "each slab
is further partitioned into blocks, and each slave core processes the
blocks one by one." (§2.1.2)

The kernel executes the real EAM computation — the MD engine's own two
passes (:func:`repro.md.forces.density_pass` /
:func:`~repro.md.forces.force_pass`) over the whole step —
while the block loop prices every variant from the blocks' masks and
counts with :class:`~repro.sunway.arch.SunwayArch` arithmetic: the 64 KB
local store sizes the blocks, every DMA get/put is counted and priced by
``arch.dma_time``, and a synchronized slab team takes as long as its
slowest slab:

========================  ====================================================
variant                   cost structure
========================  ====================================================
traditional table         tables stay in main memory; each neighbor
                          evaluation performs a *blocking* DMA get of one
                          7-double coefficient row — "3 times for each
                          neighbor atom at each time step" across the
                          density pass (1) and the two force sub-passes (2)
compacted table           each table's 39 KB sample column loaded into the
                          local store once per pass; segment coefficients
                          rebuilt on the fly from six resident samples
                          (extra cycles per evaluation)
+ data reuse              the ghost ring shared by consecutive blocks of a
                          slab is kept in the local store: every block
                          after a slab's first gathers none of its ghosts
+ double buffer           block transfers stream through two buffers and
                          overlap with compute: a pass costs
                          sum(max(compute_b, transfer_b)) instead of
                          sum(compute_b + transfer_b)
========================  ====================================================

The EAM step is organized in four table-passes (density, embedding,
pair-force, density-force) so that each pass needs at most ONE resident
compacted table — that is how three 39 KB tables coexist with a 64 KB
local store.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import observe as obs
from repro.md.forces import PairTable, density_pass, force_pass
from repro.md.neighbors.lattice_list import LatticeNeighborList
from repro.md.state import AtomState
from repro.potential.eam import EAMPotential
from repro.sunway.arch import SunwayArch

#: Bytes of one traditional-table coefficient row (7 doubles).
TABLE_ROW_BYTES = 7 * 8
#: Bytes of a position record / force record / scalar record.
POS_BYTES = 24
FORCE_BYTES = 24
SCALAR_BYTES = 8
#: Local-store bytes per block site across the widest pass: positions and
#: the per-neighbor demb gather for the block and its ghost ring (about
#: three times the block at the planned sizes), plus the force output.
SITE_BUFFER_BYTES = (1 + 3) * (POS_BYTES + SCALAR_BYTES) + FORCE_BYTES
#: The four table-passes of one EAM step, in execution order.
PASSES = ("density", "embedding", "force_pair", "force_density")


class LocalStoreOverflow(MemoryError):
    """A kernel plan does not fit the CPE local store."""


@dataclass(frozen=True)
class KernelStrategy:
    """One rung of the paper's optimization ladder."""

    name: str
    table_layout: str = "compacted"
    data_reuse: bool = False
    double_buffer: bool = False

    def __post_init__(self) -> None:
        if self.table_layout not in ("traditional", "compacted"):
            raise ValueError(f"unknown table layout {self.table_layout!r}")


#: The four variants of Figure 9, in the paper's order.
STRATEGY_LADDER: tuple[KernelStrategy, ...] = (
    KernelStrategy("TraditionalTable", table_layout="traditional"),
    KernelStrategy("CompactedTable", table_layout="compacted"),
    KernelStrategy("CompactedTable+DataReuse", table_layout="compacted", data_reuse=True),
    KernelStrategy(
        "CompactedTable+DataReuse+DoubleBuffer",
        table_layout="compacted",
        data_reuse=True,
        double_buffer=True,
    ),
)


def _pass_time(blocks: list[tuple[float, float]], double_buffer: bool) -> float:
    """One thread's wall time of a table-pass over its (compute, transfer)
    blocks: serial, or a prefetch pipeline in which the transfer of block
    b+1 overlaps the compute of block b."""
    if not blocks:
        return 0.0
    if not double_buffer:
        return sum(c + x for c, x in blocks)
    t = blocks[0][1]
    prefetches = [x for _c, x in blocks[1:]] + [0.0]
    for (c, _x), nxt in zip(blocks, prefetches):
        t += max(c, nxt)
    return t


@dataclass
class DMAStats:
    """DMA counters of one kernel execution."""

    gets: int = 0
    puts: int = 0
    get_bytes: int = 0
    put_bytes: int = 0

    @property
    def operations(self) -> int:
        return self.gets + self.puts

    @property
    def total_bytes(self) -> int:
        return self.get_bytes + self.put_bytes


@dataclass
class KernelReport:
    """Outcome of one blocked EAM step."""

    strategy: KernelStrategy
    forces: np.ndarray
    energy: float
    total_time: float
    dma: DMAStats
    interactions: int
    block_sites: int


class BlockedEAMKernel:
    """Executes one EAM step block-by-block under a strategy.

    Parameters
    ----------
    arch, potential, strategy:
        Machine model, potential (its spline tables give the values under
        every strategy; the strategy decides the table layout priced), and
        the optimization variant.  The slave-core team is
        ``arch.cpes_per_cg`` threads.
    table_points:
        Knots of the tables being priced (5000 in the paper).
    """

    def __init__(
        self,
        arch: SunwayArch,
        potential: EAMPotential,
        strategy: KernelStrategy,
        table_points: int = 5000,
    ) -> None:
        self.arch = arch
        self.potential = potential
        self.strategy = strategy
        self.table_points = table_points
        self.block_sites = self._plan_block_size()

    @property
    def compacted_table_bytes(self) -> int:
        """Payload of one compacted table: a spline's sample column
        (column 6 of its coefficient matrix; 39 KB at 5000 knots)."""
        return (self.table_points + 1) * 8

    def _plan_block_size(self) -> int:
        """Largest block size whose buffers fit the local store.

        The plan must leave room for the resident compacted table (one per
        pass) and, with double buffering, a second set of streaming
        buffers.  A traditional-table plan reserves no table space — the
        whole 273 KB table *cannot* fit, which is the premise of the
        optimization.
        """
        free = self.arch.local_store_bytes
        if self.strategy.table_layout == "compacted":
            free -= self.compacted_table_bytes
        per_site = SITE_BUFFER_BYTES * (2 if self.strategy.double_buffer else 1)
        block = free // per_site
        if block < 8:
            raise LocalStoreOverflow(
                f"cannot fit even an 8-site block: {free} B free, "
                f"{per_site} B/site"
            )
        return block

    def run_step(
        self, state: AtomState, nblist: LatticeNeighborList
    ) -> KernelReport:
        """One full EAM force step over every row of one core group.

        Executes the real computation and prices it.
        """
        with obs.phase("sunway.kernel"):
            report = self._run_step(state, nblist)
        if obs.enabled():
            obs.add("sunway.kernel.steps")
            obs.add("sunway.kernel.interactions", report.interactions)
            obs.add("sunway.kernel.time_modeled_s", report.total_time)
            for name in ("gets", "puts", "get_bytes", "put_bytes"):
                obs.add(f"sunway.dma.{name}", getattr(report.dma, name))
        return report

    def _run_step(
        self, state: AtomState, nblist: LatticeNeighborList
    ) -> KernelReport:
        arch = self.arch
        strat = self.strategy
        trad = strat.table_layout == "traditional"
        occ = state.occupied
        matrix, valid = nblist.matrix, nblist.valid
        dma = DMAStats()
        total_interactions = 0
        # Per pass, each slab's thread wall time.
        slab_times: dict[str, list[float]] = {p: [] for p in PASSES}

        per_eval_cycles = arch.eval_cycles + (0.0 if trad else arch.reconstruct_cycles)

        def price(n_atoms, n_inter, gather_bytes, put_bytes, row_gets):
            """Count one block's DMA and return its (compute, transfer)."""
            dma.gets += row_gets + 1
            dma.get_bytes += row_gets * TABLE_ROW_BYTES + gather_bytes
            dma.puts += 1
            dma.put_bytes += put_bytes
            # Blocking gets of individual coefficient rows serialize
            # with compute and cannot be double-buffered.
            compute = arch.compute_time(
                n_inter * per_eval_cycles + n_atoms * arch.atom_cycles
            ) + row_gets * arch.dma_time(TABLE_ROW_BYTES)
            return compute, arch.dma_time(gather_bytes) + arch.dma_time(put_bytes)

        for slab in np.array_split(np.arange(state.n), arch.cpes_per_cg):
            blocks: dict[str, list[tuple[float, float]]] = {p: [] for p in PASSES}
            for i in range(0, len(slab), self.block_sites):
                rows = slab[i : i + self.block_sites]
                nbrs = matrix[rows]
                vmask = valid[rows]
                ghost = np.setdiff1d(np.unique(nbrs[vmask]), rows)
                n_inter = int(
                    np.count_nonzero(vmask & occ[nbrs] & occ[rows][:, None])
                )
                total_interactions += n_inter
                n_atoms = int(np.count_nonzero(occ[rows]))
                # Gather footprint.  Reuse is priced at its limit: a
                # block's ghost ring counts as left in the local store by
                # its predecessors, so only a slab's first block fetches one.
                new_ghost = 0 if strat.data_reuse and i else len(ghost)
                # Pass 1: density (rho per central).
                blocks["density"].append(price(
                    n_atoms, n_inter,
                    gather_bytes=(len(rows) + new_ghost) * POS_BYTES,
                    put_bytes=len(rows) * SCALAR_BYTES,
                    row_gets=n_inter if trad else 0,
                ))
                # Pass 2: embedding (demb per atom).
                blocks["embedding"].append(price(
                    n_atoms, 0,
                    gather_bytes=len(rows) * SCALAR_BYTES,
                    put_bytes=len(rows) * SCALAR_BYTES,
                    row_gets=n_atoms if trad else 0,
                ))
                # Passes 3+4: the two force terms.
                for pass_name in ("force_pair", "force_density"):
                    blocks[pass_name].append(price(
                        n_atoms, n_inter,
                        gather_bytes=(len(rows) + new_ghost)
                        * (POS_BYTES + SCALAR_BYTES),
                        put_bytes=len(rows) * FORCE_BYTES,
                        row_gets=n_inter if trad else 0,
                    ))
            for p in PASSES:
                slab_times[p].append(_pass_time(blocks[p], strat.double_buffer))

        # The values: the one EAM kernel over the whole half pair list.
        # Both layouts store the same spline, so they share these values.
        pot = self.potential
        table = PairTable.from_pairs(
            state.x, *nblist.lattice_pairs(state), nblist.box, pot.cutoff
        )
        dens = density_pass(pot, state.n, table)
        forces, emb = force_pass(pot, table, dens, dens.rho)
        energy = float(np.sum(dens.phi)) + float(np.sum(emb[occ]))

        # Per-pass team times (synchronized threads: slowest slab wins),
        # plus the once-per-pass resident table load of the compacted path.
        table_load = 0.0 if trad else arch.dma_time(self.compacted_table_bytes)
        total_time = 0.0
        for p in PASSES:
            total_time += max(slab_times[p]) + table_load
        return KernelReport(
            strategy=strat,
            forces=forces,
            energy=energy,
            total_time=total_time,
            dma=dma,
            interactions=total_interactions,
            block_sites=self.block_sites,
        )
