"""Block-wise EAM force kernel under the paper's four optimization variants.

"Since our simulation has large spatial scale, the atoms information of
one slab cannot be loaded into the local store at one time either. Thus,
each slab is further partitioned into blocks, and each slave core
processes the blocks one by one." (§2.1.2)

The kernel executes the real EAM computation — the MD engine's own two
passes (:func:`repro.md.forces.density_pass` /
:func:`~repro.md.forces.force_pass`), read off for the central range —
while the block loop, a :class:`DMAEngine` and cycle counters price every
variant from the blocks' masks and counts:

========================  ====================================================
variant                   cost structure
========================  ====================================================
traditional table         tables stay in main memory; each neighbor
                          evaluation performs a *blocking* DMA get of one
                          7-double coefficient row — "3 times for each
                          neighbor atom at each time step" across the
                          density pass (1) and the two force sub-passes (2)
compacted table           39 KB sample tables loaded into the local store
                          once per pass; segment coefficients reconstructed
                          on the fly (extra cycles per evaluation)
+ data reuse              the ghost ring shared by consecutive blocks of a
                          slab is kept in the local store, shrinking the
                          per-block gather
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

from dataclasses import dataclass, field

import numpy as np

from repro import observe as obs
from repro.md.forces import PairTable, density_pass, force_pass
from repro.md.neighbors.lattice_list import LatticeNeighborList
from repro.md.state import AtomState
from repro.potential.eam import EAMPotential
from repro.sunway.arch import SunwayArch
from repro.sunway.athread import AthreadPool
from repro.sunway.dma import DMAEngine, DMAStats
from repro.sunway.localstore import LocalStore, LocalStoreOverflow

#: Bytes of one traditional-table coefficient row (7 doubles).
TABLE_ROW_BYTES = 7 * 8
#: Bytes of a position record / force record / scalar record.
POS_BYTES = 24
FORCE_BYTES = 24
SCALAR_BYTES = 8


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


@dataclass
class PassCost:
    """Accounting of one table-pass on one thread."""

    compute: float = 0.0
    transfer: float = 0.0
    blocks: list = field(default_factory=list)  # (compute_b, transfer_b)

    def wall_time(self, double_buffer: bool) -> float:
        """Thread wall time of the pass under the chosen buffering."""
        if not self.blocks:
            return 0.0
        if not double_buffer:
            return sum(c + x for c, x in self.blocks)
        # Prefetch pipeline: transfer of block b+1 overlaps compute of b.
        t = self.blocks[0][1]
        for b, (c, _x) in enumerate(self.blocks):
            nxt = self.blocks[b + 1][1] if b + 1 < len(self.blocks) else 0.0
            t += max(c, nxt)
        return t


@dataclass
class KernelReport:
    """Outcome of one blocked EAM step."""

    strategy: KernelStrategy
    forces: np.ndarray
    energy: float
    total_time: float
    compute_time: float
    dma_time: float
    dma: DMAStats
    interactions: int
    natoms: int
    nblocks: int
    block_sites: int


class BlockedEAMKernel:
    """Executes one EAM step block-by-block under a strategy.

    Parameters
    ----------
    arch, potential, strategy:
        Machine model, potential (any layout; the strategy decides the
        layout actually priced), and the optimization variant.
    nthreads:
        Slave cores per core group (64 on the SW26010).
    table_points:
        Knots of the tables being priced (5000 in the paper).
    """

    def __init__(
        self,
        arch: SunwayArch,
        potential: EAMPotential,
        strategy: KernelStrategy,
        nthreads: int = 64,
        table_points: int = 5000,
    ) -> None:
        self.arch = arch
        self.potential = potential
        self.strategy = strategy
        self.pool = AthreadPool(nthreads)
        self.table_points = table_points
        self.block_sites = self._plan_block_size()

    # ------------------------------------------------------------------
    # Local-store planning
    # ------------------------------------------------------------------
    @property
    def compacted_table_bytes(self) -> int:
        """Payload of one compacted table (39 KB at 5000 knots)."""
        return (self.table_points + 1) * 8

    def _per_site_buffer_bytes(self, ghost_factor: float = 3.0) -> float:
        """Local-store bytes per block site across the widest pass.

        Input positions for the block and its ghost ring (``ghost_factor``
        approximates ring/block at the planned sizes), per-neighbor demb
        gather, and the force output.
        """
        return (1 + ghost_factor) * (POS_BYTES + SCALAR_BYTES) + FORCE_BYTES

    def _plan_block_size(self) -> int:
        """Largest block size whose buffers fit the local store.

        The plan must leave room for the resident compacted table (one per
        pass) and, with double buffering, a second set of streaming
        buffers.  A traditional-table plan reserves no table space — the
        whole 273 KB table *cannot* fit, which is the premise of the
        optimization (asserted in tests via :class:`LocalStoreOverflow`).
        """
        store = LocalStore(self.arch.local_store_bytes)
        if self.strategy.table_layout == "compacted":
            store.alloc("table", self.compacted_table_bytes)
        buffers = 2 if self.strategy.double_buffer else 1
        per_site = self._per_site_buffer_bytes() * buffers
        block = int(store.free // per_site)
        if block < 8:
            raise LocalStoreOverflow(
                f"cannot fit even an 8-site block: {store.free} B free, "
                f"{per_site:.0f} B/site"
            )
        return block

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run_step(
        self,
        state: AtomState,
        nblist: LatticeNeighborList,
        central_range: tuple[int, int] | None = None,
    ) -> KernelReport:
        """One full EAM force step over the given central-row range.

        Executes the real computation and prices it.  ``central_range``
        restricts the step to a row slice (one core group's share when an
        experiment models several CGs).
        """
        with obs.phase("sunway.kernel"):
            report = self._run_step(state, nblist, central_range)
        if obs.enabled():
            obs.add("sunway.kernel.steps")
            obs.add("sunway.kernel.interactions", report.interactions)
            obs.add("sunway.kernel.time_modeled_s", report.total_time)
        return report

    def _run_step(
        self,
        state: AtomState,
        nblist: LatticeNeighborList,
        central_range: tuple[int, int] | None = None,
    ) -> KernelReport:
        arch = self.arch
        strat = self.strategy
        pot = (
            self.potential
            if self.potential.tables.layout == strat.table_layout
            else self.potential.with_layout(strat.table_layout)
        )
        occ = state.occupied
        lo, hi = central_range if central_range is not None else (0, state.n)
        if not 0 <= lo <= hi <= state.n:
            raise ValueError(f"invalid central range ({lo}, {hi})")
        dma = DMAEngine(arch)
        total_interactions = 0
        nblocks_total = 0

        matrix, valid = nblist.matrix, nblist.valid
        slabs = self.pool.partition(hi - lo)
        # Per-pass per-thread accounting.
        pass_names = ("density", "embedding", "force_pair", "force_density")
        pass_costs = {p: [PassCost() for _ in slabs] for p in pass_names}

        per_eval_cycles = (
            arch.eval_cycles
            + (arch.reconstruct_cycles if strat.table_layout == "compacted" else 0.0)
        ) / arch.simd_factor

        def account_block(
            pass_name: str,
            tidx: int,
            n_atoms: int,
            n_inter: int,
            gather_bytes: int,
            put_bytes: int,
            per_neighbor_gets: int,
        ) -> None:
            cost = pass_costs[pass_name][tidx]
            compute = arch.compute_time(
                n_inter * per_eval_cycles + n_atoms * arch.atom_cycles
            )
            if per_neighbor_gets:
                # Blocking gets of individual coefficient rows; they
                # serialize with compute and cannot be double-buffered.
                compute += dma.get(TABLE_ROW_BYTES, count=per_neighbor_gets)
            transfer = dma.get(gather_bytes) + dma.put(put_bytes)
            cost.compute += compute
            cost.transfer += transfer
            cost.blocks.append((compute, transfer))

        for tidx, slab in enumerate(slabs):
            rows_all = np.arange(lo + slab.start, lo + slab.stop)
            blocks = [
                rows_all[i : i + self.block_sites]
                for i in range(0, len(rows_all), self.block_sites)
            ]
            nblocks_total += len(blocks)
            # Reuse window: the loads of the two most recent blocks (the
            # halo stencil spans two cells, so a block's ghost overlaps
            # both predecessors; keeping them matches what the streaming
            # buffers hold anyway).
            recent_loads: list[set[int]] = []
            for rows in blocks:
                nbrs = matrix[rows]
                vmask = valid[rows]
                ghost = np.setdiff1d(np.unique(nbrs[vmask]), rows)
                n_inter = int(
                    np.count_nonzero(vmask & occ[nbrs] & occ[rows][:, None])
                )
                total_interactions += n_inter
                n_atoms = int(np.count_nonzero(occ[rows]))
                # Gather footprint, possibly shrunk by ghost-ring reuse.
                # The measured set overlap is combined with the arch's
                # reuse-efficiency calibration (production blocks sweep
                # faces and overlap far more than toy rank-order pencils).
                loaded = set(rows.tolist()) | set(ghost.tolist())
                new_ghost = len(ghost)
                if strat.data_reuse and recent_loads:
                    window = set().union(*recent_loads)
                    measured = len(set(ghost.tolist()) - window)
                    modeled = int(len(ghost) * (1.0 - arch.reuse_efficiency))
                    new_ghost = min(measured, modeled)
                recent_loads = [*recent_loads, loaded][-2:]
                trad = strat.table_layout == "traditional"
                # --- pass 1: density (rho per central) -------------------
                account_block(
                    "density",
                    tidx,
                    n_atoms,
                    n_inter,
                    gather_bytes=(len(rows) + new_ghost) * POS_BYTES,
                    put_bytes=len(rows) * SCALAR_BYTES,
                    per_neighbor_gets=n_inter if trad else 0,
                )
                # --- pass 2: embedding (demb per atom) --------------------
                account_block(
                    "embedding",
                    tidx,
                    n_atoms,
                    0,
                    gather_bytes=len(rows) * SCALAR_BYTES,
                    put_bytes=len(rows) * SCALAR_BYTES,
                    per_neighbor_gets=n_atoms if trad else 0,
                )
                # --- passes 3+4: the two force terms ----------------------
                for pass_name in ("force_pair", "force_density"):
                    account_block(
                        pass_name,
                        tidx,
                        n_atoms,
                        n_inter,
                        gather_bytes=(len(rows) + new_ghost)
                        * (POS_BYTES + SCALAR_BYTES),
                        put_bytes=len(rows) * FORCE_BYTES,
                        per_neighbor_gets=n_inter if trad else 0,
                    )

        # The values: a core group's central range is a rank's owned rows.
        # Densities must be converged for the neighbors outside the range
        # too (other CGs own them in the modeled run), so both passes run
        # over the whole half pair list and the range is read off; a bond
        # with one endpoint outside it carries half its pair energy.
        table = PairTable.from_pairs(
            state.x, *nblist.lattice_pairs(state), nblist.box, pot.cutoff
        )
        dens = density_pass(pot, state.n, table)
        all_forces, emb = force_pass(pot, table, dens, dens.rho)
        forces = np.zeros((state.n, 3))
        forces[lo:hi] = all_forces[lo:hi]
        inside = ((table.i >= lo) & (table.i < hi)).astype(float) + (
            (table.j >= lo) & (table.j < hi)
        )
        energy = float(np.sum(dens.phi * (0.5 * inside))) + float(
            np.sum(emb[lo:hi][occ[lo:hi]])
        )

        # Per-pass team times (synchronized threads: slowest slab wins),
        # plus the once-per-pass resident table load of the compacted path.
        compute_time = 0.0
        dma_time = dma.stats.time
        total_time = 0.0
        for p in pass_names:
            costs = pass_costs[p]
            table_load = (
                self.arch.dma_time(self.compacted_table_bytes)
                if strat.table_layout == "compacted"
                else 0.0
            )
            team = self.pool.team_time(
                [c.wall_time(strat.double_buffer) for c in costs]
            )
            total_time += team + table_load
            compute_time += self.pool.team_time([c.compute for c in costs])
        return KernelReport(
            strategy=strat,
            forces=forces,
            energy=energy,
            total_time=total_time,
            compute_time=compute_time,
            dma_time=dma_time,
            dma=dma.stats,
            interactions=total_interactions,
            natoms=int(np.count_nonzero(occ[lo:hi])),
            nblocks=nblocks_total,
            block_sites=self.block_sites,
        )
