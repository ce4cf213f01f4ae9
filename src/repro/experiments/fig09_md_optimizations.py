"""Figure 9: MD optimization ladder on Sunway core groups.

Paper setup: MD with 2e7 atoms on 65..1040 master+slave cores (1..16
CGs); four variants — traditional interpolation table, compacted table,
+ ghost data reuse, + double buffer.  Findings: "the compacted tables
improve the performance by 54.7% on average in geometric mean", "ghost
data reuse further improves the performance by 4% on average", "double
buffer does not bring obvious performance improvement".

Reproduction: the blocked CPE kernel executes the real EAM step on a
scaled-down lattice under each strategy; multi-CG points divide the
per-CG work and add the MD scaling model's halo exchange, which prices
the traffic an executed ``ParallelDamageMD`` run sends.
"""

from __future__ import annotations

import numpy as np

from repro.lattice.bcc import BCCLattice
from repro.md.neighbors.lattice_list import LatticeNeighborList
from repro.md.state import AtomState
from repro.perfmodel.machine import TAIHULIGHT
from repro.perfmodel.md_model import halo_time
from repro.potential.fe import make_fe_potential
from repro.sunway.arch import SunwayArch
from repro.sunway.kernel import STRATEGY_LADDER, BlockedEAMKernel

#: The paper's x-axis, in master+slave cores (1, 2, 4, 8, 16 CGs).
PAPER_CORES = (65, 130, 260, 520, 1040)

#: Scaled-down workload (sites) standing in for the paper's 2e7 atoms.
DEFAULT_CELLS = 20


def run(
    cells: int = DEFAULT_CELLS,
    cores_list: tuple[int, ...] = PAPER_CORES,
    table_points: int = 5000,
    seed: int = 0,
) -> dict:
    """Regenerate the Figure 9 series.

    Returns ``rows`` — one dict per (strategy, cores) with the modeled
    total runtime — and ``summary`` with the three headline ratios.
    """
    lattice = BCCLattice(cells, cells, cells)
    potential = make_fe_potential(n=min(table_points, 2000))
    state = AtomState.perfect(lattice)
    rng = np.random.default_rng(seed)
    state.x = state.x + rng.normal(0.0, 0.05, state.x.shape)
    nblist = LatticeNeighborList(lattice, potential.cutoff)
    arch = SunwayArch()

    per_strategy_time: dict[str, float] = {}
    reports = {}
    for strategy in STRATEGY_LADDER:
        kernel = BlockedEAMKernel(
            arch, potential, strategy, table_points=table_points
        )
        report = kernel.run_step(state, nblist)
        per_strategy_time[strategy.name] = report.total_time
        reports[strategy.name] = report

    rows = []
    for cores in cores_list:
        cgs = TAIHULIGHT.cgs_from_cores(cores)
        comm = (
            halo_time(lattice.nsites / cgs, cgs, TAIHULIGHT.network) if cgs > 1 else 0.0
        )
        for strategy in STRATEGY_LADDER:
            total = per_strategy_time[strategy.name] / cgs + comm
            rows.append(
                {
                    "cores": cores,
                    "cgs": cgs,
                    "strategy": strategy.name,
                    "time": total,
                }
            )

    t = per_strategy_time
    base = t["TraditionalTable"]
    compact = t["CompactedTable"]
    reuse = t["CompactedTable+DataReuse"]
    double = t["CompactedTable+DataReuse+DoubleBuffer"]
    summary = {
        "compacted_improvement": (base - compact) / base,
        "reuse_improvement": (compact - reuse) / compact,
        "double_buffer_improvement": (reuse - double) / reuse,
        "traditional_dma_ops": reports["TraditionalTable"].dma.operations,
        "compacted_dma_ops": reports["CompactedTable"].dma.operations,
        "nsites": lattice.nsites,
        "paper": {
            "compacted_improvement": 0.547,
            "reuse_improvement": 0.04,
            "double_buffer_improvement": 0.0,
        },
    }
    return {"rows": rows, "summary": summary}


def main() -> None:  # pragma: no cover - CLI entry
    result = run()
    print(f"{'cores':>6} {'strategy':42} {'time (ms)':>10}")
    for row in result["rows"]:
        print(f"{row['cores']:>6} {row['strategy']:42} {row['time'] * 1e3:>10.3f}")
    s = result["summary"]
    print(
        f"\ncompacted improvement: {s['compacted_improvement']:.1%} "
        f"(paper: {s['paper']['compacted_improvement']:.1%})"
    )
    print(
        f"+ data reuse:          {s['reuse_improvement']:.1%} "
        f"(paper: ~{s['paper']['reuse_improvement']:.0%})"
    )
    print(
        f"+ double buffer:       {s['double_buffer_improvement']:.1%} "
        f"(paper: no obvious improvement)"
    )


if __name__ == "__main__":  # pragma: no cover
    main()
