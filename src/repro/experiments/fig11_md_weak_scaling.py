"""Figure 11: MD weak scaling, 3.9e7 atoms per core group.

Paper finding: "Our MD code scales up to 6.656 million cores with total
4.0e12 atoms by a 85% parallel efficiency ... the computation time
remains almost constant on different numbers of cores. However, the
communication time for larger number of cores is a little higher, which
is caused by the communication contention."

Also reproduced here: the in-text memory headroom claim — with the
lattice neighbor list 4e12 atoms fit the machine where a Verlet-list code
manages ~8e11.
"""

from __future__ import annotations

from repro.experiments.memory_table import MD_CUTOFF
from repro.md.neighbors.memory import max_atoms_in_memory
from repro.perfmodel.calibrate import calibrate_from_kernels
from repro.perfmodel.machine import TAIHULIGHT
from repro.perfmodel.md_model import MDScalingModel, paper_core_counts_weak

PAPER_ATOMS_PER_CG = 3.9e7
PAPER_EFFICIENCY = 0.85


def run(atoms_per_cg: float = PAPER_ATOMS_PER_CG, cores_list=None) -> dict:
    """Regenerate the Figure 11 compute/communication bars."""
    cores_list = list(cores_list or paper_core_counts_weak())
    model = MDScalingModel(calibrate_from_kernels())
    rows = model.weak_scaling(atoms_per_cg, cores_list)

    # Memory headroom at the top scale (102,400 CGs x 8 GB).
    total_cgs = TAIHULIGHT.cgs_from_cores(cores_list[-1])
    capacity = total_cgs * TAIHULIGHT.arch.memory_per_cg
    atoms = max_atoms_in_memory(capacity, MD_CUTOFF)
    lattice_atoms, verlet_atoms = atoms["lattice_list"], atoms["verlet_list"]
    summary = {
        "final_efficiency": rows[-1]["efficiency"],
        "compute_flat_ratio": rows[-1]["compute"] / rows[0]["compute"],
        "comm_growth_ratio": rows[-1]["comm"] / rows[0]["comm"],
        "lattice_list_max_atoms": lattice_atoms,
        "verlet_list_max_atoms": verlet_atoms,
        "memory_advantage": lattice_atoms / verlet_atoms,
        "paper": {
            "efficiency": PAPER_EFFICIENCY,
            "lattice_list_atoms": 4.0e12,
            "verlet_list_atoms": 8.0e11,
        },
    }
    return {"rows": rows, "summary": summary}


def main() -> None:  # pragma: no cover - CLI entry
    result = run()
    print(f"{'cores':>10} {'compute(s)':>11} {'comm(s)':>9} {'eff':>7}")
    for r in result["rows"]:
        print(
            f"{r['cores']:>10,} {r['compute']:>11.2f} {r['comm']:>9.3f} "
            f"{r['efficiency']:>6.1%}"
        )
    s = result["summary"]
    print(f"\nfinal efficiency: {s['final_efficiency']:.1%} (paper: 85%)")
    print(
        f"memory headroom: {s['lattice_list_max_atoms']:.2e} atoms (lattice "
        f"list) vs {s['verlet_list_max_atoms']:.2e} (Verlet list) — "
        f"{s['memory_advantage']:.1f}x (paper: 4e12 vs 8e11, 5x)"
    )


if __name__ == "__main__":  # pragma: no cover
    main()
