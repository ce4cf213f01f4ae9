"""Figure 10: MD strong scaling, 3.2e10 atoms, 97,500 -> 6,240,000 cores.

Paper finding: "Scaling from 97,500 cores to 6,240,000 cores, we achieve
26.4-fold speedup (41.3% parallel efficiency)."

Reproduction: the calibrated MD scaling model (per-atom cost measured
from the blocked CPE kernel; surface/volume halo exchange and sync terms
per DESIGN.md).
"""

from __future__ import annotations

from repro.perfmodel.calibrate import calibrate_from_kernels
from repro.perfmodel.md_model import MDScalingModel, paper_core_counts_strong

PAPER_ATOMS = 3.2e10
PAPER_SPEEDUP = 26.4
PAPER_EFFICIENCY = 0.413


def run(total_atoms: float = PAPER_ATOMS, cores_list=None) -> dict:
    """Regenerate the Figure 10 speedup/efficiency curve."""
    cores_list = list(cores_list or paper_core_counts_strong())
    model = MDScalingModel(calibrate_from_kernels())
    rows = model.strong_scaling(total_atoms, cores_list)
    top = rows[-1]
    summary = {
        "max_speedup": top["speedup"],
        "max_ideal": top["ideal_speedup"],
        "final_efficiency": top["efficiency"],
        "paper": {"speedup": PAPER_SPEEDUP, "efficiency": PAPER_EFFICIENCY},
    }
    return {"rows": rows, "summary": summary}


def main() -> None:  # pragma: no cover - CLI entry
    result = run()
    print(f"{'cores':>10} {'speedup':>8} {'ideal':>6} {'eff':>7}")
    for r in result["rows"]:
        print(
            f"{r['cores']:>10,} {r['speedup']:>8.1f} {r['ideal_speedup']:>6.0f} "
            f"{r['efficiency']:>6.1%}"
        )
    s = result["summary"]
    print(
        f"\nfinal: {s['max_speedup']:.1f}x / {s['final_efficiency']:.1%} "
        f"(paper: {s['paper']['speedup']}x / {s['paper']['efficiency']:.1%})"
    )


if __name__ == "__main__":  # pragma: no cover
    main()
