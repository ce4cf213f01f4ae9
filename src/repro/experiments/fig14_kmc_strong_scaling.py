"""Figure 14: KMC strong scaling, 3.2e10 sites on 1,500 -> 48,000 masters.

Paper findings: "Our KMC algorithm exhibits 18.5-fold speedup on 48,000
cores, indicating 58.2% parallel efficiency in strong scaling. The
super-linear speedup from 3,000 to 12,000 cores is due to the benefit of
L2 cache on the master cores, which can store the entire dataset."

Reproduction: the calibrated KMC cycle model with the L2 working-set
effect (see DESIGN.md).
"""

from __future__ import annotations

from repro.perfmodel.calibrate import calibrate_from_kernels
from repro.perfmodel.kmc_model import KMCScalingModel, paper_kmc_strong_cores

PAPER_SITES = 3.2e10
PAPER_SPEEDUP = 18.5
PAPER_EFFICIENCY = 0.582
PAPER_CONCENTRATION = 4.5e-5


def run(total_sites: float = PAPER_SITES, cores_list=None) -> dict:
    """Regenerate the Figure 14 speedup curve."""
    cores_list = list(cores_list or paper_kmc_strong_cores())
    model = KMCScalingModel(
        calibrate_from_kernels(), vacancy_concentration=PAPER_CONCENTRATION
    )
    rows = model.strong_scaling(total_sites, cores_list)
    top = rows[-1]
    superlinear = [r["cores"] for r in rows if r["efficiency"] > 1.0 + 1e-9]
    summary = {
        "max_speedup": top["speedup"],
        "final_efficiency": top["efficiency"],
        "superlinear_cores": superlinear,
        "paper": {
            "speedup": PAPER_SPEEDUP,
            "efficiency": PAPER_EFFICIENCY,
            "superlinear_window": (3000, 12000),
        },
    }
    return {"rows": rows, "summary": summary}


def main() -> None:  # pragma: no cover - CLI entry
    result = run()
    print(f"{'cores':>8} {'speedup':>8} {'ideal':>6} {'eff':>8} {'L2':>6}")
    for r in result["rows"]:
        print(
            f"{r['cores']:>8,} {r['speedup']:>8.1f} {r['ideal_speedup']:>6.0f} "
            f"{r['efficiency']:>7.1%} {r['l2_resident']!s:>6}"
        )
    s = result["summary"]
    print(
        f"\nfinal: {s['max_speedup']:.1f}x / {s['final_efficiency']:.1%} "
        f"(paper: {s['paper']['speedup']}x / {s['paper']['efficiency']:.1%}); "
        f"super-linear at {s['superlinear_cores']} "
        f"(paper window: {s['paper']['superlinear_window']})"
    )


if __name__ == "__main__":  # pragma: no cover
    main()
