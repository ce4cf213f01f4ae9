"""Figure 13: KMC communication time, traditional vs on-demand.

Paper finding: "Compared with the traditional method, the on-demand
communication strategy obtains 21x speedup on average in terms of
communication time."

Reproduction: the same measured runs as Figure 12, with time from the
exact per-rank message, byte and collective counts priced by the
TaihuLight network model (:data:`repro.perfmodel.machine.TAIHULIGHT`, the
price list of Figures 10-16; a threaded in-process runtime has no
meaningful communication wall-clock).  At reduced scale the per-message
latency term weighs more than at the paper's 1.6e7 sites, so the speedup
is smaller (~1.8x) but still decisively in the on-demand direction;
the volume term (Figure 12) carries the mechanism.
"""

from __future__ import annotations

import math

from repro.experiments._kmc_comm import DEFAULT_RANKS, run_comm_experiment

PAPER_TIME_SPEEDUP = 21.0


def run(ranks_list=DEFAULT_RANKS, cycles: int = 8, seed: int = 2018) -> dict:
    """Regenerate the Figure 13 communication-time comparison."""
    rows = run_comm_experiment(tuple(ranks_list), cycles=cycles, seed=seed)
    speedups = [r["time_speedup"] for r in rows]
    summary = {
        "mean_time_speedup": math.exp(
            sum(math.log(x) for x in speedups) / len(speedups)
        ),
        "paper": {"time_speedup": PAPER_TIME_SPEEDUP},
    }
    return {"rows": rows, "summary": summary}


def main() -> None:  # pragma: no cover - CLI entry
    result = run()
    print(
        f"{'ranks':>6} {'traditional (s)':>16} {'on-demand (s)':>14} "
        f"{'speedup':>8}"
    )
    for r in result["rows"]:
        print(
            f"{r['ranks']:>6} {r['traditional_time']:>16.6f} "
            f"{r['ondemand_time']:>14.6f} {r['time_speedup']:>8.1f}x"
        )
    s = result["summary"]
    print(
        f"\ngeometric-mean comm-time speedup: {s['mean_time_speedup']:.1f}x "
        f"(paper: {s['paper']['time_speedup']:.0f}x)"
    )


if __name__ == "__main__":  # pragma: no cover
    main()
