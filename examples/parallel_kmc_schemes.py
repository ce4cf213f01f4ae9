"""Parallel KMC communication schemes: the paper's §2.2.1 head-to-head.

Runs the same sector-synchronous AKMC workload under all three
communication schemes — traditional full-strip exchange (SPPARKS-style),
the paper's on-demand strategy over two-sided probe/recv, and the
one-sided put+fence variant — verifies they produce bitwise-identical
trajectories, and compares their measured traffic: exact message and
byte counts, and the communication time of those counts priced by the
TaihuLight network model.

    python examples/parallel_kmc_schemes.py
"""

import numpy as np

from repro.kmc.akmc import ParallelAKMC, place_random_vacancies
from repro.kmc.events import KMCModel, RateParameters
from repro.lattice.bcc import BCCLattice
from repro.perfmodel.machine import TAIHULIGHT
from repro.potential.fe import make_fe_potential


def main() -> None:
    lattice = BCCLattice(8, 8, 8)
    potential = make_fe_potential(n=1000)
    params = RateParameters(temperature=600.0)
    model = KMCModel(lattice, potential, params)
    occ0 = place_random_vacancies(model, 20, np.random.default_rng(1))

    print("8 ranks (2 x 2 x 2), 1024 sites, 20 vacancies, 12 cycles\n")
    results = {}
    for scheme in ("traditional", "ondemand", "onesided"):
        engine = ParallelAKMC(
            lattice,
            potential,
            params,
            nranks=8,
            scheme=scheme,
            seed=5,
        )
        results[scheme] = engine.run(occ0, max_cycles=12)

    ref = results["traditional"].occupancy
    print(f"{'scheme':>12} {'events':>7} {'bytes':>12} {'messages':>9} "
          f"{'comm time (s)':>14} {'identical':>10}")
    for scheme, res in results.items():
        stats = res.comm_stats
        print(
            f"{scheme:>12} {res.events:>7} {stats['total_sent_bytes']:>12,} "
            f"{stats['total_messages']:>9,} "
            f"{TAIHULIGHT.network.traffic_time(stats):>14.6f} "
            f"{str(np.array_equal(res.occupancy, ref)):>10}"
        )

    trad = results["traditional"].comm_stats
    ond = results["ondemand"].comm_stats
    one = results["onesided"].comm_stats
    print(
        f"\non-demand volume = "
        f"{ond['total_sent_bytes'] / trad['total_sent_bytes']:.2%} of "
        f"traditional (paper: 2.6% at production scale)"
    )
    print(
        f"one-sided messages = {one['total_messages']:,} vs "
        f"{ond['total_messages']:,} two-sided — the zero-size probes the "
        f"paper's RMA variant eliminates"
    )


if __name__ == "__main__":
    main()
