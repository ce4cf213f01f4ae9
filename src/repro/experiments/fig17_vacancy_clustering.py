"""Figure 17: vacancy clustering across the coupled MD-KMC run.

Paper finding (3.2e10 atoms, 19.2 days of simulated time): after MD "the
vacancies are very dispersive"; after KMC "the vacancies are relatively
more aggregative and several vacancy clusters are forming".

Reproduction: at toy scale a single cascade deposits its vacancies in one
spot, so the dispersed "after MD" state is produced as the superposition
of many *distant* cascade events — random vacancy positions at a fixed
concentration (documented substitution; the KMC stage, which is what the
figure demonstrates, is the real engine either way).  The clustering
statistics before/after KMC quantify what the paper's renderings show:
the maximum cluster grows, the cluster count falls, and the mean
nearest-neighbor distance among vacancies shrinks.  The end-to-end
pipeline from an MD cascade is ``python -m repro coupled``.
"""

from __future__ import annotations

import numpy as np

from repro.core.clusters import clustering_report
from repro.core.timescale import kmc_real_time
from repro.kmc.akmc import SerialAKMC, place_random_vacancies
from repro.kmc.events import KMCModel, RateParameters
from repro.lattice.bcc import BCCLattice
from repro.potential.fe import make_fe_potential

DEFAULT_CELLS = 8
DEFAULT_CONCENTRATION = 2.5e-2
DEFAULT_EVENTS = 2500


def run(
    cells: int = DEFAULT_CELLS,
    concentration: float = DEFAULT_CONCENTRATION,
    kmc_events: int = DEFAULT_EVENTS,
    seed: int = 42,
) -> dict:
    """Regenerate the Figure 17 before/after clustering comparison."""
    lattice = BCCLattice(cells, cells, cells)
    potential = make_fe_potential(n=1000)
    params = RateParameters()
    model = KMCModel(lattice, potential, params)
    nvac = max(4, int(lattice.nsites * concentration))
    occ0 = place_random_vacancies(model, nvac, np.random.default_rng(seed))
    vac_before = model.sites[np.flatnonzero(occ0 == 0)]
    before = clustering_report(lattice, vac_before)
    result = SerialAKMC(lattice, potential, params, occ0, seed=seed).run(
        max_events=kmc_events
    )
    vac_after = result.vacancy_ranks
    after = clustering_report(lattice, vac_after)
    real_seconds = kmc_real_time(
        t_threshold=result.time * 1e-12,
        c_mc=len(vac_before) / lattice.nsites,
    )
    return {
        "before": before,
        "after": after,
        "vacancies_before": vac_before,
        "vacancies_after": vac_after,
        "kmc_time_ps": result.time,
        "real_time_seconds": real_seconds,
        "summary": {
            "max_cluster_growth": after.max_cluster / max(before.max_cluster, 1),
            "nn_distance_shrink": after.mean_nn_distance / before.mean_nn_distance,
            "cluster_count_change": after.n_clusters - before.n_clusters,
        },
    }


def main() -> None:  # pragma: no cover - CLI entry
    result = run()
    print("after MD (dispersed): ", result["before"])
    print("after KMC (clustered):", result["after"])
    s = result["summary"]
    print(
        f"\nmax cluster grew {s['max_cluster_growth']:.1f}x; mean NN "
        f"distance shrank to {s['nn_distance_shrink']:.2f}x; cluster count "
        f"changed by {s['cluster_count_change']}"
    )
    print(
        f"KMC time {result['kmc_time_ps']:.3g} ps -> real time "
        f"{result['real_time_seconds']:.3g} s by the paper's formula"
    )


if __name__ == "__main__":  # pragma: no cover
    main()
