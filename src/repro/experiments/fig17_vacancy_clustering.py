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
nearest-neighbor distance among vacancies shrinks.

A second mode (``from_cascade=True``) runs the full MD cascade pipeline
end-to-end instead.
"""

from __future__ import annotations

import numpy as np

from repro.core.clusters import clustering_report, clustering_report_from_store
from repro.core.coupling import CoupledSimulation
from repro.core.timescale import kmc_real_time
from repro.io.store import TrajectoryReader, finalize_store, seed_store
from repro.kmc.akmc import SerialAKMC, place_random_vacancies
from repro.kmc.events import KMCModel, RateParameters
from repro.lattice.bcc import BCCLattice
from repro.potential.fe import make_fe_potential
from repro.service.spec import ScenarioSpec

DEFAULT_CELLS = 8
DEFAULT_CONCENTRATION = 2.5e-2
DEFAULT_EVENTS = 2500


def run(
    cells: int = DEFAULT_CELLS,
    concentration: float = DEFAULT_CONCENTRATION,
    kmc_events: int = DEFAULT_EVENTS,
    seed: int = 42,
    from_cascade: bool = False,
    store_path=None,
) -> dict:
    """Regenerate the Figure 17 before/after clustering comparison.

    With ``store_path`` the run streams its trajectory into an on-disk
    chunked store (:mod:`repro.io.store`) and the before/after clustering
    reports are computed *from the store* — frame 0 (post-MD) and the
    final frame — instead of from in-memory occupancies.  The numbers
    are identical either way; the store-fed path just proves the
    analysis can run out-of-core on arbitrarily long trajectories.
    """
    if from_cascade:
        spec = ScenarioSpec(cells=cells, kmc_max_events=kmc_events, seed=seed)
        sim = CoupledSimulation(
            spec.to_coupled_config(
                trajectory=None if store_path is None else str(store_path)
            )
        )
        res = sim.run()
        before = res.report_after_md
        after = res.report_after_kmc
        vac_before = res.vacancies_after_md
        vac_after = res.vacancies_after_kmc
        kmc_time = res.kmc_time
        lattice = sim.lattice
    else:
        lattice = BCCLattice(cells, cells, cells)
        potential = make_fe_potential(n=1000)
        params = RateParameters()
        model = KMCModel(lattice, potential, params)
        nvac = max(4, int(lattice.nsites * concentration))
        occ0 = place_random_vacancies(model, nvac, np.random.default_rng(seed))
        vac_before = model.sites[np.flatnonzero(occ0 == 0)]
        before = clustering_report(lattice, vac_before)
        if store_path is not None:
            # Seed the "before" frame, then let the engine append.
            seed_store(store_path, lattice, occ0)
        engine = SerialAKMC(lattice, potential, params, occ0, seed=seed)
        result = engine.run(max_events=kmc_events, trajectory=store_path)
        vac_after = result.vacancy_ranks
        after = clustering_report(lattice, vac_after)
        kmc_time = result.time
    if store_path is not None:
        finalize_store(store_path)
        reader = TrajectoryReader(store_path)
        before = clustering_report_from_store(reader, 0)
        after = clustering_report_from_store(reader, -1)
        vac_before = reader.vacancy_ranks(0)
        vac_after = reader.vacancy_ranks(len(reader) - 1)
    real_seconds = kmc_real_time(
        t_threshold=kmc_time * 1e-12,
        c_mc=len(vac_before) / lattice.nsites,
    )
    return {
        "before": before,
        "after": after,
        "vacancies_before": vac_before,
        "vacancies_after": vac_after,
        "kmc_time_ps": kmc_time,
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
