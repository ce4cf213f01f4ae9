"""Cu precipitation in alpha-iron: the alloy extension in action.

The paper's timescale formula (§3) is taken from Castin, Pascuet &
Malerba [2] — a study of "the first stages of Cu precipitation in
alpha-Fe using a hybrid atomistic kinetic Monte Carlo approach".  This
example runs that physics on this reproduction's AKMC engine — the same
``SerialAKMC`` the iron runs use, handed the Fe-Cu table set instead of
the iron potential: a dilute random Fe-Cu solid solution with a few
vacancies whose migration (preferentially exchanging with Cu — the lower
barrier) carries the copper into growing precipitate clusters.

    python examples/cu_precipitation.py
"""

import numpy as np

from repro.core.clusters import clustering_report
from repro.core.timescale import kmc_real_time
from repro.kmc.akmc import SerialAKMC
from repro.kmc.alloy import S_CU, AlloyKMCModel, AlloyRateParameters
from repro.lattice.bcc import BCCLattice
from repro.potential.alloy import make_fe_cu_alloy


def main() -> None:
    lattice = BCCLattice(8, 8, 8)
    alloy, params = make_fe_cu_alloy(n=1000), AlloyRateParameters()
    cu_count, vac_count = 30, 3
    occ0 = AlloyKMCModel(lattice, alloy, params).random_solution(
        cu_count, vac_count, np.random.default_rng(7)
    )
    # The potential's type picks the model: the alloy tables make this
    # the same engine class, checkpoints and trajectory store included.
    engine = SerialAKMC(lattice, alloy, params, occ0, seed=11)

    print(
        f"{lattice.nsites} sites: Fe matrix + {cu_count} Cu "
        f"({cu_count / lattice.nsites:.1%}) + {vac_count} vacancies, 600 K\n"
    )
    print(f"{'events':>7} {'KMC t (ps)':>12} {'Cu clusters':>12} "
          f"{'largest':>8} {'mean NN (A)':>12}")
    for budget in (0, 500, 1000, 2000, 3500):
        if budget:
            engine.run(max_events=budget)
        rep = clustering_report(lattice, np.flatnonzero(engine.occ == S_CU))
        print(
            f"{engine.events:>7} {engine.time:>12.4g} {rep.n_clusters:>12} "
            f"{rep.max_cluster:>8} {rep.mean_nn_distance:>12.2f}"
        )

    c_v = vac_count / lattice.nsites
    real = kmc_real_time(t_threshold=engine.time * 1e-12, c_mc=c_v)
    print(
        f"\nvacancy-mediated aging over {real / 86400:.3g} equivalent days "
        f"(paper's formula at c_v = {c_v:.2e})"
    )
    print(
        "mechanism: the vacancy exchanges preferentially with Cu (0.55 eV "
        "barrier vs 0.65 eV for Fe), and the Fe-Cu mixing penalty makes "
        "Cu-Cu contacts sticky — precipitates nucleate and coarsen."
    )


if __name__ == "__main__":
    main()
