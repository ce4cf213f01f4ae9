"""Cascade damage study: PKA energy sweep with trajectory output.

Reproduces the MD half of the paper's §2.1 workload in detail: for a
range of primary-knock-on-atom energies, run the cascade, count Frenkel
pairs, inspect the displacement spectrum, and dump the final atom and
vacancy configurations as extended-XYZ files (viewable in OVITO/VMD).

    python examples/cascade_damage.py [output_dir]

Without an explicit output_dir the XYZ frames go to a fresh directory
under the system temp dir — never into the working tree.
"""

import sys
import tempfile
from pathlib import Path

import numpy as np

from repro.analysis.stats import displacement_histogram
from repro.analysis.vacancies import conservation_check
from repro.io.xyz import write_vacancy_xyz, write_xyz
from repro.lattice.bcc import BCCLattice
from repro.md.cascade import CascadeConfig, run_cascade
from repro.md.engine import MDConfig, MDEngine
from repro.potential.fe import make_fe_potential


def main(outdir: Path) -> None:
    outdir.mkdir(parents=True, exist_ok=True)
    potential = make_fe_potential(n=2000)
    print(f"{'PKA (eV)':>9} {'vacancies':>10} {'runaways':>9} {'T final':>8}")
    for pka in (60.0, 120.0, 180.0):
        lattice = BCCLattice(6, 6, 6)
        engine = MDEngine(
            lattice, potential, MDConfig(temperature=300.0, seed=3)
        )
        result = run_cascade(
            engine,
            CascadeConfig(
                pka_energy=pka,
                nsteps=150,
                temperature=300.0,
                displacement_threshold=1.2,
            ),
        )
        assert conservation_check(engine.state, engine.nblist)
        print(
            f"{pka:>9.0f} {len(result.vacancy_rows):>10} "
            f"{result.n_runaways:>9} {result.final_temperature:>8.0f}"
        )
        tag = f"pka{int(pka)}"
        # Atom configuration (on-lattice + run-aways) and vacancy cloud.
        occ = engine.state.occupied
        runaway_x = engine.nblist.runaways.x
        positions = np.concatenate([engine.state.x[occ], runaway_x])
        symbols = ["Fe"] * int(occ.sum()) + ["Fe"] * len(runaway_x)
        write_xyz(
            outdir / f"atoms_{tag}.xyz",
            symbols,
            positions,
            comment=f"cascade, PKA {pka} eV",
            lengths=lattice.lengths,
        )
        write_vacancy_xyz(
            outdir / f"vacancies_{tag}.xyz",
            lattice,
            engine.state.ids[engine.state.vacancy_rows()] * 0
            + engine.state.vacancy_rows(),
        )

        # Displacement spectrum: thermal bulk + cascade tail.
        disp = engine.state.displacement(engine.box)
        centers, counts = displacement_histogram(
            disp[occ], nbins=12, dmax=1.2
        )
        bar = "".join(
            "#" if c else "." for c in (counts > 0)
        )
        print(f"          displacement spectrum 0..1.2 A: [{bar}]")
    print(f"\nwrote XYZ frames to {outdir}/")


if __name__ == "__main__":
    main(
        Path(sys.argv[1])
        if len(sys.argv) > 1
        else Path(tempfile.mkdtemp(prefix="repro-cascade-"))
    )
