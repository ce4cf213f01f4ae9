"""Quickstart: one coupled MD-KMC damage simulation, end to end.

Runs the paper's pipeline at laptop scale: thermalize a BCC iron box at
600 K, fire a primary knock-on atom through it (MD cascade), hand the
vacancy inventory to AKMC, evolve the clustering, and translate the KMC
clock into real time with the paper's timescale formula.

    python examples/quickstart.py
"""

from repro.core import CoupledSimulation
from repro.service import ScenarioSpec


def main() -> None:
    spec = ScenarioSpec(
        cells=8,            # 1024 lattice sites
        temperature=600.0,  # the paper's evaluation temperature
        md_steps=200,
        pka_energy=160.0,   # primary knock-on atom energy (eV)
        kmc_max_events=800,
        seed=2018,
    )
    sim = CoupledSimulation(spec.to_coupled_config())
    print(f"simulating {sim.lattice.nsites} sites of BCC Fe at 600 K ...")
    result = sim.run()

    print("\n--- MD stage (cascade collision) ---")
    print(f"Frenkel pairs produced : {result.cascade.n_frenkel_pairs}")
    print(f"final lattice T        : {result.cascade.final_temperature:.0f} K")
    print(f"damage after MD        : {result.report_after_md}")

    print("\n--- KMC stage (defect evolution) ---")
    print(f"events executed        : {result.kmc_events}")
    print(f"KMC clock              : {result.kmc_time:.3g} ps")
    print(f"damage after KMC       : {result.report_after_kmc}")

    print("\n--- timescale bridge (paper §3) ---")
    print(
        f"represented real time  : {result.real_time_seconds:.3g} s "
        f"({result.real_time_seconds / 86400:.3g} days)"
    )


if __name__ == "__main__":
    main()
