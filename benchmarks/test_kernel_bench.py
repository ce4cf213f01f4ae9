"""Kernel microbenchmarks: the hot paths the event catalog, the
bincount scatter and the compiled kernels accelerate.

Unlike the figure benchmarks these measure this implementation's own
kernel throughput — serial KMC events/sec and EAM pairs/sec — and
publish the numbers as observe gauges, so running under
``REPRO_BENCH_PHASES=<dir>`` drops machine-readable JSON (phases,
counters, and the throughput gauges) next to the wall-clock stats.
The catalog's own speed is carried by the ledger
(``kmc.serial_step_p50_us``, ``kmc.catalog_refresh_us_per_row``,
``kmc_events_per_s``); the flat rebuild it replaced lives on only as
the test oracle, so there is no old-vs-new KMC timing here.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro import kernels, observe as obs
from repro.lattice.bcc import BCCLattice
from repro.md.forces import PairTable, eam_evaluate

needs_numba = pytest.mark.skipif(
    not kernels.numba_available(),
    reason="compiled kernel path needs numba (REPRO_KERNELS=numba CI leg)",
)


@pytest.fixture(scope="module")
def kmc_1k_system(potential_bench):
    """16^3 lattice (8,192 sites) with 1,000 vacancies — the catalog's
    acceptance workload."""
    from repro.kmc.akmc import place_random_vacancies
    from repro.kmc.events import KMCModel, RateParameters

    lattice = BCCLattice(16, 16, 16)
    params = RateParameters()
    model = KMCModel(lattice, potential_bench, params)
    occ0 = place_random_vacancies(model, 1000, np.random.default_rng(3))
    return lattice, params, model, occ0


def _events_per_second(engine, nevents: int, warmup: int = 3) -> float:
    for _ in range(warmup):
        engine.step()
    t0 = time.perf_counter()
    for _ in range(nevents):
        engine.step()
    return nevents / (time.perf_counter() - t0)


def test_serial_catalog_event_throughput(benchmark, potential_bench, kmc_1k_system):
    """Steady-state catalog events/sec (pytest-benchmark statistics)."""
    from repro.kmc.akmc import SerialAKMC

    lattice, params, _model, occ0 = kmc_1k_system
    engine = SerialAKMC(lattice, potential_bench, params, occ0, seed=4)
    engine.step()  # populate the catalog outside the timed region

    benchmark(engine.step)
    rate = 1.0 / benchmark.stats["mean"]
    obs.set_gauge("bench.kmc.serial.events_per_s", rate)
    print(f"\ncatalog event throughput: {rate:,.0f} events/s")


def test_batched_rate_kernel(benchmark, potential_bench, kmc_1k_system):
    """vacancy_events_batch over all 1,000 vacancies at once."""
    _lattice, _params, model, occ0 = kmc_1k_system
    vrows = np.flatnonzero(occ0 == 0)

    counts, _targets, rates = benchmark(
        model.vacancy_events_batch, vrows, occ0
    )
    assert counts.sum() == len(rates)
    per_s = len(vrows) / benchmark.stats["mean"]
    obs.set_gauge("bench.kmc.batch_rate_rows_per_s", per_s)
    print(f"\nbatched rate evaluations: {per_s:,.0f} vacancies/s")


@pytest.fixture(scope="module")
def eam_pair_workload(potential_bench):
    """A dense ~400k half-pair table over a perturbed 12^3 crystal."""
    from repro.lattice.box import Box
    from repro.md.neighbors.verlet_list import VerletNeighborList
    from repro.md.state import AtomState

    lattice = BCCLattice(12, 12, 12)
    state = AtomState.perfect(lattice)
    state.x = state.x + np.random.default_rng(0).normal(0, 0.05, state.x.shape)
    box = Box.for_lattice(lattice)
    i, j = VerletNeighborList(box, potential_bench.cutoff).pairs(state.x)
    table = PairTable.from_pairs(state.x, i, j, box, potential_bench.cutoff)
    return state.n, table


def test_eam_scatter_pairs_per_second(benchmark, potential_bench, eam_pair_workload):
    """Two-pass EAM evaluation with the bincount scatter."""
    n, table = eam_pair_workload
    result = benchmark(eam_evaluate, potential_bench, n, table)
    assert result.energy < 0
    pairs_per_s = len(table) / benchmark.stats["mean"]
    obs.set_gauge("bench.md.eam_pairs_per_s", pairs_per_s)
    print(
        f"\nEAM scatter throughput: {pairs_per_s:,.0f} pairs/s "
        f"({len(table):,} pairs)"
    )


def test_eam_bincount_vs_add_at(potential_bench, eam_pair_workload):
    """Old-vs-new force scatter: bincount against the 2-D np.add.at it
    replaced (the worst offender — unbuffered element-wise ufunc loop)."""
    n, table = eam_pair_workload
    fvec = np.random.default_rng(1).normal(size=(len(table), 3))

    def scatter_bincount():
        forces = np.empty((n, 3))
        for k in range(3):
            forces[:, k] = np.bincount(
                table.i, weights=fvec[:, k], minlength=n
            ) - np.bincount(table.j, weights=fvec[:, k], minlength=n)
        return forces

    def scatter_add_at():
        forces = np.zeros((n, 3))
        np.add.at(forces, table.i, fvec)
        np.add.at(forces, table.j, -fvec)
        return forces

    def best_of(fn, repeats=7):
        fn()  # warm-up
        return min(
            (lambda t0: (fn(), time.perf_counter() - t0)[1])(time.perf_counter())
            for _ in range(repeats)
        )

    t_new, t_old = best_of(scatter_bincount), best_of(scatter_add_at)
    speedup = t_old / t_new
    obs.set_gauge("bench.md.scatter_bincount_speedup", speedup)
    print(
        f"\nforce scatter over {len(table):,} pairs: bincount {t_new * 1e3:.2f} ms, "
        f"np.add.at {t_old * 1e3:.2f} ms, speedup {speedup:.1f}x"
    )
    assert np.allclose(scatter_bincount(), scatter_add_at(), rtol=1e-12, atol=1e-12)


# ----------------------------------------------------------------------
# Kernel backend: numpy reference vs compiled loops
# ----------------------------------------------------------------------
@needs_numba
def test_numba_eam_matches_and_speeds_up(
    potential_bench, eam_pair_workload, monkeypatch
):
    """Compiled EAM evaluation: bit-identical forces, reported speedup."""
    n, table = eam_pair_workload
    timings = {}
    results = {}
    for backend in ("numpy", "numba"):
        monkeypatch.setenv("REPRO_KERNELS", backend)
        eam_evaluate(potential_bench, n, table)  # warm-up (JIT compile)
        t0 = time.perf_counter()
        for _ in range(5):
            results[backend] = eam_evaluate(potential_bench, n, table)
        timings[backend] = (time.perf_counter() - t0) / 5
    assert np.array_equal(
        results["numba"].forces, results["numpy"].forces
    )
    assert results["numba"].energy == results["numpy"].energy
    speedup = timings["numpy"] / timings["numba"]
    obs.set_gauge("bench.kernels.eam_numba_speedup", speedup)
    print(
        f"\nEAM over {len(table):,} pairs: numpy "
        f"{timings['numpy'] * 1e3:.2f} ms, numba "
        f"{timings['numba'] * 1e3:.2f} ms, speedup {speedup:.2f}x"
    )


@needs_numba
def test_numba_serial_kmc_beats_numpy_catalog(
    potential_bench, kmc_1k_system, monkeypatch
):
    """The compiled rate kernel must not lose to the NumPy one.

    Acceptance: catalog + numba events/sec exceeds catalog + numpy
    events/sec on the 1,000-vacancy workload.
    """
    from repro.kmc.akmc import SerialAKMC

    lattice, params, _model, occ0 = kmc_1k_system
    rates = {}
    for backend in ("numpy", "numba"):
        monkeypatch.setenv("REPRO_KERNELS", backend)
        rates[backend] = _events_per_second(
            SerialAKMC(lattice, potential_bench, params, occ0, seed=2), 300
        )
    speedup = rates["numba"] / rates["numpy"]
    obs.set_gauge("bench.kmc.serial.numba_events_per_s", rates["numba"])
    obs.set_gauge("bench.kmc.serial.numba_vs_numpy", speedup)
    print(
        f"\nserial KMC @1000 vacancies: numpy {rates['numpy']:,.0f} ev/s, "
        f"numba {rates['numba']:,.0f} ev/s ({speedup:.2f}x)"
    )
    assert rates["numba"] >= rates["numpy"], (
        f"compiled rate kernel lost to numpy: {rates['numba']:,.0f} vs "
        f"{rates['numpy']:,.0f} events/s"
    )
