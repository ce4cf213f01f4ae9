"""Blocked CPE kernel tests: correctness + the Figure 9 cost structure."""

import numpy as np
import pytest

from repro.md.forces import compute_energy_forces
from repro.md.neighbors.lattice_list import LatticeNeighborList
from repro.md.state import AtomState
from repro.sunway.arch import SunwayArch
from repro.sunway.kernel import (
    SITE_BUFFER_BYTES,
    STRATEGY_LADDER,
    BlockedEAMKernel,
    KernelStrategy,
    LocalStoreOverflow,
)


@pytest.fixture(scope="module")
def kernel_system(lattice5, potential):
    state = AtomState.perfect(lattice5)
    rng = np.random.default_rng(21)
    state.x = state.x + rng.normal(0, 0.05, state.x.shape)
    nbl = LatticeNeighborList(lattice5, potential.cutoff)
    ref = state.copy()
    energy = compute_energy_forces(potential, ref, nbl)
    return state, nbl, ref.f.copy(), energy


@pytest.fixture(scope="module")
def ladder_reports(potential):
    """Cost-structure runs at a scale where blocks and reuse matter.

    At the 5^3 correctness scale each thread gets one tiny block and the
    per-pass table loads dominate; the Figure 9 cost shape emerges from
    ~3 blocks per slab upward (20^3 = 16,000 sites over 64 threads).
    """
    from repro.lattice.bcc import BCCLattice

    lattice = BCCLattice(20, 20, 20)
    state = AtomState.perfect(lattice)
    rng = np.random.default_rng(21)
    state.x = state.x + rng.normal(0, 0.05, state.x.shape)
    nbl = LatticeNeighborList(lattice, potential.cutoff)
    arch = SunwayArch()
    return {
        s.name: BlockedEAMKernel(arch, potential, s, table_points=5000).run_step(
            state, nbl
        )
        for s in STRATEGY_LADDER
    }


class TestCorrectness:
    @pytest.fixture(scope="class")
    def small_reports(self, kernel_system, potential):
        state, nbl, _f, _e = kernel_system
        arch = SunwayArch()
        return {
            s.name: BlockedEAMKernel(
                arch, potential, s, table_points=5000
            ).run_step(state, nbl)
            for s in STRATEGY_LADDER
        }

    def test_forces_identical_to_md_engine_all_strategies(
        self, kernel_system, small_reports
    ):
        _state, _nbl, ref_forces, _e = kernel_system
        for name, report in small_reports.items():
            assert np.allclose(report.forces, ref_forces, atol=1e-12), name

    def test_energy_identical_to_md_engine(self, kernel_system, small_reports):
        _s, _n, _f, ref_energy = kernel_system
        for name, report in small_reports.items():
            assert report.energy == pytest.approx(ref_energy, rel=1e-12), name


class TestObservation:
    def test_dma_counters_match_the_report(self, kernel_system, potential):
        from repro import observe as obs

        state, nbl, _f, _e = kernel_system
        kernel = BlockedEAMKernel(SunwayArch(), potential, STRATEGY_LADDER[0])
        with obs.observing() as reg:
            report = kernel.run_step(state, nbl)
        assert reg.counters["sunway.dma.gets"] == report.dma.gets
        assert reg.counters["sunway.dma.puts"] == report.dma.puts
        assert reg.counters["sunway.kernel.steps"] == 1


class TestCostStructure:
    def test_traditional_pays_3_gets_per_interaction(self, ladder_reports):
        # "3 times for each neighbor atom at each time step" + 1 get per
        # atom for the embedding pass + the block transfers.
        rep = ladder_reports["TraditionalTable"]
        per_interaction = rep.dma.gets / rep.interactions
        assert 3.0 < per_interaction < 3.3

    def test_compacted_eliminates_per_neighbor_gets(self, ladder_reports):
        trad = ladder_reports["TraditionalTable"]
        comp = ladder_reports["CompactedTable"]
        assert comp.dma.operations < 0.05 * trad.dma.operations

    def test_figure9_ordering(self, ladder_reports):
        t = {k: r.total_time for k, r in ladder_reports.items()}
        assert (
            t["TraditionalTable"]
            > t["CompactedTable"]
            > t["CompactedTable+DataReuse"]
            >= t["CompactedTable+DataReuse+DoubleBuffer"]
        )

    def test_compacted_improvement_in_paper_band(self, ladder_reports):
        # Paper: 54.7% on average; shape assertion per DESIGN.md: >= 40%.
        t = {k: r.total_time for k, r in ladder_reports.items()}
        improvement = (
            t["TraditionalTable"] - t["CompactedTable"]
        ) / t["TraditionalTable"]
        assert 0.40 < improvement < 0.75

    def test_reuse_improvement_small_positive(self, ladder_reports):
        t = {k: r.total_time for k, r in ladder_reports.items()}
        gain = (
            t["CompactedTable"] - t["CompactedTable+DataReuse"]
        ) / t["CompactedTable"]
        assert 0.0 < gain < 0.10

    def test_double_buffer_no_big_gain(self, ladder_reports):
        # Paper: "double buffer does not bring obvious performance
        # improvement".
        t = {k: r.total_time for k, r in ladder_reports.items()}
        gain = (
            t["CompactedTable+DataReuse"]
            - t["CompactedTable+DataReuse+DoubleBuffer"]
        ) / t["CompactedTable+DataReuse"]
        assert gain < 0.08

    def test_double_buffer_halves_block_size(self, ladder_reports):
        db = ladder_reports["CompactedTable+DataReuse+DoubleBuffer"]
        single = ladder_reports["CompactedTable+DataReuse"]
        assert db.block_sites <= single.block_sites // 2 + 1


class TestPlanning:
    def test_block_fits_local_store_with_table(self, potential):
        kernel = BlockedEAMKernel(
            SunwayArch(), potential, STRATEGY_LADDER[1], table_points=5000
        )
        table = kernel.compacted_table_bytes
        assert table + kernel.block_sites * SITE_BUFFER_BYTES <= 64 * 1024

    def test_traditional_table_bytes_match_paper(self, potential):
        from repro.potential.spline import SplineTable

        kernel = BlockedEAMKernel(
            SunwayArch(), potential, STRATEGY_LADDER[0], table_points=5000
        )
        traditional = SplineTable.from_function(
            np.sin, potential.cutoff, n=kernel.table_points
        )
        assert traditional.nbytes == pytest.approx(273 * 1024, rel=0.03)
        assert kernel.compacted_table_bytes == pytest.approx(
            39 * 1024, rel=0.03
        )

    def test_traditional_table_cannot_fit(self, potential):
        # The premise of the compaction: a 273 KB coefficient table does
        # not fit a 64 KB local store, so a plan that keeps a table of
        # that size resident is refused.
        arch = SunwayArch()
        traditional_bytes = 5001 * 7 * 8
        assert traditional_bytes > arch.local_store_bytes
        with pytest.raises(LocalStoreOverflow):
            BlockedEAMKernel(
                arch, potential, STRATEGY_LADDER[1],
                table_points=traditional_bytes // 8 - 1,
            )

    def test_tiny_local_store_rejected(self, potential):
        arch = SunwayArch(local_store_bytes=2 * 1024)
        with pytest.raises(LocalStoreOverflow):
            BlockedEAMKernel(arch, potential, STRATEGY_LADDER[1], table_points=5000)

    def test_unknown_layout_rejected(self):
        with pytest.raises(ValueError, match="layout"):
            KernelStrategy("bad", table_layout="fancy")
