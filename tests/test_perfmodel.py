"""Scaling-model tests: calibration, arithmetic, paper-shape bands."""

from dataclasses import fields, replace

import pytest

from repro.perfmodel.calibrate import CalibratedCosts, calibrate_from_kernels
from repro.perfmodel.coupled_model import (
    CoupledScalingModel,
    paper_coupled_atoms_per_cg,
    paper_coupled_cores,
)
from repro.perfmodel.kmc_model import (
    KMCScalingModel,
    paper_kmc_strong_cores,
    paper_kmc_weak_cores,
)
from repro.perfmodel.machine import TAIHULIGHT, ScalingNetwork
from repro.perfmodel.md_model import (
    MDScalingModel,
    boundary_sites,
    paper_core_counts_strong,
    paper_core_counts_weak,
)
from repro.runtime.stats import TrafficStats
from repro.sunway.arch import SunwayArch

#: Every constant of the scaling models and the Sunway cost model, with
#: its source: measured, cited (the paper's §3 or the TaihuLight system
#: paper), or fitted on the named figures.  The traffic the models price
#: is counted (``executed_traffic``), not a field.
MODEL_CONSTANTS = {
    SunwayArch: {
        "clock_hz": "cited: §3, 1.45 GHz",
        "core_groups": "cited: system paper, 4 CGs per processor",
        "cpes_per_cg": "cited: §2.1.2, an 8x8 CPE mesh",
        "local_store_bytes": "cited: §2.1.2, 64 KB per CPE",
        "memory_per_cg": "cited: §3, 8 GB per CG",
        "mpe_l2_bytes": "cited: §3, 256 KB MPE L2",
        "dma_latency_s": "fitted: Fig 9",
        "dma_bandwidth": "fitted: Fig 9",
        "eval_cycles": "fitted: Fig 9",
        "reconstruct_cycles": "fitted: Fig 9",
        "atom_cycles": "fitted: Fig 9",
    },
    CalibratedCosts: {
        "md_atom_step_time": "measured: the blocked CPE kernel",
        "kmc_event_time": "fitted: Fig 14",
        "kmc_l2_speedup": "fitted: Fig 14",
        "kmc_vacancy_record_bytes": "fitted: Fig 14",
        "kmc_site_scan_time": "fitted: Figs 14, 15",
    },
    ScalingNetwork: {
        "alpha": "fitted: Figs 14, 15",
        "beta0": "fitted: Figs 10, 11",
        "gamma": "fitted: Fig 11",
        "sync_contention": "fitted: Figs 14, 15",
    },
}


@pytest.fixture(scope="module")
def costs():
    return calibrate_from_kernels(cells=12, table_points=2000)


def test_model_constants_are_the_listed_set():
    # A constant is added or cut only with its source named above.
    for cls, sources in MODEL_CONSTANTS.items():
        assert [f.name for f in fields(cls)] == list(sources), cls.__name__


class TestMachine:
    def test_total_machine_size(self):
        # 40,960 nodes x 4 CGs x 65 cores = 10,649,600 cores.
        assert TAIHULIGHT.total_cores == 10_649_600

    def test_paper_core_counts_are_whole_cgs(self):
        for cores in (
            paper_core_counts_strong()
            + paper_core_counts_weak()
            + paper_coupled_cores()
        ):
            assert cores % 65 == 0
            TAIHULIGHT.cgs_from_cores(cores)

    def test_non_whole_cg_count_rejected(self):
        with pytest.raises(ValueError):
            TAIHULIGHT.cgs_from_cores(100)

    def test_network_contention_grows(self):
        net = ScalingNetwork()
        assert net.beta(100_000) > net.beta(1_000)
        assert net.beta(1) == net.beta0

    def test_collective_grows_superlinearly_in_depth(self):
        net = ScalingNetwork()
        assert net.collective(100_000) > 2 * net.collective(1_000)

    def test_single_rank_collective_free(self):
        assert ScalingNetwork().collective(1) == 0.0

    def test_beta_needs_a_rank(self):
        with pytest.raises(ValueError):
            ScalingNetwork().beta(0)

    def test_traffic_time_is_the_per_message_sum(self):
        # Many ranks, so the contention term is live in beta(P).
        nranks = 2000
        net = ScalingNetwork()
        sends = {0: [0, 100, 4096], 1: [8], 7: [1 << 20, 0]}
        stats = TrafficStats(nranks)
        for src, sizes in sends.items():
            for nbytes in sizes:
                stats.record_send(src, nbytes)
        for _ in range(3):
            stats.record_collective()
        per_rank = [
            sum(net.alpha + nbytes * net.beta(nranks) for nbytes in sizes)
            for sizes in sends.values()
        ]
        expected = max(per_rank) + 3 * net.collective(nranks)
        assert net.traffic_time(stats.snapshot()) == pytest.approx(
            expected, rel=1e-12
        )


class TestBoundary:
    def test_boundary_sites_subadditive(self):
        # Surface fraction shrinks with subdomain size.
        small = boundary_sites(1e5) / 1e5
        large = boundary_sites(1e8) / 1e8
        assert large < small

    def test_tiny_subdomain_all_boundary(self):
        assert boundary_sites(100.0) == pytest.approx(100.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            boundary_sites(0.0)


class TestCalibration:
    def test_atom_time_plausible(self, costs):
        # Microseconds per atom per step would be absurd; tens of ns is
        # the modeled CG throughput regime.
        assert 1e-9 < costs.md_atom_step_time < 1e-6

    def test_calibration_cached(self):
        a = calibrate_from_kernels(cells=12, table_points=2000)
        b = calibrate_from_kernels(cells=12, table_points=2000)
        assert a.md_atom_step_time == b.md_atom_step_time


class TestMDModel:
    def test_strong_scaling_paper_band(self, costs):
        # Paper: 26.4x / 41.3% at 64x cores.
        rows = MDScalingModel(costs).strong_scaling(
            3.2e10, paper_core_counts_strong()
        )
        top = rows[-1]
        assert 18 < top["speedup"] < 40
        assert 0.30 < top["efficiency"] < 0.55

    def test_strong_scaling_efficiency_monotone_decreasing(self, costs):
        rows = MDScalingModel(costs).strong_scaling(
            3.2e10, paper_core_counts_strong()
        )
        effs = [r["efficiency"] for r in rows]
        assert all(a >= b - 1e-12 for a, b in zip(effs, effs[1:], strict=False))

    def test_weak_scaling_paper_band(self, costs):
        # Paper: 85% at 6.656M cores; compute flat, comm grows.
        rows = MDScalingModel(costs).weak_scaling(
            3.9e7, paper_core_counts_weak()
        )
        assert 0.75 < rows[-1]["efficiency"] < 0.95
        assert rows[-1]["compute"] == pytest.approx(rows[0]["compute"])
        assert rows[-1]["comm"] > rows[0]["comm"]

    def test_weak_efficiency_rides_on_contention(self, costs):
        # No contention -> near-perfect weak scaling; the paper's 85%
        # lives on the contention exponent.
        effs = []
        for gamma in (0.0, 0.3, 0.6):
            # beta held at its fitted 2e-9 s/B at 1,000 ranks.
            network = ScalingNetwork(beta0=2e-9 * 1000**-gamma, gamma=gamma)
            machine = replace(TAIHULIGHT, network=network)
            rows = MDScalingModel(costs, machine).weak_scaling(
                3.9e7, paper_core_counts_weak()
            )
            effs.append(rows[-1]["efficiency"])
        assert effs[0] > 0.97
        assert effs[0] > effs[1] > effs[2]

    def test_memory_headroom(self, costs):
        model = MDScalingModel(costs)
        assert model.max_atoms_per_cg(88) > 3.9e7  # the paper's weak load

    def test_empty_cores_list_rejected(self, costs):
        with pytest.raises(ValueError):
            MDScalingModel(costs).strong_scaling(1e9, [])


class TestKMCModel:
    def test_strong_scaling_superlinear_window(self, costs):
        # Paper: super-linear between 3,000 and 12,000 master cores.
        model = KMCScalingModel(costs, vacancy_concentration=4.5e-5)
        rows = model.strong_scaling(3.2e10, paper_kmc_strong_cores())
        super_cores = [r["cores"] for r in rows if r["efficiency"] > 1.0]
        assert super_cores, "expected a super-linear region"
        assert all(3000 <= c <= 24000 for c in super_cores)

    def test_strong_scaling_final_band(self, costs):
        # Paper: 18.5x / 58.2% at 32x.
        model = KMCScalingModel(costs, vacancy_concentration=4.5e-5)
        rows = model.strong_scaling(3.2e10, paper_kmc_strong_cores())
        assert 10 < rows[-1]["speedup"] < 28
        assert 0.35 < rows[-1]["efficiency"] < 0.85

    def test_l2_transition_in_model(self, costs):
        model = KMCScalingModel(costs, vacancy_concentration=4.5e-5)
        rows = model.strong_scaling(3.2e10, paper_kmc_strong_cores())
        resident = [r["l2_resident"] for r in rows]
        assert resident[0] is False
        assert resident[-1] is True

    def test_weak_scaling_paper_band(self, costs):
        # Paper: 74% at 102,400 cores; compute flat, comm grows.
        model = KMCScalingModel(costs, vacancy_concentration=2e-6)
        rows = model.weak_scaling(1e7, paper_kmc_weak_cores())
        assert 0.60 < rows[-1]["efficiency"] < 0.95
        assert rows[-1]["compute"] == pytest.approx(rows[0]["compute"])
        assert rows[-1]["sync"] > rows[0]["sync"]

    def test_bad_cores_rejected(self, costs):
        with pytest.raises(ValueError):
            KMCScalingModel(costs).cycle_time(1e9, 0)


class TestCoupledModel:
    def test_weak_scaling_paper_band(self, costs):
        # Paper: ~99% -> 75.7% over 97.5k -> 6.24M cores.
        model = CoupledScalingModel(costs)
        rows = model.weak_scaling(
            paper_coupled_atoms_per_cg(), paper_coupled_cores()
        )
        assert rows[0]["efficiency"] == pytest.approx(1.0)
        assert 0.50 < rows[-1]["efficiency"] < 0.90
        effs = [r["efficiency"] for r in rows]
        assert all(a >= b for a, b in zip(effs, effs[1:], strict=False))

    def test_md_dominates_runtime(self, costs):
        # 50,000 MD steps dwarf the KMC cycles in the coupled budget,
        # matching the paper's 8.6-hour MD-heavy breakdown.
        model = CoupledScalingModel(costs)
        r = model.run_time(paper_coupled_atoms_per_cg(), 97500)
        assert r["md_time"] > r["kmc_time"]
