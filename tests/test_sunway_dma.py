"""SW26010 machine description and cost-model arithmetic tests."""

import pytest

from repro.sunway.arch import SunwayArch


class TestArch:
    def test_core_counting_matches_paper(self):
        # 65 cores per CG: "104,000 (including 1,600 master cores and
        # 1,024,000 slave cores)".
        arch = SunwayArch()
        assert arch.cores_per_cg == 65
        assert 1600 * arch.cores_per_cg == 104_000

    def test_dma_time_components(self):
        arch = SunwayArch(dma_latency_s=1e-7, dma_bandwidth=1e9)
        assert arch.dma_time(0) == pytest.approx(1e-7)
        assert arch.dma_time(1000) == pytest.approx(1e-7 + 1e-6)

    def test_compute_time(self):
        arch = SunwayArch()
        assert arch.compute_time(1.45e9) == pytest.approx(1.0)

    def test_validation(self):
        arch = SunwayArch()
        with pytest.raises(ValueError):
            arch.dma_time(-1)
        with pytest.raises(ValueError):
            arch.compute_time(-1)

    def test_memory_fits_atoms(self):
        memory = SunwayArch().memory_per_cg
        # 8 GB / 88 B per atom ~ 9.8e7 atoms; the paper's weak scaling
        # uses 3.9e7 atoms per CG — must fit.
        assert 3.9e7 * 88 <= memory
        assert 2e8 * 88 > memory

