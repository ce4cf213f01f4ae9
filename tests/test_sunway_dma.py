"""DMA engine, arch constants and Athread pool tests."""

import pytest

from repro.sunway.arch import SunwayArch
from repro.sunway.athread import AthreadPool
from repro.sunway.dma import DMAEngine


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


class TestDMAEngine:
    def test_get_put_counters(self):
        dma = DMAEngine()
        dma.get(100, count=3)
        dma.put(50)
        assert dma.stats.gets == 3
        assert dma.stats.puts == 1
        assert dma.stats.get_bytes == 300
        assert dma.stats.put_bytes == 50
        assert dma.stats.operations == 4

    def test_time_accumulates(self):
        arch = SunwayArch(dma_latency_s=1e-6, dma_bandwidth=1e9)
        dma = DMAEngine(arch)
        t = dma.get(1000, count=2)
        assert t == pytest.approx(2 * (1e-6 + 1e-6))
        assert dma.stats.time == pytest.approx(t)

    def test_validation(self):
        with pytest.raises(ValueError):
            DMAEngine().get(-1)


class TestAthreadPool:
    def test_default_64_threads(self):
        assert AthreadPool().nthreads == 64

    def test_partition_covers_everything(self):
        pool = AthreadPool(8)
        slabs = pool.partition(100)
        assert len(slabs) == 8
        assert sum(s.nsites for s in slabs) == 100
        assert slabs[0].start == 0
        assert slabs[-1].stop == 100

    def test_partition_balanced(self):
        slabs = AthreadPool(7).partition(100)
        sizes = [s.nsites for s in slabs]
        assert max(sizes) - min(sizes) <= 1

    def test_small_input_leaves_idle_threads(self):
        slabs = AthreadPool(64).partition(10)
        assert sum(1 for s in slabs if s.nsites == 0) == 54

    def test_rows(self):
        slab = AthreadPool(4).partition(8)[1]
        assert slab.rows().tolist() == [2, 3]

    def test_team_time_is_max(self):
        assert AthreadPool.team_time([1.0, 3.0, 2.0]) == 3.0
        assert AthreadPool.team_time([]) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            AthreadPool(0)
        with pytest.raises(ValueError):
            AthreadPool(4).partition(-1)
