"""Direct checks of the paper's in-text numeric claims.

One test per quantitative statement in the paper that this reproduction
can evaluate exactly (figure-level claims live in ``test_experiments.py``).
"""

import numpy as np
import pytest

from repro.core.timescale import paper_timescale_days
from repro.lattice.bcc import BCCLattice
from repro.perfmodel.machine import TAIHULIGHT
from repro.sunway.arch import SunwayArch


def _sample_column_bytes() -> int:
    """Bytes of a 5000-segment spline's sample column, which is all the
    compacted layout keeps resident."""
    from repro.potential.spline import SplineTable

    return SplineTable.from_function(np.sin, 5.6, n=5000).coeff[:, 6].nbytes


class TestSection2Claims:
    def test_bcc_has_8_first_shell_events(self):
        # "there are eight possible events for a vacancy (since it may
        # exchange with one of its eight nearest neighbors)".
        lat = BCCLattice(4, 4, 4)
        assert BCCLattice(4, 4, 4).first_shell_ranks(0).shape == (8,)
        assert len(set(lat.first_shell_ranks(5).tolist())) == 8

    def test_traditional_table_is_5000_by_7(self):
        # "Each traditional interpolation table ... is a 5000*7 2D array".
        from repro.potential.spline import SplineTable

        t = SplineTable.from_function(np.sin, 5.6, n=5000)
        assert t.coeff.shape == (5001, 7)

    def test_traditional_table_273kb(self):
        # "The size of each traditional interpolation table is about 273 KB,
        # which exceeds the size of local store (64 KB)".
        from repro.potential.spline import SplineTable

        t = SplineTable.from_function(np.sin, 5.6, n=5000)
        assert t.nbytes == pytest.approx(273 * 1024, rel=0.03)
        assert SunwayArch().local_store_bytes == 64 * 1024
        assert t.nbytes > SunwayArch().local_store_bytes

    def test_compacted_table_39kb_one_seventh(self):
        # "a compacted interpolation table, of which size is only 39 KB
        # (1/7 of the traditional table)": the table's sample column.
        compacted = _sample_column_bytes()
        assert compacted == pytest.approx(39 * 1024, rel=0.03)
        assert 7 * compacted == pytest.approx(273 * 1024, rel=0.03)

    def test_one_compacted_table_leaves_room_for_blocks(self):
        # One resident 39 KB table per pass leaves the local store room
        # for atom blocks ...
        assert SunwayArch().local_store_bytes - _sample_column_bytes() > 20 * 1024

    def test_two_compacted_tables_do_not_fit(self):
        # ... but two do not fit, which is why the EAM step runs one
        # table-pass at a time.
        assert 2 * _sample_column_bytes() > SunwayArch().local_store_bytes

    def test_interpolation_formula_of_figure5(self):
        # "L[5,2] = ( S[0] - S[4] + 8*(S[3] - S[1]) )/12" — the five-point
        # derivative, with S indexed around the segment.
        from repro.potential.spline import knot_derivatives

        s = np.array([2.0, -1.0, 0.5, 3.0, 1.5, 4.0, 0.0])
        m = 2
        window = s[m - 2 : m + 3]  # S[0..4]
        expected = (window[0] - window[4] + 8 * (window[3] - window[1])) / 12
        assert knot_derivatives(s)[m] == pytest.approx(expected)


class TestSection3Claims:
    def test_core_group_is_65_cores(self):
        # "104,000 (including 1,600 master cores and 1,024,000 slave
        # cores)" — the slave count is an in-paper typo: 1,600 CGs have
        # 1,600 x 64 = 102,400 slave cores, consistent with the stated
        # 104,000 total.
        assert TAIHULIGHT.arch.cores_per_cg == 65
        assert 1600 * 65 == 104_000
        assert 1600 * 64 == 102_400

    def test_weak_scaling_top_is_102400_cgs(self):
        # "6,656,000 (including 102,400 master cores and 6,553,600 slave
        # cores)".
        assert TAIHULIGHT.cgs_from_cores(6_656_000) == 102_400
        assert 102_400 * 64 == 6_553_600

    def test_strong_scaling_factor_is_64(self):
        # "Scaling from 97,500 cores to 6,240,000 cores" — a 64x ramp.
        assert 6_240_000 / 97_500 == 64

    def test_kmc_strong_scaling_factor_is_32(self):
        # "The baseline runs on 1,500 cores ... 18.5-fold speedup on
        # 48,000 cores" — 32x ideal, hence 58% efficiency.
        assert 48_000 / 1_500 == 32
        assert 18.5 / 32 == pytest.approx(0.578, abs=0.01)

    def test_md_strong_scaling_efficiency_arithmetic(self):
        # "26.4-fold speedup (41.3% parallel efficiency)".
        assert 26.4 / 64 == pytest.approx(0.413, abs=0.001)

    def test_weak_scaling_atoms_arithmetic(self):
        # "the problem size increases from 6.25e10 atoms to 4.0e12 atoms
        # to keep the workload per core fixed" — 3.9e7 atoms per CG.
        assert 6.25e10 / 1600 == pytest.approx(3.9e7, rel=0.01)
        assert 4.0e12 / 102_400 == pytest.approx(3.9e7, rel=0.01)

    def test_coupled_run_atoms_per_cg(self):
        # Fig 16: "97,500 to 6,240,000 while the number of atoms increases
        # from 5.0e8 to 3.2e10" — 3.3e5 atoms per CG.
        assert 5.0e8 / 1500 == pytest.approx(3.3e5, rel=0.02)
        assert 3.2e10 / 96_000 == pytest.approx(3.3e5, rel=0.02)

    def test_timescale_19_2_days(self):
        # "the temporal scale t_real is equal to 19.2 days".
        assert paper_timescale_days() == pytest.approx(19.2, abs=0.05)

    def test_lattice_constant(self):
        # "The lattice constant is set to 2.855."
        from repro.constants import FE_LATTICE_CONSTANT

        assert FE_LATTICE_CONSTANT == 2.855

    def test_md_time_step_and_horizon(self):
        # "MD simulates ... in the temporal scale of 50 picoseconds (time
        # step is set to 1 femtosecond)" — 50,000 steps, the count the
        # coupled scaling model uses.
        from repro.perfmodel.calibrate import calibrate_from_kernels
        from repro.perfmodel.coupled_model import CoupledScalingModel

        model = CoupledScalingModel(
            calibrate_from_kernels(cells=12, table_points=2000)
        )
        assert model.md_steps == 50_000

    def test_memory_8gb_per_cg(self):
        # "there is total 8 GB DDR3 memory shared by a master core and 64
        # slave cores".
        assert TAIHULIGHT.arch.memory_per_cg == 8 * 1024**3

    def test_l2_cache_256kb(self):
        # "Each master core has a 32 KB L1 cache and a 256 KB L2 cache".
        assert TAIHULIGHT.arch.mpe_l2_bytes == 256 * 1024

    def test_clock_1_45_ghz(self):
        # "Both master and slave cores work at 1.45GHz".
        assert TAIHULIGHT.arch.clock_hz == 1.45e9

    def test_machine_is_40960_nodes(self):
        # "The Sunway TaihuLight has total 40,960 computing nodes."
        assert TAIHULIGHT.nodes == 40_960
