"""BCC lattice geometry and indexing tests (incl. hypothesis properties)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lattice.bcc import BCCLattice
from repro.lattice.box import Box

A = 2.855


class TestConstruction:
    def test_site_count(self):
        assert BCCLattice(3, 4, 5).nsites == 2 * 3 * 4 * 5

    def test_lengths(self):
        lat = BCCLattice(2, 3, 4, a=2.0)
        assert np.allclose(lat.lengths, [4.0, 6.0, 8.0])

    @pytest.mark.parametrize("bad", [(0, 1, 1), (1, -1, 1), (1, 1, 0)])
    def test_rejects_nonpositive_dims(self, bad):
        with pytest.raises(ValueError):
            BCCLattice(*bad)

    def test_rejects_nonpositive_lattice_constant(self):
        with pytest.raises(ValueError, match="lattice constant"):
            BCCLattice(2, 2, 2, a=0.0)


class TestRankRoundtrip:
    def test_all_ranks_roundtrip(self):
        lat = BCCLattice(3, 4, 5)
        ranks = np.arange(lat.nsites)
        b, i, j, k = lat.coords_of(ranks)
        assert np.array_equal(lat.rank_of(b, i, j, k), ranks)

    def test_rank_wraps_periodically(self):
        lat = BCCLattice(4, 4, 4)
        assert lat.rank_of(0, 4, 0, 0) == lat.rank_of(0, 0, 0, 0)
        assert lat.rank_of(1, -1, 2, 2) == lat.rank_of(1, 3, 2, 2)

    def test_rank_out_of_range_rejected(self):
        lat = BCCLattice(2, 2, 2)
        with pytest.raises(ValueError, match="out of range"):
            lat.coords_of(lat.nsites)
        with pytest.raises(ValueError, match="out of range"):
            lat.coords_of(-1)

    def test_bad_basis_rejected(self):
        lat = BCCLattice(2, 2, 2)
        with pytest.raises(ValueError, match="basis"):
            lat.rank_of(2, 0, 0, 0)

    @given(
        nx=st.integers(1, 6),
        ny=st.integers(1, 6),
        nz=st.integers(1, 6),
        data=st.data(),
    )
    @settings(max_examples=50, deadline=None)
    def test_roundtrip_property(self, nx, ny, nz, data):
        lat = BCCLattice(nx, ny, nz)
        rank = data.draw(st.integers(0, lat.nsites - 1))
        b, i, j, k = lat.coords_of(rank)
        assert lat.rank_of(b, i, j, k) == rank

    def test_rank_order_is_spatial(self):
        # Adjacent ranks within a cell pair are the cell's two basis sites.
        lat = BCCLattice(3, 3, 3)
        pos = lat.all_positions()
        for cell in range(lat.ncells):
            d = np.linalg.norm(pos[2 * cell + 1] - pos[2 * cell])
            assert d == pytest.approx(math.sqrt(3) / 2 * lat.a)


class TestPositions:
    def test_corner_and_center(self):
        lat = BCCLattice(2, 2, 2, a=2.0)
        assert np.allclose(lat.position_of(lat.rank_of(0, 1, 0, 1)), [2, 0, 2])
        assert np.allclose(lat.position_of(lat.rank_of(1, 0, 0, 0)), [1, 1, 1])

    def test_all_positions_inside_box(self):
        lat = BCCLattice(3, 4, 5)
        pos = lat.all_positions()
        assert np.all(pos >= 0)
        assert np.all(pos < lat.lengths)

    def test_all_positions_unique(self):
        lat = BCCLattice(3, 3, 3)
        pos = lat.all_positions()
        d = np.linalg.norm(pos[None] - pos[:, None], axis=-1)
        np.fill_diagonal(d, 1.0)
        assert d.min() > 0.1


class TestNearestSite:
    def test_exact_site_positions_map_to_themselves(self):
        lat = BCCLattice(3, 3, 3)
        ranks = np.arange(lat.nsites)
        assert np.array_equal(lat.nearest_site(lat.position_of(ranks)), ranks)

    def test_small_displacement_keeps_site(self):
        lat = BCCLattice(3, 3, 3)
        pos = lat.position_of(7) + np.array([0.3, -0.2, 0.1])
        assert lat.nearest_site(pos) == 7

    @given(
        rank=st.integers(0, 2 * 4**3 - 1),
        dx=st.floats(-0.4, 0.4),
        dy=st.floats(-0.4, 0.4),
        dz=st.floats(-0.4, 0.4),
    )
    @settings(max_examples=80, deadline=None)
    def test_nearest_site_within_half_first_shell(self, rank, dx, dy, dz):
        # Displacements below half the first-shell distance can never
        # change the nearest site.
        lat = BCCLattice(4, 4, 4)
        first_shell = math.sqrt(3) / 2 * lat.a
        delta = np.array([dx, dy, dz])
        if np.linalg.norm(delta) >= 0.49 * first_shell:
            return
        pos = lat.position_of(rank) + delta
        assert int(lat.nearest_site(pos)) == rank


class TestNeighborShells:
    def test_shell_distances(self):
        # The first four shells of the offset table the neighbor lists
        # are built from (distances in units of a).
        off = BCCLattice(4, 4, 4).offsets_within(5.6)
        d = sorted(set(off.corner_distances.round(10)))
        assert d[:4] == pytest.approx(
            [math.sqrt(3) / 2, 1.0, math.sqrt(2), math.sqrt(11) / 2]
        )

    def test_first_shell_has_8_at_correct_distance(self):
        lat = BCCLattice(4, 4, 4)
        box = Box.for_lattice(lat)
        pos = lat.all_positions()
        for rank in (0, 1, 37, lat.nsites - 1):
            nbrs = lat.first_shell_ranks(rank)
            assert nbrs.shape == (8,)
            assert len(set(nbrs.tolist())) == 8
            d = box.distance(pos[rank], pos[nbrs])
            assert np.allclose(d, math.sqrt(3) / 2 * lat.a)

    def test_first_shell_symmetric(self):
        lat = BCCLattice(4, 4, 4)
        for rank in (0, 5, 100):
            for nbr in lat.first_shell_ranks(rank):
                assert rank in lat.first_shell_ranks(int(nbr))

    def test_second_shell_has_6_at_lattice_constant(self):
        lat = BCCLattice(4, 4, 4)
        box = Box.for_lattice(lat)
        pos = lat.all_positions()
        nbrs = lat.second_shell_ranks(10)
        assert nbrs.shape == (6,)
        assert np.allclose(box.distance(pos[10], pos[nbrs]), lat.a)

    def test_first_shell_flips_basis(self):
        lat = BCCLattice(4, 4, 4)
        b0 = lat.coords_of(0)[0]
        for nbr in lat.first_shell_ranks(0):
            assert lat.coords_of(int(nbr))[0] != b0


class TestOffsetsWithin:
    def test_counts_by_shell(self):
        lat = BCCLattice(6, 6, 6)
        # First shell only.
        off = lat.offsets_within(0.9 * lat.a)
        assert len(off.corner) == 8
        assert len(off.center) == 8
        # First + second shells.
        off = lat.offsets_within(1.01 * lat.a)
        assert len(off.corner) == 14
        assert len(off.center) == 14

    def test_count_58_at_md_cutoff(self):
        lat = BCCLattice(6, 6, 6)
        off = lat.offsets_within(5.6)
        assert len(off.corner) == 58
        assert len(off.center) == 58

    def test_distances_within_cutoff(self):
        lat = BCCLattice(6, 6, 6)
        off = lat.offsets_within(5.6)
        assert np.all(off.corner_distances * lat.a <= 5.6 + 1e-9)
        assert np.all(off.corner_distances > 0)

    def test_neighbor_ranks_within_match_brute_force(self):
        lat = BCCLattice(5, 5, 5)
        box = Box.for_lattice(lat)
        pos = lat.all_positions()
        cutoff = 5.6
        for rank in (0, 13, 200):
            got = set(lat.neighbor_ranks_within(rank, cutoff).tolist())
            d = box.distance(pos[rank], pos)
            want = set(np.flatnonzero((d > 0) & (d <= cutoff)).tolist())
            assert got == want

    def test_rejects_nonpositive_cutoff(self):
        with pytest.raises(ValueError, match="cutoff"):
            BCCLattice(3, 3, 3).offsets_within(0.0)

    def test_offsets_symmetric_between_bases(self):
        # BCC is symmetric under basis exchange; the two offset tables
        # must have identical distance multisets.
        off = BCCLattice(6, 6, 6).offsets_within(5.6)
        assert sorted(off.corner_distances.round(9)) == sorted(
            off.center_distances.round(9)
        )
