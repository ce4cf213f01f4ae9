"""Domain decomposition tests: exact partition, ghosts, sectors."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kmc.sublattice import SectorSchedule
from repro.lattice.bcc import BCCLattice, sorted_unique
from repro.lattice.domain import (
    DIRECTIONS,
    DomainDecomposition,
    choose_grid,
    split_range,
)
from repro.md.ghost import GhostExchanger

from .kmc_strip_oracle import interest_masks
from .md_runaway_oracle import (
    DirectionGhostExchanger,
    ghost_site_ranks,
    send_site_ranks,
)


class TestSplitRange:
    def test_even_split(self):
        assert split_range(8, 4) == [(0, 2), (2, 4), (4, 6), (6, 8)]

    def test_remainder_goes_first(self):
        assert split_range(7, 3) == [(0, 3), (3, 5), (5, 7)]

    def test_single_part(self):
        assert split_range(5, 1) == [(0, 5)]

    def test_covers_without_gaps(self):
        bounds = split_range(17, 5)
        assert bounds[0][0] == 0
        assert bounds[-1][1] == 17
        for (_lo1, hi1), (lo2, _hi2) in zip(bounds, bounds[1:], strict=False):
            assert hi1 == lo2

    def test_too_many_parts_rejected(self):
        with pytest.raises(ValueError, match="cannot split"):
            split_range(3, 4)

    @given(n=st.integers(1, 100), parts=st.integers(1, 20))
    @settings(max_examples=100, deadline=None)
    def test_split_property(self, n, parts):
        if parts > n:
            return
        bounds = split_range(n, parts)
        sizes = [hi - lo for lo, hi in bounds]
        assert sum(sizes) == n
        assert max(sizes) - min(sizes) <= 1


class TestChooseGrid:
    def test_cube_for_cubic_counts(self):
        assert choose_grid(8, (8, 8, 8)) == (2, 2, 2)
        assert choose_grid(27, (12, 12, 12)) == (3, 3, 3)

    def test_single_rank(self):
        assert choose_grid(1, (4, 4, 4)) == (1, 1, 1)

    def test_respects_cell_limits(self):
        grid = choose_grid(4, (1, 8, 8))
        assert grid[0] == 1
        assert grid[1] * grid[2] == 4

    def test_impossible_grid_rejected(self):
        with pytest.raises(ValueError, match="no valid process grid"):
            choose_grid(64, (1, 1, 8))


class TestPartition:
    @pytest.mark.parametrize("grid", [(1, 1, 1), (2, 1, 1), (2, 2, 2), (1, 2, 4)])
    def test_owned_sites_partition_exactly(self, grid):
        lat = BCCLattice(8, 8, 8)
        decomp = DomainDecomposition(lat, grid)
        seen = np.concatenate(
            [decomp.subdomain(r).owned_site_ranks(lat) for r in range(decomp.nprocs)]
        )
        assert len(seen) == lat.nsites
        assert np.array_equal(np.sort(seen), np.arange(lat.nsites))

    def test_owner_of_site_consistent(self):
        lat = BCCLattice(6, 6, 6)
        decomp = DomainDecomposition(lat, (2, 3, 1))
        for r in range(decomp.nprocs):
            for s in decomp.subdomain(r).owned_site_ranks(lat)[:10]:
                assert decomp.owner_of_site(int(s)) == r

    def test_proc_coords_roundtrip(self):
        decomp = DomainDecomposition(BCCLattice(8, 8, 8), (2, 2, 2))
        for r in range(decomp.nprocs):
            assert decomp.proc_rank(decomp.proc_coords(r)) == r

    def test_neighbor_rank_wraps(self):
        decomp = DomainDecomposition(BCCLattice(8, 8, 8), (2, 2, 2))
        # Stepping +1 twice along x returns home.
        r1 = decomp.neighbor_rank(0, (1, 0, 0))
        assert decomp.neighbor_rank(r1, (1, 0, 0)) == 0

    def test_ghost_width_cells(self):
        decomp = DomainDecomposition(BCCLattice(8, 8, 8), (2, 2, 2))
        assert decomp.ghost_width_cells(5.6) == 2
        assert decomp.ghost_width_cells(2.8) == 1

    def test_require_cells(self):
        # 9 cells over 2 processes split 5 + 4: the smallest counts.
        decomp = DomainDecomposition(BCCLattice(9, 8, 6), (2, 1, 2))
        decomp.require_cells(3, "a test")
        with pytest.raises(ValueError) as exc_info:
            decomp.require_cells(4, "a test")
        msg = str(exc_info.value)
        assert "9x8x6-cell lattice" in msg
        assert "(2, 1, 2) (4 ranks)" in msg
        assert "(4, 8, 3)" in msg
        assert "a test needs >= 4" in msg


class TestGhostRegions:
    def test_ghost_cells_outside_subdomain(self):
        lat = BCCLattice(8, 8, 8)
        decomp = DomainDecomposition(lat, (2, 2, 2))
        sub = decomp.subdomain(0)
        owned = set(sub.owned_site_ranks(lat).tolist())
        ghosts = set(sub.all_ghost_site_ranks(lat, 1).tolist())
        assert owned.isdisjoint(ghosts)

    def test_send_recv_sets_match_between_neighbors(self):
        # What I pack toward d must be exactly what my d-neighbor expects
        # as its ghost shell toward -d.
        lat = BCCLattice(8, 8, 8)
        decomp = DomainDecomposition(lat, (2, 2, 2))
        width = 2
        for d in DIRECTIONS:
            me = decomp.subdomain(0)
            nbr = decomp.subdomain(decomp.neighbor_rank(0, d))
            sent = send_site_ranks(me, lat, d, width)
            expected = ghost_site_ranks(nbr, lat, tuple(-c for c in d), width)
            assert np.array_equal(sent, expected)

    def test_directional_ghosts_partition_shell(self):
        lat = BCCLattice(8, 8, 8)
        decomp = DomainDecomposition(lat, (2, 2, 2))
        sub = decomp.subdomain(3)
        width = 1
        parts = [ghost_site_ranks(sub, lat, d, width) for d in DIRECTIONS]
        merged = np.concatenate(parts)
        # Directional blocks never overlap...
        assert len(merged) == len(np.unique(merged))
        # ...and tile the whole shell.
        assert np.array_equal(
            np.sort(merged), sub.all_ghost_site_ranks(lat, width)
        )

    def test_ghost_width_validation(self):
        lat = BCCLattice(8, 8, 8)
        sub = DomainDecomposition(lat, (2, 2, 2)).subdomain(0)
        with pytest.raises(ValueError, match="width"):
            sub.all_ghost_site_ranks(lat, 0)
        with pytest.raises(ValueError, match="exceeds"):
            sub.all_ghost_site_ranks(lat, 5)

    def test_ghost_shell_count_matches_geometry(self):
        lat = BCCLattice(8, 8, 8)
        sub = DomainDecomposition(lat, (2, 2, 2)).subdomain(0)
        w = 1
        s = 4  # subdomain side in cells
        expected_cells = (s + 2 * w) ** 3 - s**3
        assert len(sub.all_ghost_site_ranks(lat, w)) == 2 * expected_cells


#: ``(cells, ranks)``: 27 ranks, a 1-rank axis that wraps onto itself,
#: +/- aliasing at 2 ranks per axis and uneven splits.
HALO_CASES = [
    ((16, 16, 16), 8),
    ((12, 12, 12), 2),
    ((8, 8, 16), 4),
    ((12, 12, 12), 8),
    ((8, 8, 8), 1),
    ((16, 8, 8), 2),
    ((9, 12, 15), 6),
    ((12, 12, 12), 27),
]


class TestHaloGeometry:
    """Owner and cover labels against the constructions they replaced:
    the per-direction blocks of the MD ghost plans and the neighbor's
    whole site set plus ``np.isin`` of the interest masks."""

    @pytest.mark.parametrize("width", [1, 2, 3])
    @pytest.mark.parametrize("cells, nranks", HALO_CASES)
    def test_plans_and_interest_equal_the_oracles(self, cells, nranks, width):
        lattice = BCCLattice(*cells)
        decomp = DomainDecomposition(lattice, choose_grid(nranks, cells))
        for rank in range(decomp.nprocs):
            sub = decomp.subdomain(rank)
            sites = sub.site_set(lattice, width)[0].ranks
            ex = GhostExchanger(decomp, rank, sites, width)
            old = DirectionGhostExchanger(decomp, rank, sites, width)
            interest = interest_masks(decomp, rank, sites, width)
            assert [p.neighbor for p in ex.plans] == list(interest)
            assert list(interest) == sorted({p.neighbor for p in old.plans})
            for plan in ex.plans:
                by_dir = [p for p in old.plans if p.neighbor == plan.neighbor]
                for name in ("send_rows", "recv_rows"):
                    want = sorted_unique(
                        np.concatenate([getattr(p, name) for p in by_dir])
                    )
                    assert np.array_equal(getattr(plan, name), want), (rank, name)
                assert np.array_equal(plan.covers, interest[plan.neighbor])
            if min(sub.shape) < max(2 * width, 4):
                continue  # too thin for eight KMC sectors
            sched = SectorSchedule(decomp, rank, sites, width)
            assert sched.neighbors == list(interest)
            for n, mask in interest.items():
                assert np.array_equal(sched.interest_member[n], mask), (rank, n)


class TestSectors:
    def test_eight_sectors_partition_subdomain(self):
        lat = BCCLattice(8, 8, 8)
        sub = DomainDecomposition(lat, (2, 2, 2)).subdomain(5)
        sectors = sub.sectors()
        assert len(sectors) == 8
        merged = np.concatenate([s.owned_site_ranks(lat) for s in sectors])
        assert np.array_equal(np.sort(merged), sub.owned_site_ranks(lat))

    def test_degenerate_axis_yields_fewer_sectors(self):
        lat = BCCLattice(8, 8, 1)
        sub = DomainDecomposition(lat, (2, 2, 1)).subdomain(0)
        assert len(sub.sectors()) == 4

    def test_sector_shapes_halve(self):
        lat = BCCLattice(8, 8, 8)
        sub = DomainDecomposition(lat, (2, 2, 2)).subdomain(0)
        for sec in sub.sectors():
            assert sec.shape == (2, 2, 2)

    def test_contains_cell(self):
        lat = BCCLattice(8, 8, 8)
        owned = set(
            DomainDecomposition(lat, (2, 2, 2)).subdomain(0)
            .owned_site_ranks(lat).tolist()
        )
        assert {lat.rank_of(b, 0, 0, 0) for b in (0, 1)} <= owned
        assert not {lat.rank_of(b, 4, 0, 0) for b in (0, 1)} & owned
