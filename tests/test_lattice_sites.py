"""The one site index: ``SiteSet`` against the ``rank_of``-loop oracle.

Every neighbour table of the tree (MD list, KMC energy / first-shell /
influence stencils) and every rank -> row lookup goes through
:class:`repro.lattice.bcc.SiteSet`; these tests pin its two operations
to ``tests/lattice_oracle.py``, the builders they replaced — rows, valid
mask, slot order and padding value, array-equal.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lattice.bcc import (
    FIRST_SHELL,
    SECOND_SHELL,
    BCCLattice,
    SiteSet,
    sorted_unique,
)
from repro.lattice.domain import DomainDecomposition
from repro.md.neighbors.lattice_list import LatticeNeighborList
from repro.md.state import AtomState
from tests import lattice_oracle as oracle

MD_REACH = 5.6 + 0.6  # MD cutoff + skin
DIMS = [(5, 5, 5), (8, 8, 8), (12, 12, 12), (5, 8, 12)]
#: Process grids whose subdomains can host the widest ghost shell below;
#: on both, the +d and -d neighbours of some axis are the same rank.
GRIDS = [((8, 8, 8), (2, 2, 2)), ((12, 12, 12), (4, 2, 2))]


def _offset_tables(lattice) -> dict:
    influence = math.sqrt(3.0) / 2.0 * lattice.a + 2.9 + 1e-9
    return {
        "first-shell": FIRST_SHELL,
        "energy-2.9": lattice.offsets_within(2.9),
        "md-cutoff+skin": lattice.offsets_within(MD_REACH),
        "influence": lattice.offsets_within(influence),
    }


def _assert_same(got, want) -> None:
    (rows, valid), (want_rows, want_valid) = got, want
    assert rows.dtype == want_rows.dtype and valid.dtype == want_valid.dtype
    assert np.array_equal(valid, want_valid)
    assert np.array_equal(rows, want_rows)  # slot order and padding included


class TestNeighborRows:
    @pytest.mark.parametrize("dims", DIMS)
    def test_whole_lattice_equals_oracle(self, dims):
        lattice = BCCLattice(*dims)
        everything = np.arange(lattice.nsites)
        for offsets in _offset_tables(lattice).values():
            _assert_same(
                SiteSet(lattice).neighbor_rows(offsets),
                oracle.build_static_matrix(lattice, offsets, everything),
            )

    @pytest.mark.parametrize("dims, grid", GRIDS)
    def test_every_rank_of_a_grid_equals_oracle(self, dims, grid):
        lattice = BCCLattice(*dims)
        decomp = DomainDecomposition(lattice, grid)
        for name, offsets in _offset_tables(lattice).items():
            width = math.ceil(offsets.cutoff)  # cutoff is in units of a
            for rank in range(decomp.nprocs):
                sites, owned_rows = decomp.subdomain(rank).site_set(lattice, width)
                # Every row, edge-of-ghost stencils cut off (the KMC use).
                _assert_same(
                    sites.neighbor_rows(offsets),
                    oracle.build_static_matrix(
                        lattice, offsets, sites.ranks, strict=False
                    ),
                )
                # Owned centrals only, complete stencils (the MD use).
                got = sites.neighbor_rows(offsets, owned_rows, strict=True)
                _assert_same(
                    got,
                    oracle.build_static_matrix(
                        lattice, offsets, sites.ranks, owned_rows, strict=True
                    ),
                )
                assert got[1].all(), name

    @given(
        dims=st.sampled_from(DIMS),
        table=st.sampled_from(
            ["first-shell", "energy-2.9", "md-cutoff+skin", "influence"]
        ),
        seed=st.integers(0, 2**32 - 1),
        share=st.floats(0.02, 0.98),
    )
    @settings(max_examples=40, deadline=None)
    def test_random_sorted_subset_equals_oracle(self, dims, table, seed, share):
        lattice = BCCLattice(*dims)
        offsets = _offset_tables(lattice)[table]
        rng = np.random.default_rng(seed)
        ranks = np.flatnonzero(rng.random(lattice.nsites) < share)
        if len(ranks) == 0:
            ranks = np.array([int(rng.integers(lattice.nsites))])
        centrals = np.flatnonzero(rng.random(len(ranks)) < 0.5)
        sites = SiteSet(lattice, ranks)
        _assert_same(
            sites.neighbor_rows(offsets),
            oracle.build_static_matrix(lattice, offsets, ranks, strict=False),
        )
        _assert_same(
            sites.neighbor_rows(offsets, centrals),
            oracle.build_static_matrix(
                lattice, offsets, ranks, centrals, strict=False
            ),
        )

    def test_unequal_counts_pad_with_row_zero(self):
        """No BCC cut-off gives the bases different counts; a hand-made
        table does, and its padding is invalid and points at row 0."""
        lattice = BCCLattice(5, 5, 5)
        lopsided = type(FIRST_SHELL)(
            corner=FIRST_SHELL.corner,
            center=FIRST_SHELL.center[:3],
            corner_distances=FIRST_SHELL.corner_distances,
            center_distances=FIRST_SHELL.center_distances[:3],
            cutoff=FIRST_SHELL.cutoff,
        )
        for sites in (SiteSet(lattice), SiteSet(lattice, np.arange(3, 200))):
            rows, valid = got = sites.neighbor_rows(lopsided)
            _assert_same(
                got,
                oracle.build_static_matrix(
                    lattice, lopsided, sites.ranks, strict=False
                ),
            )
            centers = sites.ranks % 2 == 1
            assert not valid[centers, 3:].any()
            assert np.all(rows[centers, 3:] == 0)

    def test_strict_raises_when_a_central_neighbor_is_absent(self, lattice8):
        sub = DomainDecomposition(lattice8, (2, 2, 2)).subdomain(0)
        sites, owned_rows = sub.site_set(lattice8, 1)  # too thin for 6.2 A
        offsets = lattice8.offsets_within(MD_REACH)
        with pytest.raises(ValueError, match="ghost shell is too thin"):
            sites.neighbor_rows(offsets, owned_rows, strict=True)
        with pytest.raises(ValueError, match="widen the ghost shell"):
            sites.neighbor_rows(offsets, owned_rows, strict=True)

    def test_non_strict_marks_the_absent_slot_invalid(self, lattice8):
        sub = DomainDecomposition(lattice8, (2, 2, 2)).subdomain(0)
        sites, owned_rows = sub.site_set(lattice8, 1)
        offsets = lattice8.offsets_within(MD_REACH)
        rows, valid = sites.neighbor_rows(offsets, owned_rows)
        assert not valid.all()
        assert np.all(rows[~valid] == 0)
        # Every slot still marked valid names the neighbour the whole
        # lattice names for that central and slot.
        ranks, _all = SiteSet(lattice8).neighbor_rows(
            offsets, sites.ranks[owned_rows]
        )
        assert np.array_equal(sites.ranks[rows[valid]], ranks[valid])

    @pytest.mark.parametrize("dims", DIMS)
    def test_public_shell_methods_equal_oracle(self, dims):
        lattice = BCCLattice(*dims)
        everything = np.arange(lattice.nsites)
        for rank in (everything, everything.reshape(2, -1), 7, np.int64(0)):
            first = lattice.first_shell_ranks(rank)
            second = lattice.second_shell_ranks(rank)
            assert first.dtype == second.dtype == np.int64
            assert np.array_equal(first, oracle.first_shell_ranks(lattice, rank))
            assert np.array_equal(second, oracle.second_shell_ranks(lattice, rank))
        assert SECOND_SHELL.max_count == 6
        for rank in (0, 1, lattice.nsites - 1):
            for cutoff in (2.9, MD_REACH):
                assert np.array_equal(
                    lattice.neighbor_ranks_within(rank, cutoff),
                    oracle.neighbor_ranks_within(lattice, rank, cutoff),
                )


class TestRowsOf:
    def test_round_trip(self, lattice8):
        rng = np.random.default_rng(3)
        ranks = np.sort(rng.choice(lattice8.nsites, 300, replace=False))
        sites = SiteSet(lattice8, ranks)
        assert len(sites.ranks) == 300
        rows = rng.integers(0, 300, size=(7, 11))
        assert np.array_equal(sites.rows_of(ranks[rows]), rows)
        assert sites.rows_of(ranks[42]) == 42  # scalars too
        got, found = sites.rows_of(ranks[rows], missing="mask")
        assert np.array_equal(got, rows) and found.all()

    def test_absent_rank_raises_or_masks(self):
        sites = SiteSet(None, np.array([2, 5, 9, 14]))
        for absent in (0, 6, 99):
            with pytest.raises(ValueError, match=f"site rank {absent} is not present"):
                sites.rows_of(np.array([5, absent]))
            rows, found = sites.rows_of(np.array([5, absent, 14]), missing="mask")
            assert rows.tolist() == [1, 0, 3]
            assert found.tolist() == [True, False, True]

    def test_whole_lattice_returns_its_argument(self, lattice5):
        sites = SiteSet(lattice5)
        ranks = np.array([[0, 17], [249, 3]])
        assert sites.rows_of(ranks) is ranks
        rows, found = sites.rows_of(ranks, missing="mask")
        assert np.array_equal(rows, ranks) and found.all()
        with pytest.raises(ValueError, match="not present"):
            sites.rows_of(np.array([lattice5.nsites]))

    @pytest.mark.parametrize("dims, grid", GRIDS)
    def test_subdomain_site_set_is_owned_plus_ghosts(self, dims, grid):
        lattice = BCCLattice(*dims)
        decomp = DomainDecomposition(lattice, grid)
        for rank in range(decomp.nprocs):
            sub = decomp.subdomain(rank)
            owned = sub.owned_site_ranks(lattice)
            want = np.union1d(owned, sub.all_ghost_site_ranks(lattice, 2))
            sites, owned_rows = sub.site_set(lattice, 2)
            assert not sites.whole
            assert np.array_equal(sites.ranks, want)
            assert np.array_equal(owned_rows, np.searchsorted(want, owned))

    @given(st.lists(st.integers(-50, 50), max_size=60))
    @settings(max_examples=60, deadline=None)
    def test_sorted_unique_is_np_unique(self, values):
        values = np.array(values, dtype=np.int64)
        got = sorted_unique(values)
        want = np.unique(values)
        assert got.dtype == want.dtype and np.array_equal(got, want)


class TestStaticHalfPairs:
    @pytest.mark.parametrize("cells", [5, 8])
    def test_filtered_static_list_equals_per_call_mask(self, cells):
        lattice = BCCLattice(cells, cells, cells)
        nbl = LatticeNeighborList(lattice, 5.6)
        rng = np.random.default_rng(cells)
        for vacant_share in (0.0, 0.01, 0.3):
            state = AtomState.perfect(lattice)
            for row in np.flatnonzero(rng.random(state.n) < vacant_share):
                state.make_vacancy(int(row))
            i, j = nbl.lattice_pairs(state)
            want_i, want_j = oracle.lattice_pairs(
                nbl.centrals, nbl.matrix, nbl.valid, state.occupied
            )
            # Element for element: the order decides the bincount
            # accumulation order downstream, and with it every digest.
            assert np.array_equal(i, want_i) and np.array_equal(j, want_j)
            assert i.dtype == want_i.dtype and j.dtype == want_j.dtype

    #: 4x2x2 on 8^3 would leave 2-cell subdomains, thinner than the
    #: 3-cell shell of the MD stencil: ``Subdomain`` rejects it.
    RANK_GRIDS = [
        (8, (2, 1, 1)), (8, (2, 2, 2)),
        (12, (2, 1, 1)), (12, (2, 2, 2)), (12, (4, 2, 2)),
    ]

    @pytest.mark.parametrize("cells,grid", RANK_GRIDS)
    def test_rank_list_is_the_whole_lattice_list_touching_owned(self, cells, grid):
        """A rank's half pairs are the serial list restricted to the pairs
        with an owned endpoint — element for element, in the serial order,
        so ``np.bincount`` accumulates an owned atom's terms as the serial
        engine does.  The whole-lattice list comes from the oracle alone."""
        lattice = BCCLattice(cells, cells, cells)
        decomp = DomainDecomposition(lattice, grid)
        width = decomp.ghost_width_cells(MD_REACH)
        occ = np.random.default_rng(cells + sum(grid)).random(lattice.nsites) > 0.1
        everything = np.arange(lattice.nsites)
        matrix, valid = oracle.build_static_matrix(
            lattice, lattice.offsets_within(MD_REACH), everything
        )
        all_i, all_j = oracle.lattice_pairs(everything, matrix, valid, occ)
        for rank in range(decomp.nprocs):
            site_set, owned_rows = decomp.subdomain(rank).site_set(lattice, width)
            sites = site_set.ranks
            nbl = LatticeNeighborList(
                lattice, 5.6, sites=sites, centrals=owned_rows
            )
            state = AtomState.for_sites(lattice, sites)
            state.ids[~occ[sites]] = -1
            i, j = nbl.lattice_pairs(state)
            owned = np.zeros(lattice.nsites, dtype=bool)
            owned[sites[owned_rows]] = True
            touches = owned[all_i] | owned[all_j]
            assert np.array_equal(sites[i], all_i[touches]), rank
            assert np.array_equal(sites[j], all_j[touches]), rank


class TestOneSiteIndex:
    """Tooling guard: the copies this index replaced must not grow back."""

    #: Files under ``src/repro`` that may call ``searchsorted``, and why.
    SEARCHES = {
        "lattice/bcc.py": "SiteSet.rows_of, the one rank -> row search",
        "kmc/catalog.py": "prefix descent over cumulative rates, not sites",
        "io/store.py": "frame lookup by time, not sites",
    }
    #: Files that may call ``rank_of`` on anything but literal integers.
    RANK_ARITHMETIC = {
        "lattice/bcc.py": "nearest_site; everything else is SiteSet tables",
        "lattice/domain.py": "_cells_to_ranks: box blocks of cells, no offsets",
    }

    def test_no_second_search_or_offset_loop_under_src(self):
        import ast
        from pathlib import Path

        import repro

        root = Path(repro.__file__).resolve().parent
        offenders = []
        for path in sorted(root.rglob("*.py")):
            rel = path.relative_to(root).as_posix()
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if not isinstance(node, ast.Call):
                    continue
                name = getattr(node.func, "attr", getattr(node.func, "id", None))
                if name == "searchsorted" and rel not in self.SEARCHES:
                    offenders.append(f"{rel}:{node.lineno}: searchsorted(")
                if (
                    name == "rank_of"
                    and rel not in self.RANK_ARITHMETIC
                    and not all(isinstance(a, ast.Constant) for a in node.args)
                ):
                    offenders.append(f"{rel}:{node.lineno}: rank_of(<arrays>)")
        assert not offenders, (
            "rank -> row lookups go through SiteSet.rows_of and offsets -> "
            "rows through SiteSet.neighbor_rows (repro.lattice.bcc); a "
            "legitimate other use is listed in this test with its reason:\n"
            + "\n".join(offenders)
        )


_NUMPY_MA_PROBE = """
import sys
import numpy as np
from repro.kmc.akmc import SerialAKMC
from repro.kmc.events import VACANCY
from repro.lattice.bcc import BCCLattice
from repro.md.cascade import CascadeConfig, run_cascade
from repro.md.engine import MDConfig, MDEngine
from repro.potential.fe import make_fe_potential

pot = make_fe_potential(n=300)
lattice = BCCLattice(6, 6, 6)
occ = np.ones(lattice.nsites, dtype=np.int8)
occ[::29] = VACANCY
events = SerialAKMC(lattice, pot, occupancy=occ, seed=3).run(max_events=40).events
engine = MDEngine(BCCLattice(5, 5, 5), pot, MDConfig(temperature=300.0, seed=1))
run_cascade(engine, CascadeConfig(pka_energy=400.0, nsteps=25))
print(events, engine.nblist.n_runaways, "numpy.ma" in sys.modules)
"""


def test_per_event_and_per_runaway_dedup_never_imports_numpy_ma():
    """``np.unique`` imports ``numpy.ma`` on first use (12 ms, again in
    every forked rank and worker); the per-event influence set and the
    per-run-away stencil dedupe with ``sorted_unique`` instead."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import repro

    env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).resolve().parents[1]))
    out = subprocess.run(
        [sys.executable, "-c", _NUMPY_MA_PROBE],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    ).stdout.split()
    events, runaways, numpy_ma = int(out[0]), int(out[1]), out[2]
    assert events == 40 and runaways > 0  # both dedup sites really ran
    assert numpy_ma == "False"
