"""Lattice neighbor list tests: static indexing, run-away linked lists."""

import numpy as np
import pytest

from repro.lattice.bcc import BCCLattice
from repro.lattice.box import Box
from repro.md.neighbors.lattice_list import LatticeNeighborList
from repro.md.state import VACANCY_ID, AtomState

CUTOFF = 5.6


@pytest.fixture(scope="module")
def nblist5():
    return LatticeNeighborList(BCCLattice(5, 5, 5), CUTOFF)


class TestConstruction:
    def test_small_box_rejected(self):
        # 4^3 box (11.42 A) < 2*(cutoff+skin).
        with pytest.raises(ValueError, match="2\\*\\(cutoff\\+skin\\)"):
            LatticeNeighborList(BCCLattice(4, 4, 4), CUTOFF)

    def test_bad_cutoff_rejected(self, lattice5):
        with pytest.raises(ValueError, match="cutoff"):
            LatticeNeighborList(lattice5, -1.0)

    def test_matrix_covers_cutoff_plus_skin(self, nblist5):
        lat = nblist5.lattice
        count = len(lat.offsets_within(CUTOFF + nblist5.skin).corner)
        assert nblist5.max_neighbors == count

    def test_skin_widens_candidate_set(self):
        # Exactness up to skin/2 displacement is paid for in candidates:
        # the bare 5.6 A census is 58, and every skin step adds sites.
        lattice = BCCLattice(6, 6, 6)
        widths = [
            LatticeNeighborList(lattice, CUTOFF, skin=skin).max_neighbors
            for skin in (0.0, 0.6, 1.2)
        ]
        assert widths[0] == 58
        assert widths[0] < widths[1] < widths[2]

    def test_subdomain_site_set(self, lattice8):
        from repro.lattice.domain import DomainDecomposition

        decomp = DomainDecomposition(lattice8, (2, 2, 2))
        sub = decomp.subdomain(0)
        owned = sub.owned_site_ranks(lattice8)
        ghosts = sub.all_ghost_site_ranks(lattice8, 3)
        sites = np.union1d(owned, ghosts)
        centrals = np.searchsorted(sites, owned)
        nbl = LatticeNeighborList(lattice8, CUTOFF, sites=sites, centrals=centrals)
        assert nbl.matrix.shape[0] == len(owned)
        # All neighbor rows must reference real local sites.
        assert np.all(nbl.matrix < len(sites))

    def test_thin_ghost_shell_rejected(self, lattice8):
        from repro.lattice.domain import DomainDecomposition

        decomp = DomainDecomposition(lattice8, (2, 2, 2))
        sub = decomp.subdomain(0)
        owned = sub.owned_site_ranks(lattice8)
        ghosts = sub.all_ghost_site_ranks(lattice8, 1)  # too thin for 5.6 A
        sites = np.union1d(owned, ghosts)
        centrals = np.searchsorted(sites, owned)
        with pytest.raises(ValueError, match="ghost shell"):
            LatticeNeighborList(lattice8, CUTOFF, sites=sites, centrals=centrals)

    def test_unsorted_sites_rejected(self, lattice8):
        with pytest.raises(ValueError, match="increasing"):
            LatticeNeighborList(lattice8, CUTOFF, sites=np.array([5, 3, 1]))


class TestLatticePairs:
    def test_pair_count_matches_brute_force(self, nblist5):
        state = AtomState.perfect(nblist5.lattice)
        i, j = nblist5.lattice_pairs(state)
        # With the skin, candidate pairs exceed the cutoff census; the
        # force kernel filters by true distance.  Dedupe check here:
        assert len(np.unique(i * state.n + j)) == len(i)
        assert np.all(i < j)

    def test_vacancy_excluded_from_pairs(self, nblist5):
        state = AtomState.perfect(nblist5.lattice)
        state.make_vacancy(10)
        i, j = nblist5.lattice_pairs(state)
        assert 10 not in i
        assert 10 not in j

    def test_neighbor_rows_symmetric(self, nblist5):
        for row in (0, 7, 100):
            for nbr in nblist5.neighbor_rows(row):
                assert row in nblist5.neighbor_rows(int(nbr))

    def test_neighbor_rows_requires_central(self, lattice8):
        sites = np.arange(lattice8.nsites)
        nbl = LatticeNeighborList(
            lattice8, CUTOFF, sites=sites, centrals=np.array([0, 1])
        )
        with pytest.raises(ValueError, match="central"):
            nbl.neighbor_rows(5)


class TestRunaways:
    def _escaped_state(self, nblist):
        state = AtomState.perfect(nblist.lattice)
        state.x[20] = state.x[20] + np.array([1.5, 0.0, 0.0])
        state.v[20] = [9.0, 0.0, 0.0]
        return state

    def test_escape_creates_vacancy_and_linked_atom(self, lattice5):
        nbl = LatticeNeighborList(lattice5, CUTOFF)
        state = self._escaped_state(nbl)
        stats = nbl.update_runaways(state, threshold=1.2)
        assert stats["escaped"] == 1
        assert state.ids[20] == VACANCY_ID
        assert nbl.n_runaways == 1
        runs = nbl.runaways
        assert runs.ids[0] == 20
        assert np.allclose(runs.v[0], [9.0, 0.0, 0.0])

    def test_atom_count_conserved_through_escape(self, lattice5):
        nbl = LatticeNeighborList(lattice5, CUTOFF)
        state = self._escaped_state(nbl)
        nbl.update_runaways(state, threshold=1.2)
        assert state.natoms + nbl.n_runaways == state.n

    def test_linked_to_nearest_lattice_point(self, lattice5):
        nbl = LatticeNeighborList(lattice5, CUTOFF)
        state = self._escaped_state(nbl)
        nbl.update_runaways(state, threshold=1.2)
        runs = nbl.runaways
        assert runs.host[0] == int(lattice5.nearest_site(runs.x[0]))

    def test_capture_into_vacancy(self, lattice5):
        nbl = LatticeNeighborList(lattice5, CUTOFF)
        state = self._escaped_state(nbl)
        nbl.update_runaways(state, threshold=1.2)
        # Walk the atom back onto its (now vacant) lattice point.
        nbl.runaways.x[0] = state.site_pos[20]
        stats = nbl.update_runaways(state, threshold=1.2)
        assert stats["captured"] == 1
        assert nbl.n_runaways == 0
        assert state.ids[20] == 20

    def test_relink_when_atom_wanders(self, lattice5):
        nbl = LatticeNeighborList(lattice5, CUTOFF)
        state = self._escaped_state(nbl)
        nbl.update_runaways(state, threshold=1.2)
        old_host = nbl.runaways.host[0]
        nbl.runaways.x[0] += np.array([2.855, 0.0, 0.0])
        stats = nbl.update_runaways(state, threshold=1.2)
        assert stats["relinked"] >= 1
        assert nbl.runaways.host[0] != old_host

    def test_no_capture_into_occupied_site(self, lattice5):
        nbl = LatticeNeighborList(lattice5, CUTOFF)
        state = self._escaped_state(nbl)
        nbl.update_runaways(state, threshold=1.2)
        # Park the run-away next to an *occupied* site.
        nbl.runaways.x[0] = state.site_pos[40] + np.array([0.1, 0.0, 0.0])
        stats = nbl.update_runaways(state, threshold=1.2)
        assert stats["captured"] == 0
        assert nbl.n_runaways == 1

    def test_runaway_candidates_cover_cutoff_sphere(self, lattice5):
        nbl = LatticeNeighborList(lattice5, CUTOFF)
        state = self._escaped_state(nbl)
        nbl.update_runaways(state, threshold=1.2)
        rows, keep = nbl.runaway_candidates()
        (rows,) = (r[k] for r, k in zip(rows, keep, strict=True))
        (host,), (x,) = nbl.runaways.host.tolist(), nbl.runaways.x
        # Superset of the host's own stencil...
        host_stencil = set(nbl.neighbor_rows(host).tolist()) | {host}
        assert host_stencil <= set(rows.tolist())
        # ...and covers every occupied site within the true cutoff of the
        # atom's actual (off-lattice) position.
        box = Box.for_lattice(lattice5)
        d = box.distance(x, state.x)
        within = set(
            np.flatnonzero((d <= CUTOFF) & state.occupied).tolist()
        )
        assert within <= set(rows.tolist())

    def test_runaway_pairs_found_through_linked_lists(self, lattice5):
        nbl = LatticeNeighborList(lattice5, CUTOFF)
        state = AtomState.perfect(lattice5)
        # Two adjacent atoms both escape near each other.
        state.x[20] += np.array([1.4, 0.0, 0.0])
        state.x[22] += np.array([1.4, 0.2, 0.0])
        nbl.update_runaways(state, threshold=1.2)
        assert nbl.n_runaways == 2
        a, b = nbl.runaway_pairs()
        assert (a.tolist(), b.tolist()) == ([0], [1])

    def test_distant_runaways_not_paired(self, lattice5):
        nbl = LatticeNeighborList(lattice5, CUTOFF)
        state = AtomState.perfect(lattice5)
        # Cells (0,0,0) and (2,2,2): ~9.9 A apart, beyond cutoff + skin.
        state.x[0] += np.array([1.4, 0.0, 0.0])
        far = int(lattice5.rank_of(0, 2, 2, 2))
        state.x[far] += np.array([1.4, 0.0, 0.0])
        nbl.update_runaways(state, threshold=1.2)
        assert nbl.n_runaways == 2
        a, b = nbl.runaway_pairs()
        assert len(a) == len(b) == 0

    def test_threshold_validation(self, lattice5):
        nbl = LatticeNeighborList(lattice5, CUTOFF)
        with pytest.raises(ValueError, match="threshold"):
            nbl.update_runaways(AtomState.perfect(lattice5), threshold=0.0)

    def test_linked_list_grows_dynamically(self, lattice5):
        # The paper's improvement over [11]: no fixed-size array bound.
        nbl = LatticeNeighborList(lattice5, CUTOFF)
        state = AtomState.perfect(lattice5)
        rows = [10, 12, 14, 16, 18, 30, 32, 34]
        for r in rows:
            state.x[r] += np.array([1.5, 0.3, 0.1])
        nbl.update_runaways(state, threshold=1.2)
        assert nbl.n_runaways == len(rows)
        assert state.nvacancies == len(rows)
