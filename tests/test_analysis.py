"""Analysis tests: defect identification, g(r), distributions."""

import numpy as np
import pytest

from repro.analysis.stats import (
    cluster_size_distribution,
    displacement_histogram,
    radial_distribution,
)
from repro.analysis.vacancies import (
    conservation_check,
    frenkel_pairs,
    vacancy_concentration,
)
from repro.lattice.box import Box
from repro.md.neighbors.lattice_list import LatticeNeighborList
from repro.md.state import AtomState


@pytest.fixture()
def damaged(lattice5, potential):
    state = AtomState.perfect(lattice5)
    nbl = LatticeNeighborList(lattice5, potential.cutoff)
    state.x[20] += np.array([1.5, 0.0, 0.0])
    state.x[40] += np.array([0.0, 1.5, 0.2])
    nbl.update_runaways(state, threshold=1.2)
    return state, nbl


class TestVacancies:
    def test_identify_vacancies(self, damaged):
        state, _nbl = damaged
        assert set(state.vacancy_rows().tolist()) == {20, 40}

    def test_identify_interstitials(self, damaged):
        _state, nbl = damaged
        assert set(nbl.runaways.ids.tolist()) == {20, 40}

    def test_frenkel_pairs(self, damaged):
        state, nbl = damaged
        assert frenkel_pairs(state, nbl) == 2

    def test_conservation(self, damaged):
        state, nbl = damaged
        assert conservation_check(state, nbl)

    def test_concentration(self, damaged):
        state, _nbl = damaged
        assert vacancy_concentration(state) == pytest.approx(2 / state.n)


class TestRDF:
    def test_bcc_peaks_at_shell_distances(self, lattice5):
        pos = lattice5.all_positions()
        box = Box.for_lattice(lattice5)
        r, g = radial_distribution(pos, box, rmax=5.0, nbins=100)
        # The strongest peak bins must bracket the first shell (2.47 A).
        peak_r = r[np.argmax(g)]
        assert 2.3 < peak_r < 2.7

    def test_gap_below_first_shell(self, lattice5):
        pos = lattice5.all_positions()
        box = Box.for_lattice(lattice5)
        r, g = radial_distribution(pos, box, rmax=5.0, nbins=50)
        assert np.all(g[r < 2.0] == 0.0)

    def test_validation(self, lattice5):
        box = Box.for_lattice(lattice5)
        with pytest.raises(ValueError):
            radial_distribution(np.zeros((1, 3)), box, rmax=5.0)
        with pytest.raises(ValueError):
            radial_distribution(np.zeros((5, 3)), box, rmax=-1.0)


class TestDistributions:
    def test_cluster_size_distribution(self, lattice5):
        nbr = int(lattice5.first_shell_ranks(10)[0])
        far = int(lattice5.rank_of(0, 2, 2, 2))
        dist = cluster_size_distribution(
            lattice5, np.array([10, nbr, far])
        )
        assert dist == {2: 1, 1: 1}

    def test_displacement_histogram_counts(self):
        d = np.array([0.1, 0.2, 0.2, 0.9])
        centers, counts = displacement_histogram(d, nbins=3, dmax=0.9)
        assert counts.sum() == 4
        assert len(centers) == 3

    def test_displacement_histogram_auto_range(self):
        centers, counts = displacement_histogram(np.array([1.0, 2.0]))
        assert counts.sum() == 2
