"""Cross-module property-based tests (hypothesis).

Invariants that cut across subsystems: symmetry of the physics, exactness
of pack/unpack paths, conservation under arbitrary event sequences.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kmc.events import ATOM, VACANCY, KMCModel, RateParameters
from repro.lattice.bcc import BCCLattice
from repro.lattice.box import Box
from repro.md.state import AtomState
from repro.potential.fe import FeParameters, make_fe_potential
from tests.kmc_oracle import vacancy_events


@pytest.fixture(scope="module")
def small_potential():
    return make_fe_potential(n=400)


@pytest.fixture(scope="module")
def model(small_potential):
    return KMCModel(BCCLattice(6, 6, 6), small_potential, RateParameters())


class TestPhysicalSymmetries:
    @given(
        shift_x=st.floats(-10, 10),
        shift_y=st.floats(-10, 10),
        shift_z=st.floats(-10, 10),
    )
    @settings(max_examples=20, deadline=None)
    def test_energy_translation_invariant(
        self, small_potential, shift_x, shift_y, shift_z
    ):
        lat = BCCLattice(5, 5, 5)
        box = Box.for_lattice(lat)
        rng = np.random.default_rng(0)
        x = lat.all_positions() + rng.normal(0, 0.05, (lat.nsites, 3))
        e0 = small_potential.total_energy(x, box)
        shifted = box.wrap(x + np.array([shift_x, shift_y, shift_z]))
        e1 = small_potential.total_energy(shifted, box)
        assert e1 == pytest.approx(e0, rel=1e-9)

    @given(axis_perm=st.permutations([0, 1, 2]))
    @settings(max_examples=6, deadline=None)
    def test_energy_axis_permutation_invariant(
        self, small_potential, axis_perm
    ):
        # Cubic symmetry: permuting the coordinate axes of a cubic box
        # leaves the total energy unchanged.
        lat = BCCLattice(5, 5, 5)
        box = Box.for_lattice(lat)
        rng = np.random.default_rng(3)
        x = lat.all_positions() + rng.normal(0, 0.05, (lat.nsites, 3))
        e0 = small_potential.total_energy(x, box)
        e1 = small_potential.total_energy(x[:, list(axis_perm)], box)
        assert e1 == pytest.approx(e0, rel=1e-9)

    @given(seed=st.integers(0, 100))
    @settings(max_examples=10, deadline=None)
    def test_forces_are_energy_gradient(self, small_potential, seed):
        # Random atom, random direction: finite differences must match.
        lat = BCCLattice(5, 5, 5)
        box = Box.for_lattice(lat)
        rng = np.random.default_rng(seed)
        x = lat.all_positions() + rng.normal(0, 0.05, (lat.nsites, 3))
        atom = int(rng.integers(0, lat.nsites))
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        h = 1e-6
        xp = x.copy()
        xp[atom] += h * direction
        xm = x.copy()
        xm[atom] -= h * direction
        grad = (
            small_potential.total_energy(xp, box)
            - small_potential.total_energy(xm, box)
        ) / (2 * h)
        f = small_potential.pairwise_forces(x, box)[atom]
        assert float(f @ direction) == pytest.approx(-grad, abs=1e-4)


class TestKMCInvariants:
    @given(seed=st.integers(0, 1000), nevents=st.integers(1, 40))
    @settings(max_examples=15, deadline=None)
    def test_vacancy_count_invariant_under_any_event_sequence(
        self, model, seed, nevents
    ):
        from repro.kmc.akmc import SerialAKMC, place_random_vacancies

        occ0 = place_random_vacancies(model, 8, np.random.default_rng(seed))
        engine = SerialAKMC(
            model.lattice, model.potential, model.params, occ0, seed=seed
        )
        engine.run(max_events=nevents)
        assert int(np.sum(engine.occ == VACANCY)) == 8

    @given(seed=st.integers(0, 1000))
    @settings(max_examples=15, deadline=None)
    def test_rates_strictly_positive_and_finite(self, model, seed):
        rng = np.random.default_rng(seed)
        occ = model.perfect_occupancy()
        rows = rng.choice(model.nrows, size=6, replace=False)
        occ[rows] = VACANCY
        for v in rows:
            targets, rates = vacancy_events(model, int(v), occ)
            assert np.all(np.isfinite(rates))
            assert np.all(rates > 0)
            assert len(targets) <= 8

    @given(seed=st.integers(0, 1000))
    @settings(max_examples=10, deadline=None)
    def test_swap_is_self_inverse(self, model, seed):
        rng = np.random.default_rng(seed)
        occ = model.perfect_occupancy()
        v = int(rng.integers(0, model.nrows))
        occ[v] = VACANCY
        t = int(model.first_matrix[v][rng.integers(0, 8)])
        if occ[t] != ATOM:
            return
        before = occ.copy()
        model.execute_swap(occ, v, t)
        model.execute_swap(occ, t, v)
        assert np.array_equal(occ, before)


class TestStateInvariants:
    @given(
        rows=st.lists(st.integers(0, 249), min_size=0, max_size=20, unique=True)
    )
    @settings(max_examples=30, deadline=None)
    def test_vacancy_bookkeeping_consistent(self, rows):
        lat = BCCLattice(5, 5, 5)
        state = AtomState.perfect(lat)
        for row in rows:
            state.make_vacancy(row)
        assert state.natoms + state.nvacancies == state.n
        assert set(state.vacancy_rows().tolist()) == set(rows)

    @given(seed=st.integers(0, 1000), temperature=st.floats(1.0, 2000.0))
    @settings(max_examples=25, deadline=None)
    def test_thermal_init_exact_temperature_and_no_drift(
        self, seed, temperature
    ):
        from repro.md.thermostat import maxwell_boltzmann_velocities

        lat = BCCLattice(5, 5, 5)
        state = AtomState.perfect(lat)
        maxwell_boltzmann_velocities(
            state, temperature, np.random.default_rng(seed)
        )
        assert state.temperature() == pytest.approx(temperature, rel=1e-6)
        assert np.allclose(state.momentum(), 0.0, atol=1e-8)


class TestTableProperties:
    @given(
        d=st.floats(0.3, 1.2),
        alpha=st.floats(1.5, 3.5),
        x=st.floats(0.0, 5.5),
    )
    @settings(max_examples=40, deadline=None)
    def test_layout_equivalence_over_random_potentials(self, d, alpha, x):
        # The compacted layout keeps only the sample column; the table it
        # rebuilds answers every query exactly as the full one.
        params = FeParameters(d_morse=d, alpha=alpha)
        from repro.potential.spline import SplineTable

        trad = SplineTable.from_function(params.pair, params.cutoff, n=64)
        rebuilt = SplineTable(trad.coeff[:, 6].copy(), trad.xmax)
        assert float(rebuilt(x)) == float(trad(x))
