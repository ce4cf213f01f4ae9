"""EAM potential tests: Equations (1)-(3), forces, table sizes."""

import numpy as np
import pytest

from repro.lattice.box import Box
from repro.potential.eam import EAMPotential
from repro.potential.fe import make_fe_potential, make_fe_tables


class TestTableSet:
    def test_nbytes_ordering(self, potential):
        t = potential.tables
        samples = sum(s.coeff[:, 6].nbytes for s in (t.pair, t.density, t.embedding))
        assert samples * 6 < t.nbytes

    def test_cutoff_validation(self):
        tables = make_fe_tables(n=100)
        with pytest.raises(ValueError, match="cutoff"):
            EAMPotential(tables, cutoff=100.0)
        with pytest.raises(ValueError, match="cutoff"):
            EAMPotential(tables, cutoff=-1.0)

    def test_knot_count_vs_accuracy_and_size(self, fe_params):
        # The 5000-knot choice: cubic convergence buys orders of
        # magnitude per 4x refinement, and the sample column (the
        # compacted layout) is 1/7 of the table at every resolution.
        x = np.linspace(0.8, fe_params.cutoff - 1e-6, 20000)
        exact = fe_params.pair(x)
        errors = []
        for n in (250, 1000, 4000):
            pot = make_fe_potential(fe_params, n=n)
            errors.append(float(np.max(np.abs(pot.phi(x) - exact))))
            pair = pot.tables.pair
            assert pair.coeff[:, 6].nbytes == pytest.approx(
                pair.nbytes / 7, rel=1e-6
            )
        assert errors[0] > errors[1] > errors[2]
        assert errors[2] < 1e-8


class TestPointQueries:
    def test_phi_zero_beyond_cutoff(self, potential):
        assert potential.phi(potential.cutoff + 0.1) == 0.0
        assert potential.dphi(potential.cutoff + 1.0) == 0.0

    def test_density_zero_beyond_cutoff(self, potential):
        assert potential.fdens(potential.cutoff + 0.1) == 0.0

    def test_phi_repulsive_at_short_range(self, potential):
        assert potential.phi(1.0) > 0
        assert potential.phi(0.5) > potential.phi(1.0)

    def test_phi_attractive_at_first_shell(self, potential, fe_params):
        assert potential.phi(fe_params.r0) < 0

    def test_density_decreasing(self, potential):
        r = np.linspace(1.0, 5.0, 50)
        f = potential.fdens(r)
        assert np.all(np.diff(f) < 0)

    def test_embedding_negative_and_decreasing(self, potential):
        rho = np.linspace(0.5, 10.0, 20)
        emb = potential.embed(rho)
        assert np.all(emb < 0)
        assert np.all(np.diff(emb) < 0)


class TestEnergies:
    def test_site_energy_of_isolated_atom_zero(self, potential):
        assert potential.site_energy(np.array([])) == pytest.approx(0.0)

    def test_site_energy_counts_half_bonds(self, potential):
        d = np.array([2.4])
        e = potential.site_energy(d)
        expected = 0.5 * float(potential.phi(2.4)) + float(
            potential.embed(potential.fdens(2.4))
        )
        assert e == pytest.approx(expected)

    def test_dimer_total_energy(self, potential):
        pos = np.array([[0.0, 0, 0], [2.4, 0, 0]])
        e = potential.total_energy(pos)
        expected = float(potential.phi(2.4)) + 2 * float(
            potential.embed(potential.fdens(2.4))
        )
        assert e == pytest.approx(expected)

    def test_total_energy_negative_for_crystal(self, potential, lattice5):
        pos = lattice5.all_positions()
        box = Box.for_lattice(lattice5)
        assert potential.total_energy(pos, box) < 0

    def test_cohesive_energy_per_atom_reasonable(self, potential, lattice5):
        pos = lattice5.all_positions()
        box = Box.for_lattice(lattice5)
        per_atom = potential.total_energy(pos, box) / len(pos)
        # Order of magnitude of metallic cohesion (not calibrated to Fe).
        assert -15.0 < per_atom < -0.5


class TestForces:
    def test_perfect_lattice_forces_vanish(self, potential, lattice5):
        pos = lattice5.all_positions()
        box = Box.for_lattice(lattice5)
        f = potential.pairwise_forces(pos, box)
        assert np.max(np.abs(f)) < 1e-10

    def test_dimer_forces_equal_opposite(self, potential):
        pos = np.array([[0.0, 0, 0], [2.2, 0, 0]])
        f = potential.pairwise_forces(pos)
        assert np.allclose(f[0], -f[1])

    def test_dimer_force_matches_energy_gradient(self, potential):
        h = 1e-6
        def energy(r):
            return potential.total_energy(np.array([[0.0, 0, 0], [r, 0, 0]]))
        r = 2.3
        grad = (energy(r + h) - energy(r - h)) / (2 * h)
        f = potential.pairwise_forces(np.array([[0.0, 0, 0], [r, 0, 0]]))
        assert f[1][0] == pytest.approx(-grad, rel=1e-4)

    def test_force_restoring_for_displaced_atom(self, potential, lattice5):
        # A small displacement must produce a restoring force (crystal
        # stability around the perfect configuration).
        pos = lattice5.all_positions().copy()
        box = Box.for_lattice(lattice5)
        pos[10, 0] += 0.15
        f = potential.pairwise_forces(pos, box)
        assert f[10, 0] < 0

    def test_total_force_zero(self, potential, lattice5):
        rng = np.random.default_rng(4)
        pos = lattice5.all_positions() + rng.normal(0, 0.08, (lattice5.nsites, 3))
        box = Box.for_lattice(lattice5)
        f = potential.pairwise_forces(pos, box)
        assert np.allclose(f.sum(axis=0), 0.0, atol=1e-9)
