"""EAM potential tests: Equations (1)-(3), forces, layout invariance."""

import numpy as np
import pytest

from repro.lattice.box import Box
from repro.potential.eam import EAMPotential
from repro.potential.fe import make_fe_potential, make_fe_tables


class TestTableSet:
    def test_layout_conversion_roundtrip(self, potential):
        comp = potential.tables.compacted()
        trad = comp.traditional()
        assert comp.layout == "compacted"
        assert trad.layout == "traditional"
        assert np.allclose(trad.pair.samples, potential.tables.pair.samples)

    def test_nbytes_ordering(self, potential):
        comp = potential.tables.compacted()
        assert comp.nbytes * 6 < potential.tables.nbytes

    def test_cutoff_validation(self):
        tables = make_fe_tables(n=100)
        with pytest.raises(ValueError, match="cutoff"):
            EAMPotential(tables, cutoff=100.0)
        with pytest.raises(ValueError, match="cutoff"):
            EAMPotential(tables, cutoff=-1.0)

    def test_unknown_layout_rejected(self, potential):
        with pytest.raises(ValueError, match="layout"):
            potential.with_layout("mystery")

    def test_knot_count_vs_accuracy_and_size(self, fe_params):
        # The 5000-knot choice: cubic convergence buys orders of
        # magnitude per 4x refinement, and the compacted layout is 1/7
        # of the traditional one at every resolution.
        x = np.linspace(0.8, fe_params.cutoff - 1e-6, 20000)
        exact = fe_params.pair(x)
        errors = []
        for n in (250, 1000, 4000):
            pot = make_fe_potential(fe_params, n=n)
            errors.append(float(np.max(np.abs(pot.phi(x) - exact))))
            pair = pot.tables.pair.nbytes
            assert pot.tables.compacted().pair.nbytes == pytest.approx(
                pair / 7, rel=1e-6
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


class TestLayoutInvariance:
    def test_energies_identical_across_layouts(
        self, potential, potential_compacted, lattice5
    ):
        rng = np.random.default_rng(11)
        pos = lattice5.all_positions() + rng.normal(0, 0.05, (lattice5.nsites, 3))
        box = Box.for_lattice(lattice5)
        e1 = potential.total_energy(pos, box)
        e2 = potential_compacted.total_energy(pos, box)
        assert e1 == pytest.approx(e2, abs=1e-10)

    def test_forces_identical_across_layouts(
        self, potential, potential_compacted, lattice5
    ):
        rng = np.random.default_rng(12)
        pos = lattice5.all_positions() + rng.normal(0, 0.05, (lattice5.nsites, 3))
        box = Box.for_lattice(lattice5)
        f1 = potential.pairwise_forces(pos, box)
        f2 = potential_compacted.pairwise_forces(pos, box)
        assert np.allclose(f1, f2, atol=1e-10)
