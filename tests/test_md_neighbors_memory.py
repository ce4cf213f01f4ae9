"""Memory accounting tests (the 4e12 vs 8e11 atoms claim)."""

import pytest

from repro.md.neighbors.memory import (
    BASE_ATOM_RECORD,
    lattice_list_footprint,
    linked_cell_footprint,
    max_atoms_in_memory,
    neighbors_within,
    verlet_list_footprint,
)

CUTOFF = 5.6


class TestNeighborCensus:
    def test_first_shell(self):
        assert neighbors_within(2.5) == 8

    def test_two_shells(self):
        assert neighbors_within(2.9) == 14

    def test_md_cutoff(self):
        assert neighbors_within(5.6) == 58

    def test_with_skin(self):
        assert neighbors_within(6.0) > 58


class TestFootprints:
    def test_lattice_list_near_base_record(self):
        fp = lattice_list_footprint(CUTOFF)
        assert fp.bytes_per_atom == pytest.approx(BASE_ATOM_RECORD, rel=1e-3)

    def test_verlet_list_dominated_by_neighbor_indexes(self):
        fp = verlet_list_footprint(CUTOFF)
        m = neighbors_within(CUTOFF + 0.4)
        assert fp.bytes_per_atom > BASE_ATOM_RECORD + m * 4 - 1

    def test_linked_cell_between(self):
        lat = lattice_list_footprint(CUTOFF).bytes_per_atom
        cell = linked_cell_footprint(CUTOFF).bytes_per_atom
        verlet = verlet_list_footprint(CUTOFF).bytes_per_atom
        assert lat < cell < verlet

    def test_max_atoms_inverse_of_total(self):
        fp = lattice_list_footprint(CUTOFF)
        n = fp.max_atoms(1 << 30)
        assert fp.fixed_bytes + fp.bytes_per_atom * n <= (1 << 30)
        assert fp.fixed_bytes + fp.bytes_per_atom * (n + 2) > (1 << 30)

    def test_zero_capacity(self):
        assert verlet_list_footprint(CUTOFF).max_atoms(0) == 0


class TestPaperClaim:
    def test_lattice_list_advantage_matches_paper_band(self):
        # Paper: 4e12 atoms (lattice list) vs ~8e11 (neighbor list) on the
        # same machine — a ~5x advantage.  Our accounting gives 4-5x.
        atoms = max_atoms_in_memory(8 * 1024**3, CUTOFF)
        advantage = atoms["lattice_list"] / atoms["verlet_list"]
        assert 3.5 < advantage < 6.5

    def test_full_machine_capacity_magnitude(self):
        # 102,400 CGs x 8 GB must hold ~1e13 atoms with the lattice list —
        # comfortably above the paper's 4e12 production point.
        capacity = 102_400 * 8 * 1024**3
        atoms = max_atoms_in_memory(capacity, CUTOFF)
        assert atoms["lattice_list"] > 4e12
        # And the Verlet list must NOT reach 4e12 (the paper's reason for
        # the new structure).
        assert atoms["verlet_list"] < 4e12
