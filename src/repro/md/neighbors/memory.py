"""Bytes-per-atom accounting of the three neighbor structures.

Supports the paper's headline memory claim: "Using the traditional data
structures (such as neighbor list), we only simulate about 8.0e11 atoms on
6.656 million cores" versus 4.0e12 with the lattice neighbor list — a ~5x
memory advantage.  The accounting below follows each structure's actual
storage scheme (not our NumPy vectorization choices):

* every structure pays the base atom record: id + position + velocity +
  force + electron density;
* the Verlet list additionally stores, per atom, the index list of all
  neighbors within cutoff + skin, plus the reference positions used by the
  skin criterion;
* linked cells additionally store one `next` pointer per atom and a `head`
  pointer per cell;
* the lattice neighbor list stores *nothing* per atom beyond the base
  record — neighbor indexes are static arithmetic — plus a constant-size
  offset table and linked-list nodes only for the (rare) run-away atoms.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.constants import BCC_ATOMS_PER_CELL, FE_LATTICE_CONSTANT
from repro.lattice.bcc import BCCLattice

#: Bytes of the base per-atom record: id(8) + x(24) + v(24) + f(24) + rho(8).
BASE_ATOM_RECORD = 88

#: Bytes of a neighbor index entry (LAMMPS uses 32-bit local indexes).
NEIGHBOR_INDEX_BYTES = 4

#: Bytes of a linked-list pointer.
POINTER_BYTES = 8


def neighbors_within(cutoff: float, a: float = FE_LATTICE_CONSTANT) -> int:
    """Number of BCC sites within ``cutoff`` of a site: the length of the
    lattice's static offset table."""
    return len(BCCLattice(1, 1, 1, a=a).offsets_within(cutoff).corner)


@dataclass(frozen=True)
class MemoryFootprint:
    """Memory accounting result for one neighbor structure."""

    structure: str
    bytes_per_atom: float
    fixed_bytes: int

    def max_atoms(self, capacity_bytes: float) -> int:
        """Largest atom count fitting in ``capacity_bytes``."""
        usable = capacity_bytes - self.fixed_bytes
        if usable <= 0:
            return 0
        return int(usable // self.bytes_per_atom)


def lattice_list_footprint(
    cutoff: float,
    a: float = FE_LATTICE_CONSTANT,
    runaway_fraction: float = 1e-6,
) -> MemoryFootprint:
    """Lattice neighbor list: base record + rare run-away linked nodes.

    ``runaway_fraction`` is the paper's "several millionth" of atoms off
    lattice; each costs a linked node (record + host pointer + next
    pointer).  The static offset table is a constant.
    """
    m = neighbors_within(cutoff, a)
    offsets_table = 2 * m * 4 * POINTER_BYTES  # two bases, (db,di,dj,dk) rows
    runaway_node = BASE_ATOM_RECORD + 2 * POINTER_BYTES
    per_atom = BASE_ATOM_RECORD + runaway_fraction * runaway_node
    return MemoryFootprint("lattice_list", per_atom, offsets_table)


def verlet_list_footprint(
    cutoff: float,
    skin: float = 0.4,
    a: float = FE_LATTICE_CONSTANT,
) -> MemoryFootprint:
    """Verlet list: base record + per-atom neighbor indexes + skin refs."""
    m = neighbors_within(cutoff + skin, a)
    per_atom = (
        BASE_ATOM_RECORD
        + m * NEIGHBOR_INDEX_BYTES  # the neighbor index list
        + POINTER_BYTES  # per-atom list length/offset bookkeeping
        + 24  # reference positions for the skin displacement check
    )
    return MemoryFootprint("verlet_list", per_atom, 0)


def linked_cell_footprint(
    cutoff: float,
    a: float = FE_LATTICE_CONSTANT,
) -> MemoryFootprint:
    """Linked cells: base record + next pointer + per-cell head pointer."""
    atoms_per_cell = BCC_ATOMS_PER_CELL * (cutoff / a) ** 3
    per_atom = (
        BASE_ATOM_RECORD
        + POINTER_BYTES  # `next` chain entry
        + POINTER_BYTES / atoms_per_cell  # amortized `head` pointer
    )
    return MemoryFootprint("linked_cell", per_atom, 0)


def max_atoms_in_memory(
    capacity_bytes: float,
    cutoff: float,
    a: float = FE_LATTICE_CONSTANT,
    skin: float = 0.4,
) -> dict[str, int]:
    """Atoms each structure fits into ``capacity_bytes`` (the §3 claim)."""
    return {
        "lattice_list": lattice_list_footprint(cutoff, a).max_atoms(capacity_bytes),
        "verlet_list": verlet_list_footprint(cutoff, skin, a).max_atoms(
            capacity_bytes
        ),
        "linked_cell": linked_cell_footprint(cutoff, a).max_atoms(capacity_bytes),
    }
