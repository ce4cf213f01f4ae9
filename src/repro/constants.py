"""Physical constants and the internal unit system.

The library uses the "metal" unit convention common to materials MD codes
(LAMMPS ``units metal``):

========== ==============================
quantity   unit
========== ==============================
length     angstrom (A)
energy     electron-volt (eV)
mass       atomic mass unit (amu / g/mol)
time       picosecond (ps)
velocity   A / ps
force      eV / A
temperature kelvin (K)
========== ==============================

With these choices the kinetic energy of an atom is
``0.5 * mass * MVV2E * |v|^2`` in eV, where :data:`MVV2E` converts
``amu * (A/ps)^2`` to eV.
"""

from __future__ import annotations

import math

#: Boltzmann constant in eV / K.
KB_EV: float = 8.617333262e-5

#: Conversion factor: amu * (A/ps)^2 -> eV.
#: 1 amu = 1.66053906660e-27 kg; 1 A/ps = 100 m/s;
#: 1 eV = 1.602176634e-19 J  =>  amu*(A/ps)^2 = 1.0364269e-4 eV.
MVV2E: float = 1.0364269574711572e-4

#: Conversion factor: (eV/A)/amu -> A/ps^2 (force/mass to acceleration).
FM2A: float = 1.0 / MVV2E

#: Mass of an iron atom in amu.
FE_MASS: float = 55.845

#: Mass of a copper atom in amu.
CU_MASS: float = 63.546

#: Equilibrium BCC lattice constant of alpha-iron in angstrom,
#: as used by the paper ("The lattice constant is set to 2.855").
FE_LATTICE_CONSTANT: float = 2.855

#: Vacancy formation energy of alpha-iron in eV.  The paper does not state
#: its value, but its 19.2-day result pins it: with t_threshold = 2e-4,
#: C_MC = 2e-6 and T = 600 K, t_real = t_threshold * C_MC / exp(-E/kT)
#: equals 19.2 days for E ~= 1.8593 eV (close to the ~2 eV literature
#: range for Fe).  We adopt that back-solved value so the timescale
#: arithmetic reproduces the paper's number exactly.
FE_VACANCY_FORMATION_ENERGY: float = 1.8593

#: Default simulation temperature used throughout the paper's evaluation (K).
DEFAULT_TEMPERATURE: float = 600.0

#: Seconds per picosecond.
PS_TO_S: float = 1e-12

#: Seconds per day.
DAY_TO_S: float = 86400.0

#: Number of atoms per BCC conventional unit cell (corner share + center).
BCC_ATOMS_PER_CELL: int = 2


def thermal_velocity_sigma(temperature: float, mass: float) -> float:
    """Standard deviation of one velocity component (A/ps) at ``temperature``.

    From equipartition, each Cartesian component of velocity is normally
    distributed with variance ``kB*T / m`` (in internal units the energy
    conversion :data:`MVV2E` appears).

    Parameters
    ----------
    temperature:
        Temperature in kelvin.
    mass:
        Atomic mass in amu.
    """
    if temperature < 0:
        raise ValueError(f"temperature must be non-negative, got {temperature}")
    if mass <= 0:
        raise ValueError(f"mass must be positive, got {mass}")
    return math.sqrt(KB_EV * temperature / (mass * MVV2E))
