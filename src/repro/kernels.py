"""The two answers ``benchmarks/ledger`` still asks the program for.

There is one kernel implementation (NumPy; :mod:`repro.md.forces`,
:mod:`repro.kmc.events`) and nothing selects another.  This module
exists only because ``benchmarks/ledger/child.py`` and ``probes.py`` do
``from repro import kernels`` and call these two functions, and only a
``benchmark`` PR may edit them: the next one drops that import with the
ledger's ``*.numba`` rows and deletes this file.  Nothing under
``src/repro`` imports it.  DESIGN §9 has the recipe for a compiled path.
"""


def selected() -> str:
    return "numpy"


def numba_available() -> bool:
    return False
