"""Body-centered-cubic lattice substrate.

Provides the BCC geometry used by both the MD and KMC engines: site
indexing (the "rank order" of the paper's lattice neighbor list), periodic
boxes, neighbor-shell offset tables, and the 3-D domain decomposition used
to scale across (simulated) processes.

The package exports nothing: :mod:`~repro.lattice.bcc` and
:mod:`~repro.lattice.box` serve every engine,
:mod:`~repro.lattice.domain` only the domain-decomposed ones.
"""
