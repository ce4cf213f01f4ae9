"""I/O: trajectory dumps, structured state dumps, checkpoints.

* :mod:`~repro.io.atomic` — write-to-temp, fsync, rename.
* :mod:`~repro.io.store` — the streaming chunked trajectory store.
* :mod:`~repro.io.checkpoint` — MD engine and KMC occupancy checkpoints
  (a KMC checkpoint loads no MD module).
* :mod:`~repro.io.dump`, :mod:`~repro.io.xyz` — ``.npz`` state dumps and
  XYZ frames.

The package exports nothing: import from the defining submodule, so a
run loads only the formats it reads or writes.
"""
