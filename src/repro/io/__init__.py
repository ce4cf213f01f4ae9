"""I/O: trajectory dumps, structured state dumps, checkpoints."""

from repro.io.xyz import write_xyz, read_xyz, write_vacancy_xyz
from repro.io.dump import dump_state, load_state
from repro.io.checkpoint import save_checkpoint, load_checkpoint, CheckpointError
from repro.io.atomic import atomic_write, atomic_write_bytes
from repro.io.store import (
    StoreError,
    TrajectoryReader,
    TrajectoryWriter,
    finalize_store,
    is_store,
    rewind_store,
)

__all__ = [
    "CheckpointError",
    "StoreError",
    "TrajectoryReader",
    "TrajectoryWriter",
    "atomic_write",
    "atomic_write_bytes",
    "dump_state",
    "finalize_store",
    "is_store",
    "load_checkpoint",
    "load_state",
    "read_xyz",
    "rewind_store",
    "save_checkpoint",
    "write_vacancy_xyz",
    "write_xyz",
]
