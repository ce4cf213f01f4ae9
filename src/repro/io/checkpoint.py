"""Checkpoint/restore of MD engines and KMC occupancies.

A long coupled run (the paper's is 8.6 hours) must survive interruption;
checkpoints capture enough to resume: the full atom state, the run-away
atom linked lists, the step counter, and RNG-relevant seeds.

Two checkpoint families live here:

* :func:`save_checkpoint` / :func:`load_checkpoint` — the full MD engine
  state (atoms, run-away linked lists, step counter);
* :func:`save_kmc_checkpoint` / :func:`load_kmc_checkpoint` — the
  lightweight per-cycle AKMC record the fault-recovery supervisor
  restores from: the global occupancy, the simulated clock, the cycle /
  event counters, and (for the serial engine) the exact RNG state.

Both families write through :func:`repro.io.atomic.atomic_write`
(uniquely named temp file, fsync, ``os.replace``), so a crash or power
loss mid-write can never destroy — or truncate — the last good
checkpoint, and concurrent checkpointers sharing a path never corrupt
each other's temp file.

Nothing under :mod:`repro.md` is imported at module level: a KMC run
that checkpoints loads no MD module, and whoever holds an
``MDEngine`` has already loaded the ones the MD family touches.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.io.atomic import atomic_write
from repro.io.dump import dump_state, load_state

if TYPE_CHECKING:
    from repro.md.engine import MDEngine

#: Format marker of a KMC checkpoint file.
KMC_FORMAT = "repro-kmc-checkpoint-v1"


class CheckpointError(RuntimeError):
    """A checkpoint could not be restored into the given engine."""


def save_checkpoint(path, engine: MDEngine) -> None:
    """Atomically write the engine's resumable state to ``path`` (.npz).

    Routed through the shared atomic dump path, so an interrupted write
    never destroys the last good MD checkpoint.
    """
    runs = engine.nblist.runaways
    extra = {
        "step": np.array(engine._step),
        "runaway_ids": np.array([a.id for a in runs], dtype=np.int64),
        "runaway_x": np.array([a.x for a in runs]).reshape(-1, 3),
        "runaway_v": np.array([a.v for a in runs]).reshape(-1, 3),
        "runaway_f": np.array([a.f for a in runs]).reshape(-1, 3),
        "runaway_rho": np.array([a.rho for a in runs]),
        "runaway_host": np.array([a.host for a in runs], dtype=np.int64),
        "lattice_dims": np.array(
            [engine.lattice.nx, engine.lattice.ny, engine.lattice.nz]
        ),
        "lattice_a": np.array(engine.lattice.a),
    }
    dump_state(path, engine.state, extra)


def load_checkpoint(path, engine: MDEngine) -> None:
    """Restore a checkpoint into a compatible engine, in place."""
    from repro.md.neighbors.lattice_list import RunawayAtom

    state, extra = load_state(path)
    dims = extra["lattice_dims"]
    if tuple(dims) != (engine.lattice.nx, engine.lattice.ny, engine.lattice.nz):
        raise CheckpointError(
            f"lattice mismatch: checkpoint {tuple(dims)} vs engine "
            f"({engine.lattice.nx}, {engine.lattice.ny}, {engine.lattice.nz})"
        )
    if abs(float(extra["lattice_a"]) - engine.lattice.a) > 1e-12:
        raise CheckpointError("lattice constant mismatch")
    engine.state = state
    engine._step = int(extra["step"])
    engine.nblist.hosts.clear()
    for i in range(len(extra["runaway_ids"])):
        atom = RunawayAtom(
            id=int(extra["runaway_ids"][i]),
            x=extra["runaway_x"][i].copy(),
            v=extra["runaway_v"][i].copy(),
            host=int(extra["runaway_host"][i]),
            f=extra["runaway_f"][i].copy(),
            rho=float(extra["runaway_rho"][i]),
        )
        engine.nblist.hosts.setdefault(atom.host, []).append(atom)


# ----------------------------------------------------------------------
# Lightweight AKMC checkpoints (the recovery supervisor's restart unit)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class KMCCheckpoint:
    """One resumable AKMC snapshot.

    Attributes
    ----------
    occupancy:
        The *global* site array (int8 ATOM/VACANCY codes).
    time:
        Simulated KMC clock (ps) — stored bit-exactly, so a resumed run
        accumulates the identical float sum as an uninterrupted one.
    cycle:
        Parallel engine: completed cycles.  Serial engine: equals
        ``events``.
    events:
        Global executed-event count at the snapshot.
    rng_state:
        JSON-encoded ``bit_generator.state`` of the serial engine's
        generator (``None`` for parallel runs, whose streams are pure
        functions of (seed, rank, cycle, sector) and need no state).
    """

    occupancy: np.ndarray
    time: float
    cycle: int
    events: int
    rng_state: str | None = None


def save_kmc_checkpoint(
    path,
    occupancy: np.ndarray,
    *,
    time: float,
    cycle: int = 0,
    events: int = 0,
    rng_state: str | None = None,
) -> None:
    """Atomically write a :class:`KMCCheckpoint` to ``path`` (.npz).

    The snapshot lands in a *uniquely named* sibling temp file, is
    fsynced, and is renamed over ``path`` only once durable: a rank
    crash (or fault injection, or power loss) during checkpointing
    leaves the previous checkpoint intact, and two concurrent
    checkpointers targeting one path cannot corrupt each other.
    """
    with atomic_write(path) as fh:
        np.savez_compressed(
            fh,
            format=np.array(KMC_FORMAT),
            occupancy=np.asarray(occupancy, dtype=np.int8),
            time=np.array(float(time)),
            cycle=np.array(int(cycle)),
            events=np.array(int(events)),
            rng_state=np.array(rng_state if rng_state is not None else ""),
        )


def load_kmc_checkpoint(path) -> KMCCheckpoint:
    """Read back a checkpoint written by :func:`save_kmc_checkpoint`."""
    with np.load(path, allow_pickle=False) as data:
        if "format" not in data.files or str(data["format"]) != KMC_FORMAT:
            raise CheckpointError(f"{path} is not a {KMC_FORMAT} file")
        rng_state = str(data["rng_state"])
        return KMCCheckpoint(
            occupancy=data["occupancy"].astype(np.int8).copy(),
            time=float(data["time"]),
            cycle=int(data["cycle"]),
            events=int(data["events"]),
            rng_state=rng_state or None,
        )


def rng_state_json(rng: np.random.Generator) -> str:
    """Serialize a NumPy generator's exact state for a checkpoint."""
    return json.dumps(rng.bit_generator.state)


def restore_rng_state(rng: np.random.Generator, state_json: str) -> None:
    """Load a state produced by :func:`rng_state_json` back into ``rng``."""
    try:
        rng.bit_generator.state = json.loads(state_json)
    except (ValueError, KeyError, TypeError) as exc:
        raise CheckpointError(f"invalid RNG state in checkpoint: {exc}") from exc
