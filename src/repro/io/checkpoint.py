"""Checkpoint/restore of MD engines and KMC occupancies.

A long coupled run (the paper's is 8.6 hours) must survive interruption;
checkpoints capture enough to resume: the full atom state, the run-away
table, the step counter, and RNG-relevant seeds.

Two checkpoint families live here:

* :func:`save_checkpoint` / :func:`load_checkpoint` — the full MD engine
  state (atoms, run-away table, step counter);
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
import math
import zipfile
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
        "runaway_ids": runs.ids,
        "runaway_x": runs.x,
        "runaway_v": runs.v,
        "runaway_f": runs.f,
        "runaway_rho": runs.rho,
        "runaway_host": runs.host,
        "lattice_dims": np.array(
            [engine.lattice.nx, engine.lattice.ny, engine.lattice.nz]
        ),
        "lattice_a": np.array(engine.lattice.a),
    }
    dump_state(path, engine.state, extra)


def load_checkpoint(path, engine: MDEngine) -> None:
    """Restore a checkpoint into a compatible engine, in place.

    The engine is touched only once the file has been validated: a
    :class:`CheckpointError` names the offending key and the file.
    """
    state, extra = load_state(path)
    dims = extra["lattice_dims"]
    if tuple(dims) != (engine.lattice.nx, engine.lattice.ny, engine.lattice.nz):
        raise CheckpointError(
            f"lattice mismatch: checkpoint {tuple(dims)} vs engine "
            f"({engine.lattice.nx}, {engine.lattice.ny}, {engine.lattice.nz})"
        )
    if abs(float(extra["lattice_a"]) - engine.lattice.a) > 1e-12:
        raise CheckpointError("lattice constant mismatch")
    runs = _checked_runaways(path, extra, state)
    engine.state = state
    engine._step = int(extra["step"])
    engine.nblist.runaways = runs


def _checked_runaways(path, extra: dict, state):
    """The run-away table of a checkpoint, from its ``runaway_*`` arrays."""
    from repro.md.neighbors.lattice_list import RunawayTable

    def bad(name: str, why: str) -> CheckpointError:
        return CheckpointError(f"{path}: runaway_{name} {why}")

    try:
        arrays = {name: extra[f"runaway_{name}"] for name in RunawayTable.FIELDS}
    except KeyError as exc:
        raise CheckpointError(f"{path}: no {exc.args[0]} array") from exc
    n = arrays["ids"].size
    for name, array in arrays.items():
        shape = (n, 3) if name in ("x", "v", "f") else (n,)
        if array.shape != shape:
            raise bad(
                name,
                f"has shape {array.shape}, not {shape}: one row for each "
                f"of the {n} runaway_ids",
            )
    if np.any((arrays["host"] < 0) | (arrays["host"] >= state.n)):
        raise bad("host", f"points outside the {state.n} site rows")
    if np.any(arrays["ids"] < 0):
        raise bad("ids", "holds a negative atom id")
    if len(np.unique(arrays["ids"])) < n:
        raise bad("ids", "names an atom twice")
    if np.isin(arrays["ids"], state.ids).any():
        raise bad("ids", "names an atom that is also on the lattice")
    for name in ("x", "v"):
        if not np.isfinite(arrays[name]).all():
            raise bad(name, "is not finite")
    return RunawayTable(**arrays).by_host()


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
    """Read back a checkpoint written by :func:`save_kmc_checkpoint`.

    Validated at the boundary, as :func:`load_checkpoint` validates the
    run-away table: a file that is not an npz archive or not a KMC
    checkpoint, a missing field, an occupancy that is not 1-D, a
    non-finite clock or a negative counter is a :class:`CheckpointError`
    naming the file and the field.
    """
    try:
        data = np.load(path, allow_pickle=False)
    except (ValueError, EOFError, zipfile.BadZipFile) as exc:
        raise CheckpointError(f"{path} is not an npz archive: {exc}") from exc
    if not isinstance(data, np.lib.npyio.NpzFile):
        raise CheckpointError(f"{path} is not an npz archive")
    with data:
        if "format" not in data.files or str(data["format"]) != KMC_FORMAT:
            raise CheckpointError(f"{path} is not a {KMC_FORMAT} file")
        for name in ("occupancy", "time", "cycle", "events", "rng_state"):
            if name not in data.files:
                raise CheckpointError(f"{path}: no {name} field")
        ckpt = KMCCheckpoint(
            occupancy=data["occupancy"].astype(np.int8).copy(),
            time=float(data["time"]),
            cycle=int(data["cycle"]),
            events=int(data["events"]),
            rng_state=str(data["rng_state"]) or None,
        )
    if ckpt.occupancy.ndim != 1:
        raise CheckpointError(
            f"{path}: occupancy has shape {ckpt.occupancy.shape}, "
            "not one code per site"
        )
    if not math.isfinite(ckpt.time):
        raise CheckpointError(f"{path}: time {ckpt.time} is not finite")
    for name in ("cycle", "events"):
        if getattr(ckpt, name) < 0:
            raise CheckpointError(
                f"{path}: {name} {getattr(ckpt, name)} is negative"
            )
    return ckpt


def rng_state_json(rng: np.random.Generator) -> str:
    """Serialize a NumPy generator's exact state for a checkpoint."""
    return json.dumps(rng.bit_generator.state)


def restore_rng_state(rng: np.random.Generator, state_json: str) -> None:
    """Load a state produced by :func:`rng_state_json` back into ``rng``."""
    try:
        rng.bit_generator.state = json.loads(state_json)
    except (ValueError, KeyError, TypeError) as exc:
        raise CheckpointError(f"invalid RNG state in checkpoint: {exc}") from exc
