"""Structured NumPy dumps of simulation state.

A dump is a single ``.npz`` with every array of an
:class:`~repro.md.state.AtomState` (or a KMC occupancy) plus metadata —
the low-level building block :mod:`repro.io.checkpoint` composes.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.io.atomic import atomic_write

if TYPE_CHECKING:
    from repro.md.state import AtomState

#: Format marker stored in every dump.
FORMAT = "repro-state-v1"


def dump_state(path, state: AtomState, extra: dict | None = None) -> None:
    """Atomically write all state arrays (and extras) to ``path``.

    The dump goes through :func:`repro.io.atomic.atomic_write` (unique
    temp file, fsync, rename), so a crash mid-write — including a
    fault-injected kill while checkpointing — can never destroy a
    previous dump at the same path.
    """
    payload = {
        "format": np.array(FORMAT),
        "ids": state.ids,
        "x": state.x,
        "v": state.v,
        "f": state.f,
        "rho": state.rho,
        "site_pos": state.site_pos,
        "mass": np.array(state.mass),
    }
    for key, value in (extra or {}).items():
        if key in payload:
            raise ValueError(f"extra key {key!r} collides with a state array")
        payload[key] = np.asarray(value)
    with atomic_write(path) as fh:
        np.savez_compressed(fh, **payload)


def load_state(path) -> tuple[AtomState, dict]:
    """Read a dump back; returns ``(state, extra_arrays)``."""
    from repro.md.state import AtomState

    with np.load(path, allow_pickle=False) as data:
        if str(data["format"]) != FORMAT:
            raise ValueError(
                f"{path} is not a {FORMAT} dump (found {data['format']!r})"
            )
        state = AtomState(
            ids=data["ids"],
            x=data["x"],
            site_pos=data["site_pos"],
            mass=float(data["mass"]),
        )
        state.v = data["v"].copy()
        state.f = data["f"].copy()
        state.rho = data["rho"].copy()
        known = {"format", "ids", "x", "v", "f", "rho", "site_pos", "mass"}
        extra = {k: data[k].copy() for k in data.files if k not in known}
    return state, extra
