"""Kernel backend dispatch: NumPy reference vs optional compiled loops.

The EAM two-pass evaluation (:mod:`repro.md.forces`) and the batched
vacancy-rate kernel (:mod:`repro.kmc.events`) each have two
interchangeable implementations:

* ``numpy`` — the vectorized reference path, always available.
* ``numba`` — the scalar-loop kernels of :mod:`repro.kernels.impl`,
  compiled with ``numba.njit`` when numba is importable.  The loops are
  written to be bit-identical to the NumPy path (same accumulation
  order, same pairwise-summation tree, no fastmath), so the existing
  thread-vs-process equivalence tests hold across kernel backends too.

Selection mirrors the runtime backend convention: explicit argument
beats the ``REPRO_KERNELS`` environment variable beats the ``auto``
default (numba if importable, else numpy).  Requesting ``numba`` where
numba is missing degrades gracefully to the NumPy path with a one-shot
``RuntimeWarning`` and a ``kernels.numba_unavailable`` observe counter —
never an error, because the physics is identical either way.

:mod:`repro.kernels.impl` is imported by the three functions of the
compiled path only, so a NumPy-kernel run never loads the loop twins.
"""

from __future__ import annotations

import os
import warnings

import numpy as np

from repro import observe as obs
from repro.kernels._jit import HAVE_NUMBA

KERNEL_BACKENDS = ("numpy", "numba", "auto")

#: Widest per-row reduction the compiled kernels reproduce bit-exactly:
#: NumPy's pairwise summation switches from the single eight-accumulator
#: block to a recursive split past 128 elements, so wider energy-shell
#: rows (a huge ``energy_cutoff``) fall back to the NumPy path.
MAX_ROW_WIDTH = 128

#: Cached-on-object marker for tables the compiled path cannot consume.
_UNSUPPORTED = ("unsupported-table-layout",)

_EMPTY_COEFF = np.empty((0, 7))
_EMPTY_SAMPLES = np.empty(0)

_warned_missing_numba = False


def numba_available() -> bool:
    """Whether the compiled kernel path can actually compile."""
    return HAVE_NUMBA


def resolve_kernels(choice: str | None = None) -> str:
    """Normalize a kernel-backend choice to ``'numpy'`` or ``'numba'``.

    Explicit ``choice`` beats ``REPRO_KERNELS`` beats ``auto``; unset,
    empty, or whitespace-only environment values fall through to the
    default, mirroring :func:`repro.runtime.simmpi.resolve_backend`.
    """
    global _warned_missing_numba
    if choice is None:
        env = os.environ.get("REPRO_KERNELS")
        choice = env.strip().lower() if env and env.strip() else "auto"
    else:
        choice = choice.strip().lower()
    if choice not in KERNEL_BACKENDS:
        raise ValueError(
            f"unknown kernel backend {choice!r}; expected one of "
            f"{KERNEL_BACKENDS}"
        )
    if choice == "auto":
        return "numba" if HAVE_NUMBA else "numpy"
    if choice == "numba" and not HAVE_NUMBA:
        obs.add("kernels.numba_unavailable")
        if not _warned_missing_numba:
            _warned_missing_numba = True
            warnings.warn(
                "REPRO_KERNELS=numba requested but numba is not importable; "
                "falling back to the (bit-identical) NumPy kernels",
                RuntimeWarning,
                stacklevel=2,
            )
        return "numpy"
    return choice


def selected() -> str:
    """The kernel backend active for this call site (env-resolved)."""
    return resolve_kernels(None)


def table_payload(table):
    """Unpacked ``(kind, coeff, samples, dx, nseg)`` of a table, or None.

    Supports both interpolation layouts; anything else (future table
    types) returns ``None`` and the caller stays on the NumPy path.  The
    payload is cached on the table object — tables are immutable after
    construction.
    """
    cached = getattr(table, "_kernel_payload", None)
    if cached is _UNSUPPORTED:
        return None
    if cached is not None:
        return cached
    from repro.kernels import impl

    layout = getattr(table, "layout", None)
    if layout == "traditional":
        payload = (
            impl.KIND_SPLINE,
            np.ascontiguousarray(table.coeff, dtype=np.float64),
            _EMPTY_SAMPLES,
            float(table.dx),
            int(table.n),
        )
    elif layout == "compacted":
        payload = (
            impl.KIND_COMPACT,
            _EMPTY_COEFF,
            np.ascontiguousarray(table.samples, dtype=np.float64),
            float(table.dx),
            int(table.n),
        )
    else:
        payload = None
    try:
        table._kernel_payload = payload if payload is not None else _UNSUPPORTED
    except (AttributeError, TypeError):  # slotted/frozen table type
        pass
    return payload


def eam_payloads(tables):
    """Payload triple (pair, density, embedding) of a TableSet, or None."""
    cached = getattr(tables, "_kernel_payloads", None)
    if cached is _UNSUPPORTED:
        return None
    if cached is not None:
        return cached
    triple = tuple(
        table_payload(t)
        for t in (tables.pair, tables.density, tables.embedding)
    )
    result = None if any(p is None for p in triple) else triple
    try:
        tables._kernel_payloads = result if result is not None else _UNSUPPORTED
    except (AttributeError, TypeError):
        pass
    return result


def eam_fused(payloads, i, j, d, r, n):
    """Compiled two-pass EAM evaluation; returns (phi, rho, emb, forces).

    Inputs are upcast to contiguous int64/float64 — an exact conversion,
    so float32 pair geometry produces the same float64 results the NumPy
    path gets from its mixed-precision expressions.
    """
    from repro.kernels import impl

    pair_pl, dens_pl, emb_pl = payloads
    i64 = np.ascontiguousarray(i, dtype=np.int64)
    j64 = np.ascontiguousarray(j, dtype=np.int64)
    d64 = np.ascontiguousarray(d, dtype=np.float64)
    r64 = np.ascontiguousarray(r, dtype=np.float64)
    phi, dphi, dfd, rho = impl.eam_pass1(
        *pair_pl, *dens_pl, i64, j64, r64, n
    )
    emb, demb = impl.table_vd(*emb_pl, rho)
    forces = impl.eam_pass2(i64, j64, d64, r64, dphi, dfd, demb, n)
    return phi, rho, emb, forces


def rate_batch(
    emb_payload,
    e_matrix,
    e_valid,
    phi_slots,
    f_slots,
    first_matrix,
    first_valid,
    occ,
    vrows,
    e_m0,
    de_min,
):
    """Compiled batched migration energies; returns (counts, targets, de).

    The caller applies ``rates = nu * np.exp(-de / kt)`` itself: libm and
    NumPy disagree about ``exp`` in the last ulp, so the transcendental
    stays on the NumPy side of the fence in both backends.
    """
    from repro.kernels import impl

    return impl.rate_batch(
        *emb_payload,
        np.ascontiguousarray(e_matrix, dtype=np.int64),
        np.ascontiguousarray(e_valid, dtype=np.bool_),
        np.ascontiguousarray(phi_slots, dtype=np.float64),
        np.ascontiguousarray(f_slots, dtype=np.float64),
        np.ascontiguousarray(first_matrix, dtype=np.int64),
        np.ascontiguousarray(first_valid, dtype=np.bool_),
        np.ascontiguousarray(occ, dtype=np.int8),
        np.ascontiguousarray(vrows, dtype=np.int64),
        float(e_m0),
        float(de_min),
    )
