"""Declarative scenario description and its content-addressed key.

A :class:`ScenarioSpec` is the one description of a coupled MD-KMC run:
frozen, JSON-serializable, validated field by field when built.  The
service runs batches of it, the CLI builds it from flags, and
:class:`~repro.core.coupling.CoupledSimulation` runs it.  Its fields
split into two classes:

* **Identity fields** determine the published artifacts.  Seeds make a
  run a pure function of these (the determinism contract the test
  suite asserts), so the cache key is a SHA-256 over their canonical
  JSON plus the spec schema version and the code version — a new code
  release or schema change never serves stale artifacts.
* **Execution fields** (communication scheme, backend, worker count,
  fault plan, checkpoint cadence, watchdog) are routing hints: the
  scheme/backend equivalence and crash-recovery bit-identity tests
  prove they do not change results, so they are deliberately *excluded*
  from the key — a run scheduled on the process backend is a cache hit
  for the same scenario on threads, and a fault-injected run publishes
  the same artifacts as a fault-free one.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, fields

#: Bumped whenever the artifact layout or the meaning of a spec field
#: changes; part of every cache key.
SPEC_SCHEMA_VERSION = 2

#: Fields hashed into the cache key (with schema + code version).
IDENTITY_FIELDS = (
    "cells",
    "temperature",
    "table_points",
    "md_steps",
    "pka_energy",
    "kmc_max_events",
    "kmc_nranks",
    "kmc_max_cycles",
    "recombination_radius",
    "trajectory_every",
    "seed",
)

#: Routing hints, proven result-neutral — never hashed.
EXECUTION_FIELDS = (
    "kmc_scheme",
    "backend",
    "workers",
    "faults",
    "checkpoint_every",
    "watchdog",
)

_OPTIONAL_INT = ("md_steps", "kmc_nranks", "trajectory_every",
                 "checkpoint_every", "workers")
_REQUIRED_INT = ("cells", "table_points", "kmc_max_events",
                 "kmc_max_cycles", "seed")
_OPTIONAL_FLOAT = ("pka_energy", "recombination_radius", "watchdog")
_REQUIRED_FLOAT = ("temperature",)

_SCHEMES = ("traditional", "ondemand", "onesided")
# simmpi.BACKENDS; the spec does not import the runtime to check a name.
_BACKENDS = ("thread", "process", "overdecomposed")
# Fewest segments a spline table takes: potential.spline.MIN_SAMPLES - 1
# (the five-point stencil), kept here so the spec imports no numpy.
_MIN_TABLE_POINTS = 4


class SpecError(ValueError):
    """A scenario spec is malformed or unrepresentable."""


def canonical_json(value) -> str:
    """The canonical JSON encoding hashed into cache keys.

    Sorted keys, no whitespace, no NaN/Infinity: two specs with equal
    field values always encode to identical bytes.
    """
    return json.dumps(
        value, sort_keys=True, separators=(",", ":"), allow_nan=False
    )


# Kept here by benchmarks/ledger/workloads.py::CoupledRef.setup (repro.service.spec).
@dataclass(frozen=True)
class ScenarioSpec:
    """One coupled MD-KMC scenario, serializable and canonically hashable.

    Identity fields (hashed)
    ------------------------
    cells:
        Conventional cells per axis (cubic box; >= 5).
    temperature:
        System temperature in K.
    table_points:
        Interpolation table resolution (segments per table; >= 4, the
        spline stencil's five knots).
    md_steps / pka_energy:
        MD cascade knobs; both ``None`` selects the default cascade at
        ``temperature`` (exactly the ``coupled`` CLI behaviour).
    kmc_max_events / kmc_nranks / kmc_max_cycles:
        KMC budget and engine selection (``kmc_nranks=None`` = serial).
    recombination_radius:
        Athermal Frenkel-pair recombination radius (angstrom) applied
        when mapping MD damage onto the KMC sites.
    trajectory_every:
        When set, the published artifacts include a chunked trajectory
        store recorded every N serial events / parallel cycles; the
        cadence changes the artifact, so it is part of the identity.
    seed:
        Master seed; with it, the run is a pure function of the
        identity fields.

    Execution fields (not hashed)
    -----------------------------
    kmc_scheme / backend / workers:
        How the parallel KMC world runs; bit-identical across all
        choices (asserted by the scheme/backend parity tests).
        ``backend=None`` is the thread backend and ``workers=None`` the
        backend's default worker count.
    faults / checkpoint_every / watchdog:
        Fault plan (the :mod:`repro.runtime.faults` DSL string of
        planned crashes; every clause must be able to fire on the
        chosen KMC engine within its budget, and a plan with no clauses
        becomes ``None``), KMC checkpoint cadence
        (serial events / parallel cycles), and the per-wait deadline in
        seconds of the parallel KMC runtime's blocking calls (``None``:
        the runtime's default, ``simmpi.DEFAULT_WATCHDOG`` = 60 s; a
        serial spec may not set it);
        recovery converges bit-identically, so none of them affects the
        published result.
    """

    cells: int = 8
    temperature: float = 600.0
    table_points: int = 2000
    md_steps: int | None = None
    pka_energy: float | None = None
    kmc_max_events: int = 500
    kmc_nranks: int | None = None
    kmc_max_cycles: int = 50
    recombination_radius: float | None = None
    trajectory_every: int | None = None
    seed: int = 2018
    kmc_scheme: str = "ondemand"
    backend: str | None = None
    workers: int | None = None
    faults: str | None = None
    checkpoint_every: int | None = None
    watchdog: float | None = None

    def __post_init__(self) -> None:
        # Canonicalize numeric types first: the key is a hash of the
        # JSON encoding, and json renders 8 and 8.0 differently — a
        # float-typed cell count must never split the cache.
        for name in _REQUIRED_INT + _OPTIONAL_INT:
            value = getattr(self, name)
            if value is None and name in _OPTIONAL_INT:
                continue
            try:
                coerced = int(value)
            except (TypeError, ValueError) as exc:
                raise SpecError(f"{name} must be an integer, got {value!r}") from exc
            # True == 1, but a bool is no count.
            if coerced != value or isinstance(value, bool):
                raise SpecError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, coerced)
        for name in _REQUIRED_FLOAT + _OPTIONAL_FLOAT:
            value = getattr(self, name)
            if value is None and name in _OPTIONAL_FLOAT:
                continue
            try:
                coerced = float(value)
            except (TypeError, ValueError) as exc:
                raise SpecError(f"{name} must be a number, got {value!r}") from exc
            # NaN slips past every range check below and cannot be hashed
            # into the key (canonical JSON has no NaN/Infinity).
            if not math.isfinite(coerced):
                raise SpecError(f"{name} must be finite, got {value!r}")
            object.__setattr__(self, name, coerced)
        if self.cells < 5:
            raise SpecError(
                f"cells must be >= 5 (box >= 2*(cutoff+skin)), got {self.cells}"
            )
        if self.temperature <= 0:
            raise SpecError("temperature must be positive")
        if self.table_points < _MIN_TABLE_POINTS:
            raise SpecError(
                f"table_points must be >= {_MIN_TABLE_POINTS} (a spline "
                f"table's five-knot stencil), got {self.table_points}"
            )
        if self.md_steps is not None and self.md_steps < 1:
            raise SpecError("md_steps must be >= 1")
        if self.pka_energy is not None and self.pka_energy <= 0:
            raise SpecError("pka_energy must be positive")
        if self.kmc_max_events < 0:
            raise SpecError("kmc_max_events must be >= 0")
        if self.kmc_nranks is not None and self.kmc_nranks < 1:
            raise SpecError("kmc_nranks must be >= 1")
        if self.kmc_max_cycles < 1:
            raise SpecError("kmc_max_cycles must be >= 1")
        if self.recombination_radius is not None and self.recombination_radius <= 0:
            raise SpecError("recombination_radius must be positive")
        if self.trajectory_every is not None and self.trajectory_every < 1:
            raise SpecError("trajectory_every must be >= 1")
        if self.kmc_scheme not in _SCHEMES:
            raise SpecError(
                f"unknown kmc_scheme {self.kmc_scheme!r}; choose from {_SCHEMES}"
            )
        if self.backend is not None and self.backend not in _BACKENDS:
            raise SpecError(
                f"unknown backend {self.backend!r}; choose from {_BACKENDS}"
            )
        if self.workers is not None and self.workers < 1:
            raise SpecError("workers must be >= 1")
        if self.checkpoint_every is not None and self.checkpoint_every < 1:
            raise SpecError("checkpoint_every must be >= 1")
        if self.watchdog is not None:
            from repro.runtime.simmpi import resolve_watchdog

            try:
                resolve_watchdog(self.watchdog)
            except ValueError as exc:
                raise SpecError(str(exc)) from None
            if self.kmc_nranks is None:
                # Like a fault clause that cannot fire: the serial engine
                # runs no World, so nothing would read the value.
                raise SpecError(
                    "watchdog bounds the parallel KMC runtime's waits; the "
                    "serial engine (no kmc_nranks) has none"
                )
        if self.kmc_nranks is not None:
            from repro.kmc.akmc import sector_decomposition
            from repro.kmc.events import RateParameters
            from repro.lattice.bcc import BCCLattice

            try:
                sector_decomposition(
                    BCCLattice(self.cells, self.cells, self.cells),
                    RateParameters(temperature=self.temperature),
                    nranks=self.kmc_nranks,
                )
            except ValueError as exc:
                raise SpecError(
                    f"cells={self.cells} cannot host kmc_nranks="
                    f"{self.kmc_nranks} (--cells / --kmc-ranks): {exc}"
                ) from exc
        if self.faults is not None:
            if not isinstance(self.faults, str):
                raise SpecError(
                    "faults must be the plan DSL string (serializable), "
                    f"got {type(self.faults).__name__}"
                )
            from repro.runtime.faults import FaultPlanError, parse_plan

            try:
                specs = parse_plan(self.faults)
            except FaultPlanError as exc:
                raise SpecError(f"bad faults plan: {exc}") from exc
            # Each engine's one fault point and its budget: the serial
            # engine's rank 0 events, the parallel engine's cycles.
            if self.kmc_nranks is None:
                engine, point = "serial engine (rank 0, event=)", "kmc.event"
                budget, flag = "kmc_max_events", "--events"
            else:
                engine = f"{self.kmc_nranks}-rank parallel engine (cycle=)"
                point, budget, flag = "kmc.cycle", "kmc_max_cycles", "--kmc-cycles"
            for spec in specs:
                if spec.rank >= (self.kmc_nranks or 1) or spec.point != point:
                    raise SpecError(
                        f"bad faults plan: {spec.clause!r} cannot fire on "
                        f"the {engine}"
                    )
                if spec.n >= getattr(self, budget):
                    raise SpecError(
                        f"bad faults plan: {spec.clause!r} cannot fire within "
                        f"{budget}={getattr(self, budget)} ({flag})"
                    )
            if not specs:  # an empty plan is no plan
                object.__setattr__(self, "faults", None)

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """All fields as a JSON-serializable dict (round-trips exactly)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> ScenarioSpec:
        """Rebuild a spec, rejecting unknown keys (schema discipline)."""
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise SpecError(f"unknown spec field(s): {', '.join(unknown)}")
        return cls(**data)

    # ------------------------------------------------------------------
    # Content addressing
    # ------------------------------------------------------------------
    def identity(self) -> dict:
        """The hashed portion: identity fields + schema + code version."""
        import repro

        ident = {name: getattr(self, name) for name in IDENTITY_FIELDS}
        ident["schema"] = SPEC_SCHEMA_VERSION
        ident["code"] = repro.__version__
        return ident

    def key(self) -> str:
        """Content-addressed cache key (SHA-256 hex of the identity)."""
        return hashlib.sha256(
            canonical_json(self.identity()).encode("ascii")
        ).hexdigest()

    # ------------------------------------------------------------------
    # Construction of the run configuration
    # ------------------------------------------------------------------
    def to_coupled_config(
        self,
        *,
        trajectory: str | None = None,
        checkpoint_dir: str | None = None,
    ):
        """The :class:`~repro.core.coupling.CoupledConfig` running this spec.

        Paths are per-run concerns supplied by the caller (the worker
        stages them under the cache entry; the ``coupled`` CLI passes
        its flags through) — everything else is the spec.
        """
        from repro.core.coupling import CoupledConfig

        return CoupledConfig(self, trajectory, checkpoint_dir)
