"""REP001 — hidden nondeterminism.

Trajectory bit-identity across communication schemes and backends (the
paper's §2.2/§4 equivalence claims) requires randomness to be a pure
function of (seed, rank, cycle, sector).  Global-state RNG calls and
wall-clock reads inside physics code both break that contract.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.analyze.core import Finding, Rule, register

#: numpy.random attributes that are *allowed*: explicit seeded
#: constructors.  Everything else on numpy.random is the legacy
#: global-state API (np.random.seed / rand / choice / ...).
_NUMPY_ALLOWED = {
    "default_rng",
    "Generator",
    "BitGenerator",
    "SeedSequence",
    "PCG64",
    "PCG64DXSM",
    "Philox",
    "SFC64",
    "MT19937",
}

#: stdlib ``random`` attributes that are allowed (seedable instances).
_STDLIB_ALLOWED = {"Random", "SystemRandom"}

#: Wall-clock reads; forbidden in physics paths (timers belong in
#: ``repro.observe``, which is allowlisted by virtue of not being a
#: physics directory).
_WALL_CLOCK = {
    "time.time",
    "time.time_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.clock_gettime",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.date.today",
}

#: Directories whose code computes physics and must be clock-free.
_PHYSICS_DIRS = ("md", "kmc", "core")

#: The timing layer: clocks are its job, so a call chain through it
#: carries no nondeterminism into physics.
_TRUSTED = "repro.observe"


def _nondet_source(target: str) -> str | None:
    """Short description of a nondeterminism source call, or ``None``.

    Given a canonical dotted call target, return ``"global-state RNG
    <target>"`` / ``"wall-clock read <target>"`` independent of location
    (the caller decides whether the location makes it a violation).
    """
    if target.startswith("numpy.random."):
        leaf = target.split(".")[2]
        if leaf not in _NUMPY_ALLOWED:
            return f"global-state RNG {target}"
    elif target.startswith("random."):
        leaf = target.split(".")[1]
        if leaf not in _STDLIB_ALLOWED:
            return f"global-state RNG {target}"
    elif target in _WALL_CLOCK:
        return f"wall-clock read {target}"
    return None


def _trusted(modname: str) -> bool:
    return modname == _TRUSTED or modname.startswith(_TRUSTED + ".")


@register
class NondeterminismRule(Rule):
    code = "REP001"
    name = "hidden-nondeterminism"
    summary = (
        "global-state RNG call, or wall-clock read reaching md/, kmc/, "
        "core/ physics code directly or through a call chain"
    )
    explanation = """\
Bit-identical parallel AKMC (the equivalence the scheme and backend
tests assert) requires every random draw to be reproducible from
(seed, rank, cycle, sector).  Two statically detectable hazards break
this:

1. Global-state RNG: ``np.random.seed()``, ``np.random.rand()``,
   ``random.random()`` and friends share hidden mutable state, so the
   draw depends on call *order* — which differs across schemes, rank
   counts and backends.  Use seeded ``numpy.random.Generator`` streams
   (see ``repro.kmc.rng``: ``sector_rng(seed, rank, cycle, sector)``)
   or a seeded ``random.Random(seed)`` instance.  Flagged everywhere.

2. Wall-clock reads in physics code: ``time.time()``,
   ``time.perf_counter()``, ``datetime.now()`` inside ``md/``, ``kmc/``
   or ``core/`` feed real time into trajectories.  Timing belongs in
   ``repro.observe`` phases; ``runtime/`` and ``observe/`` are outside
   the physics dirs and therefore allowlisted.

The rule runs over the project call graph, so a source hidden in a
helper is caught too: every function that executes a source (a clock
read anywhere outside the trusted ``repro.observe`` timing layer counts
here) taints its callers, and each call from physics code into a
tainted function is flagged with the witness chain down to the source::

    repro.util.jitter -> wall-clock read time.time (src/repro/util.py:12)

Only statically resolved calls participate (plain names, imported
functions, ``self.`` methods), so the rule is sound over the decidable
slice of the graph.  Suppress with
``# repro: noqa(REP001) <why this draw is reproducible>``.  A pragma
on the source line silences that line only, never the physics call
site that reaches it.
"""

    def check_project(self, graph) -> Iterable[Finding]:
        marks: dict[str, tuple[str, ...]] = {}
        for module in graph.modules:
            imports = graph.import_maps[module.rel_path]
            in_physics = module.in_dirs(*_PHYSICS_DIRS)
            trusted = _trusted(graph.module_names[module.rel_path])
            for fn, node in graph.owned_nodes(module):
                target = isinstance(node, ast.Call) and imports.resolve_call(node.func)
                desc = target and _nondet_source(graph.deref(target))
                if not desc:
                    continue
                rng = desc.startswith("global-state")
                if rng or in_physics:
                    fix = (
                        "use a seeded Generator (repro.kmc.rng.sector_rng)"
                        if rng
                        else "time physics via repro.observe phases instead"
                    )
                    yield module.finding(self.code, node, f"{desc}; {fix}")
                if fn is not None and not trusted:
                    marks.setdefault(
                        fn.qname, (f"{desc} ({module.rel_path}:{node.lineno})",)
                    )
        tainted = graph.transitive_closure(marks)
        for module in graph.modules:
            if not module.in_dirs(*_PHYSICS_DIRS):
                continue
            for fn, call in graph.owned_nodes(module):
                if not isinstance(call, ast.Call):
                    continue
                callee = graph.resolve_call(module, call, fn and fn.class_name)
                if callee is None or callee.qname not in tainted:
                    continue
                if _trusted(graph.module_names[callee.module.rel_path]):
                    continue
                chain = " -> ".join((callee.qname, *tainted[callee.qname]))
                yield module.finding(
                    self.code,
                    call,
                    "call chain from physics code reaches a nondeterminism "
                    f"source: {chain}; thread a seeded Generator (or a "
                    "pre-read timestamp) through instead",
                )
