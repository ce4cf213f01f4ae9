"""In-memory spans around public calls, and the per-layer time budget.

The harness measures every layer from outside: a span goes around each
call into a public function of ``repro`` (and on each
``CoupledSimulation(progress=...)`` stage stamp), and a leaf span runs
its call under ``repro.observe.observing(trace=False)`` so the phase
totals and counters the program already publishes are harvested with
it.  Nothing here reaches into ``src/``.

Every second of a traced pass lands in exactly one bucket — a layer
(a ``src/repro`` package name) or ``unattributed``:

* an observe phase's self time goes to the layer its dotted prefix
  names (``md.force`` -> ``md``; see :func:`phase_layer`);
* a span's self time (its duration minus child spans and minus the
  main-thread phases recorded inside it) goes to the layer that owns
  the public function the span wraps;
* phases recorded on rank threads/processes of a ``World`` are rank
  time, not wall time: they are divided by the rank count, and the
  part of the hosting wait no rank phase covers is ``unattributed`` —
  from outside, rank-side work the program does not phase cannot be
  told apart from the runtime starting and scheduling the ranks;
* pass wall outside every span, and the self time of spans declared
  with ``layer=None`` (multi-layer containers), is ``unattributed``.
"""

from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext

from repro import observe as obs

#: Layers of the ledger: ``src/repro`` package names on the run path.
LAYERS = (
    "potential", "lattice", "md", "kernels", "kmc",
    "runtime", "io", "service", "core", "observe",
)
UNATTRIBUTED = "unattributed"

#: Observe phase names that do not carry their layer as the dotted
#: prefix.  The checkpoint phases wrap calls into
#: ``repro.io.checkpoint`` and nothing else, so they are I/O time.
_PHASE_LAYER = {
    "coupled": "core",
    "coupling": "core",
    "kmc.checkpoint": "io",
    "coupled.checkpoint": "io",
}

#: Phases that run on the calling thread even when the span hosts a
#: ``World``; every other root phase of such a span is rank-side.
_MAIN_ROOTS = ("coupled.pipeline", "runtime.spawn_processes", "service.schedule")
#: The main-thread phase that waits on the world, when there is one
#: (otherwise the span itself is the host).
_WORLD_HOST = "coupled.kmc"

_BLOCKED = ("runtime.recv", "runtime.probe", "runtime.collective")


def phase_layer(name: str) -> str:
    prefix = name.split(".", 1)[0]
    layer = _PHASE_LAYER.get(name) or _PHASE_LAYER.get(prefix, prefix)
    return layer if layer in LAYERS else UNATTRIBUTED


class NullTracer:
    """The untraced passes' tracer: every span is a no-op."""

    def span(self, name, layer, ranks=0, observe=False):
        return nullcontext()

    def stage(self, name):
        return None

    def end_stages(self):
        return None


NULL_TRACER = NullTracer()


class Tracer:
    """Spans of one traced pass: name, start, end, parent, pass id."""

    def __init__(self, pass_id: str) -> None:
        self.pass_id = pass_id
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._stage: int | None = None

    def _open(self, name, layer, ranks=0) -> int:
        self.spans.append({
            "id": len(self.spans),
            "pass": self.pass_id,
            "name": name,
            "layer": layer,
            "parent": self._stack[-1] if self._stack else None,
            "ranks": ranks,
            "start": time.perf_counter(),
            "end": None,
            "phases": None,
            "counters": None,
        })
        sid = len(self.spans) - 1
        self._stack.append(sid)
        return sid

    def _close(self, sid: int) -> None:
        self.spans[sid]["end"] = time.perf_counter()
        popped = self._stack.pop()
        if popped != sid:
            raise RuntimeError("span closed out of order")

    @contextmanager
    def span(self, name, layer, ranks=0, observe=False):
        """Time one public call; ``observe`` harvests its phases/counters.

        ``ranks`` > 0 declares that the call runs a ``World`` of that
        many ranks.
        """
        sid = self._open(name, layer, ranks)
        registry = None
        try:
            if observe:
                with obs.observing(trace=False) as registry:
                    yield
            else:
                yield
        finally:
            self.end_stages()
            self._close(sid)
        if registry is not None:
            span = self.spans[sid]
            span["phases"] = {
                "/".join(path): stat.total
                for path, stat in registry.phases.items()
            }
            span["counters"] = dict(registry.counters)

    def stage(self, name: str) -> None:
        """A ``progress=`` stamp: close the running stage, open ``name``."""
        self.end_stages()
        self._stage = self._open(f"stage.{name}", "core")

    def end_stages(self) -> None:
        if self._stage is not None:
            self._close(self._stage)
            self._stage = None


def _self_times(phases: dict[str, float]) -> dict[str, float]:
    """Per-path self time: a phase's total minus its direct children."""
    out = dict(phases)
    for path, total in phases.items():
        parent = path.rsplit("/", 1)[0] if "/" in path else None
        if parent in out:
            out[parent] -= total
    return {path: max(0.0, t) for path, t in out.items()}


def budget(spans: list[dict], pass_wall: float) -> dict:
    """Fold a traced pass's spans into the per-layer time budget.

    Returns seconds per layer (plus ``unattributed``), seconds of self
    time per phase name (main-thread seconds, rank phases already
    divided by the rank count), per world span the share of rank time
    blocked in the runtime and the share of its wall spent spawning,
    stage durations, and the summed observe counters.
    """
    layer_s = {layer: 0.0 for layer in (*LAYERS, UNATTRIBUTED)}
    phase_s: dict[str, float] = {}
    counters: dict[str, float] = {}
    stages: dict[str, float] = {}
    world: dict[str, dict] = {}
    child_s = {span["id"]: 0.0 for span in spans}
    top_s = 0.0
    for span in spans:
        dur = span["end"] - span["start"]
        if span["parent"] is None:
            top_s += dur
        elif not span["name"].startswith("stage."):
            child_s[span["parent"]] += dur
    for span in spans:
        dur = span["end"] - span["start"]
        if span["name"].startswith("stage."):
            # Stage spans re-slice their parent's interval by pipeline
            # stage; the parent's phases already carry its layer time.
            key = span["name"][len("stage."):]
            stages[key] = stages.get(key, 0.0) + dur
            continue
        own = dur - child_s[span["id"]]
        for name, value in (span["counters"] or {}).items():
            counters[name] = counters.get(name, 0.0) + value
        phases = span["phases"] or {}
        selfs = _self_times(phases)
        ranks = span["ranks"]
        main_total = 0.0
        rank_s = 0.0
        host_path = None
        blocked_s = 0.0
        for path, self_t in selfs.items():
            root = path.split("/", 1)[0]
            name = path.rsplit("/", 1)[-1]
            on_rank = ranks > 0 and root not in _MAIN_ROOTS
            if on_rank:
                self_t /= ranks
                rank_s += self_t
                if name in _BLOCKED:
                    blocked_s += self_t
            elif "/" not in path:
                main_total += phases[path]
            if ranks > 0 and not on_rank and name == _WORLD_HOST:
                host_path = path
                continue
            layer_s[phase_layer(name)] += self_t
            phase_s[name] = phase_s.get(name, 0.0) + self_t
        own = max(0.0, own - main_total)
        if ranks > 0:
            # The wait that hosts the world is re-attributed by what the
            # ranks did during it; what no rank phase covers stays
            # unattributed.
            host_s = selfs[host_path] if host_path is not None else own
            layer_s[UNATTRIBUTED] += max(0.0, host_s - rank_s)
            if host_path is None:
                own = 0.0
            if host_s > 0:
                world[span["name"]] = {
                    "wall_s": dur,
                    "blocked_share": blocked_s / host_s,
                    "spawn_share": sum(
                        t for path, t in phases.items()
                        if path.endswith("runtime.spawn_processes")) / dur,
                }
        layer_s[span["layer"] or UNATTRIBUTED] += own
    layer_s[UNATTRIBUTED] += max(0.0, pass_wall - top_s)
    return {
        "layer_s": layer_s,
        "phase_s": phase_s,
        "stage_s": stages,
        "world": world,
        "counters": counters,
    }
