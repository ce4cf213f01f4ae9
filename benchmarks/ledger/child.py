"""The load generator: one workload in one fresh interpreter.

``run.py`` starts this file once per workload (and a few more times
with ``--setup-only``).  It is a single process whose only threads and
processes are the ones ``repro`` itself starts.  The protocol is the
same for every workload: generate inputs from the seed, set up, one
discarded warm-up pass, timed passes with ``repro.observe`` disabled
until ``--seconds`` have been measured, then (``--trace 1``) one traced
pass and the layer probes.  The result goes to ``--result`` as JSON.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

MIN_PASSES = 3
MAX_PASSES = 40


def _rss_mb() -> float:
    """Peak RSS of this process plus the largest of its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def versions() -> dict:
    """Versions and the resolved kernels mode, as the program sees them."""
    import numpy
    import repro
    from repro import kernels

    try:
        import numba
    except ImportError:
        numba = None
    return {
        "repro": repro.__version__,
        "numpy": numpy.__version__,
        "numba": getattr(numba, "__version__", None),
        "kernels": kernels.selected(),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--quick", type=int, default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--setup-only", type=int, default=0)
    ap.add_argument("--corrupt-digest", type=int, default=0)
    args = ap.parse_args(argv)

    from workloads import WORKLOADS

    t_gen = time.perf_counter()
    wl = WORKLOADS[args.workload](args.seed, bool(args.quick))
    t_gen = time.perf_counter() - t_gen
    wl.setup()
    # perf_counter is CLOCK_MONOTONIC, shared with the parent that took
    # --t0 just before starting this interpreter.
    result = {
        "workload": wl.name,
        "seed": wl.seed,
        "sizes": wl.size,
        "setup_s": time.perf_counter() - args.t0 - t_gen,
        "env": versions(),
    }
    if not args.setup_only:
        try:
            measure(wl, args, result)
        except Exception:
            result["error"] = traceback.format_exc()
    Path(args.result).write_text(json.dumps(result))
    return 0


def grade(everything: list, reference_checks: dict) -> dict:
    """The correctness gate: every check of every pass, bit-identity of
    all passes with the warm-up, and the checks against a reference.

    One operation is attempted per pass (or per cell / job in it), one
    for the identity of the repeats and one per reference check; every
    failed check is a failed operation.
    """
    warmup = everything[0]
    checks: dict[str, bool] = {"repeats_bit_identical": True}
    attempted = 1 + len(reference_checks)
    for p in everything:
        attempted += p.operations
        for name, ok in p.checks.items():
            checks[name] = checks.get(name, True) and ok
        checks["repeats_bit_identical"] &= p.digests == warmup.digests
    checks.update(reference_checks)
    failed = sum(not ok for ok in checks.values())
    return {
        "checks": checks,
        "attempted": attempted,
        "failed": min(failed, attempted),
        "digests": warmup.digests,
        "counts": warmup.counts,
    }


def measure(wl, args, result: dict) -> None:
    import metrics as M
    from repro import observe as obs
    from spans import LAYERS, NULL_TRACER, UNATTRIBUTED, Tracer, budget

    if obs.enabled():
        raise RuntimeError("repro.observe must be off for the timed passes")
    workdir = Path(args.workdir)
    passes = []
    counter = 0

    def one_pass(tracer):
        """One pass in a fresh directory."""
        nonlocal counter
        # The previous pass's files are needed by no one but
        # reference(), which reads the last pass only.
        for old in workdir.glob("pass-*"):
            shutil.rmtree(old)
        pass_dir = workdir / f"pass-{counter:03d}"
        pass_dir.mkdir()
        counter += 1
        return wl.run_pass(tracer, pass_dir)

    min_passes = 1 if args.quick else MIN_PASSES
    warmup = one_pass(NULL_TRACER)
    started = time.perf_counter()
    while len(passes) < MAX_PASSES and (
        len(passes) < min_passes
        or time.perf_counter() - started < args.seconds
    ):
        passes.append(one_pass(NULL_TRACER))
    result["measured_s"] = time.perf_counter() - started
    result["peak_rss_mb"] = _rss_mb()

    everything = [warmup, *passes]
    traced = None
    if args.trace:
        tracer = Tracer(f"{wl.name}/traced")
        traced = one_pass(tracer)
        everything.append(traced)
    ref = wl.reference(workdir, passes)

    if args.corrupt_digest:
        key = sorted(passes[-1].digests)[0]
        passes[-1].digests[key] = "corrupt-" + passes[-1].digests[key]
    result.update(grade(everything, ref.get("checks", {})))

    # -- end to end ----------------------------------------------------
    walls = [p.wall for p in passes]
    wall = statistics.median(walls)
    e2e = {"wall_s": wall,
           "failed_frac": result["failed"] / result["attempted"]}
    e2e.update(wl.end_to_end(passes))
    result.update(
        passes=len(passes),
        pass_wall_s=walls,
        warmup_wall_s=warmup.wall,
        end_to_end=e2e,
    )
    if traced is None:
        return

    # -- per layer (traced pass + probes) ------------------------------
    from probes import run_probes

    bud = budget(tracer.spans, traced.wall)
    bud["direct_s"] = ref.get("direct_s", 0.0)
    # Before the shares are taken: a workload may re-attribute seconds
    # of the budget it alone can explain (service_sweep's cold batch).
    layer = wl.layer_metrics(passes, traced, bud)
    for name in LAYERS:
        if name != "observe":
            layer[f"{name}.share"] = bud["layer_s"][name] / traced.wall
    layer["core.unattributed_share"] = bud["layer_s"][UNATTRIBUTED] / traced.wall
    phase_share = {
        "md.force_share": "md.force",
        "kmc.catalog_share": "kmc.catalog_update",
        "kmc.ghost_sync_share": "kmc.ghost_sync",
        "kmc.dt_sync_share": "kmc.dt_sync",
    }
    for metric, phase in phase_share.items():
        if wl.name in M.LAYER[metric].workloads:
            layer[metric] = bud["phase_s"][phase] / traced.wall
    layer["observe.overhead_frac"] = traced.wall / wall - 1.0
    probes, notes = run_probes(workdir, bool(args.quick))
    layer.update(probes)
    # The table in metrics.py says what this workload's traced run
    # produces; a harvest that stops emitting must fail, not read 0.
    emitted = {name for name, value in layer.items() if value is not None}
    expected = M.produced_on(wl.name)
    if emitted != expected:
        raise RuntimeError(
            f"per-layer rows differ from metrics.PER_LAYER: missing "
            f"{sorted(expected - emitted)}, undeclared "
            f"{sorted(emitted - expected)}")
    result.update(
        per_layer=layer,
        notes=notes,
        trace={
            "wall_s": traced.wall,
            "layer_s": bud["layer_s"],
            "phase_s": bud["phase_s"],
            "stage_s": bud["stage_s"],
            "world": bud["world"],
            "counters": bud["counters"],
            "spans": [
                {k: s[k] for k in ("id", "pass", "name", "layer", "parent",
                                   "start", "end")}
                for s in tracer.spans
            ],
        },
    )


if __name__ == "__main__":
    sys.exit(main())
