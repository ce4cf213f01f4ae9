"""The ledger's metric tables: names, units, directions, bounds.

``END_TO_END`` is the ISSUE's table of fourteen user-visible metrics,
each with the workloads it is reported on and its regression bound.
``compare.py`` applies these per workload, on every run it is given.
The bounds are the ISSUE's and are never widened.

``BENCHMARK.json`` (the driver's manifest) bounds a metric on *every*
workload and accepts the benchmark only if ten runs with ten seeds
repeat within that bound, twice.  On the reference sandbox none of the
fourteen does so at the ISSUE's bound on all six workloads, so by the
ISSUE's rule they are demoted there to unbounded ``per_layer`` entries
of the same name (``DEMOTED``; the README gives the measured spreads),
reading 0 on a workload they are not declared for.  ``failed_frac`` is
carried by the protocol's own ``failed``/``attempted`` fields.  The
driver's contract does not let ``setup_s`` be demoted, and asks for its
largest bound instead: ``DRIVER_SETUP_BOUND`` is the one bound in the
manifest that is not the ISSUE's.

``PER_LAYER`` rows are ``(name, unit, better, kind, moves, workloads)``:

* kind ``probe`` — a timed call into one layer's public functions,
  independent of the workload, measured in every traced run;
* kind ``pass`` — harvested from the workload's own traced pass (spans,
  observe phases and counters) or its timed passes;
* kind ``count`` — like ``pass`` but an exact count that must repeat
  bit for bit between two runs of one commit with one seed.  Counts are
  the only layer metrics a later issue may rest a claim on.

``workloads`` names the workloads whose traced run produces the row;
there the child must emit it or the run fails.  On every other
workload the pass provably never enters that code, the ledger file has
no such row, and the driver line reports an explicit 0.
"""

from __future__ import annotations

from typing import NamedTuple

WORKLOADS = {
    "coupled_ref": "ROADMAP's fixed coupled scenario: every layer takes part "
                   "and none hides, so this is the number a user feels.",
    "cascade_md": "md and kernels do >90% of the work; serial cascade beside "
                  "ParallelDamageMD on the same lattice; no kmc, io or service.",
    "kmc_serial_dense": "kmc catalog and rate kernels do all the work; runtime, "
                        "io and service are bypassed, so they must not move it.",
    "kmc_parallel": "five backend/scheme cells of one 8-rank run use the "
                    "message runtime three ways: many tiny probed messages, "
                    "bulk ghost strips, window put plus fence.",
    "stream_io": "io does about half the work: streaming appends and "
                 "checkpoints beside the out-of-core read-back.",
    "service_sweep": "tiny scenarios, so service overhead (queue, fork, "
                     "publish, dedup, cache lookup) dominates the physics.",
}
ALL = tuple(WORKLOADS)


class EndToEnd(NamedTuple):
    name: str
    unit: str
    better: str
    bound: float
    workloads: tuple


END_TO_END = (
    EndToEnd("wall_s", "s", "lower", 0.10, ALL),
    EndToEnd("setup_s", "s", "lower", 0.10, ALL),
    EndToEnd("peak_rss_mb", "MiB", "lower", 0.05, ALL),
    EndToEnd("failed_frac", "1", "lower", 0.0, ALL),
    EndToEnd("md_atom_steps_per_s", "1/s", "higher", 0.10,
             ("cascade_md", "coupled_ref")),
    EndToEnd("md_par_atom_steps_per_s", "1/s", "higher", 0.10, ("cascade_md",)),
    EndToEnd("kmc_events_per_s", "1/s", "higher", 0.10,
             ("kmc_serial_dense", "stream_io")),
    EndToEnd("cycles_per_s.thread", "1/s", "higher", 0.10, ("kmc_parallel",)),
    EndToEnd("cycles_per_s.process", "1/s", "higher", 0.10,
             ("kmc_parallel", "coupled_ref")),
    EndToEnd("cycles_per_s.overdecomposed", "1/s", "higher", 0.10,
             ("kmc_parallel",)),
    EndToEnd("cycles_per_s.traditional", "1/s", "higher", 0.10,
             ("kmc_parallel",)),
    EndToEnd("cycles_per_s.onesided", "1/s", "higher", 0.10, ("kmc_parallel",)),
    EndToEnd("jobs_per_s", "1/s", "higher", 0.10, ("service_sweep",)),
    EndToEnd("warm_job_p50_ms", "ms", "lower", 0.10, ("service_sweep",)),
)
E2E = {m.name: m for m in END_TO_END}

#: ``setup_s`` has to be in the manifest's ``end_to_end`` and cannot be
#: demoted; between two ten-seed sets its median moved by up to 13 % on
#: the reference sandbox, so it carries the contract's largest bound.
DRIVER_SETUP_BOUND = 0.25
#: Demoted to unbounded per-layer rows of the manifest.  In raw seconds
#: the ten-seed spread of ``wall_s`` is wider than 10 % on three
#: workloads; the throughputs are timings of the same passes and are not
#: declared on every workload; ``peak_rss_mb`` lands on one of three
#: levels 3-4 MiB apart on ``cascade_md`` (5.2 % once, on a 5 % bound).
DEMOTED = tuple(
    m for m in END_TO_END if m.name not in ("setup_s", "failed_frac")
)


class Layer(NamedTuple):
    name: str
    unit: str
    better: str
    kind: str
    moves: str
    workloads: tuple = ALL


_BACKENDS = ("thread", "process", "overdecomposed")
_SCHEMES = ("ondemand", "traditional", "onesided")
_MD = "md_atom_steps_per_s, md_par_atom_steps_per_s (cascade_md); ~0.65x on coupled_ref wall_s"
_KMC = "kmc_events_per_s (kmc_serial_dense, stream_io)"
_CYC = "cycles_per_s.* (kmc_parallel)"
_SVC = "jobs_per_s, warm_job_p50_ms (service_sweep)"
_IO = "wall_s, kmc_events_per_s (stream_io); <=5% of coupled_ref"
_CORE = "wall_s (coupled_ref)"

# Which workloads' traced passes produce a pass/count row.
_ON_MD = ("cascade_md", "coupled_ref")
_ON_SERIAL = ("kmc_serial_dense", "stream_io")
_ON_WORLD = ("kmc_parallel", "coupled_ref")
_ON_PAR = ("kmc_parallel",)
_ON_IO = ("stream_io",)
_ON_SVC = ("service_sweep",)
_ON_CORE = ("coupled_ref",)

PER_LAYER = (
    # one share per layer: self time of the traced pass, as a share of it
    *(Layer(f"{layer}.share", "1", "lower", "pass", "wall_s (every workload)")
      for layer in ("potential", "lattice", "md", "kernels", "kmc",
                    "runtime", "io", "service", "core")),
    Layer("core.unattributed_share", "1", "lower", "pass", _CORE),
    Layer("potential.table_build_ms", "ms", "lower", "probe", "setup_s (all)"),
    Layer("lattice.decomp_build_ms", "ms", "lower", "probe",
          "setup_s (kmc_parallel, coupled_ref)"),
    Layer("md.force_pairs_per_s", "1/s", "higher", "probe", _MD),
    Layer("md.force_share", "1", "lower", "pass", _MD, _ON_MD),
    Layer("md.neighbor_build_ms", "ms", "lower", "probe", _MD),
    Layer("md.integrate_ns_per_atom", "ns", "lower", "probe", _MD),
    Layer("md.runaway_scan_ms", "ms", "lower", "probe", _MD),
    Layer("md.ghost_msgs_per_step", "count", "lower", "count", _MD,
          ("cascade_md",)),
    Layer("md.ghost_bytes_per_step", "count", "lower", "count", _MD,
          ("cascade_md",)),
    Layer("md.par_efficiency_2w", "1", "higher", "pass", _MD, ("cascade_md",)),
    Layer("kernels.eam_pairs_per_s.numpy", "1/s", "higher", "probe",
          "md_atom_steps_per_s (cascade_md)"),
    Layer("kernels.rates_vacancies_per_s.numpy", "1/s", "higher", "probe",
          "kmc_events_per_s (kmc_serial_dense)"),
    Layer("kmc.rates_vacancies_per_s", "1/s", "higher", "probe", _KMC),
    Layer("kmc.catalog_refresh_us_per_row", "us", "lower", "probe", _KMC),
    Layer("kmc.catalog_sample_us", "us", "lower", "probe", _KMC),
    Layer("kmc.serial_step_p50_us", "us", "lower", "probe", _KMC),
    Layer("kmc.serial_step_p99_us", "us", "lower", "probe", _KMC),
    Layer("kmc.rows_refreshed_per_event", "count", "lower", "count", _KMC,
          _ON_SERIAL),
    Layer("kmc.catalog_reuse_ratio", "1", "higher", "count", _KMC, _ON_SERIAL),
    Layer("kmc.parallel_1rank_events_per_s", "1/s", "higher", "probe", _KMC),
    Layer("kmc.events_per_cycle", "count", "higher", "count", _CYC, _ON_PAR),
    Layer("kmc.rate_clamped_per_event", "count", "lower", "count", _CYC,
          _ON_PAR),
    Layer("kmc.catalog_share", "1", "lower", "pass", _KMC,
          (*_ON_SERIAL, *_ON_WORLD)),
    Layer("kmc.ghost_sync_share", "1", "lower", "pass", _CYC, _ON_WORLD),
    Layer("kmc.dt_sync_share", "1", "lower", "pass", _CYC, _ON_WORLD),
    *(Layer(f"runtime.p2p_latency_us.{b}", "us", "lower", "probe",
            f"cycles_per_s.{b} (kmc_parallel)") for b in _BACKENDS),
    *(Layer(f"runtime.p2p_mb_per_s.{b}", "MB/s", "higher", "probe",
            "cycles_per_s.traditional (kmc_parallel)") for b in _BACKENDS),
    Layer("runtime.p2p_mb_per_s.process_16mib", "MB/s", "higher", "probe",
          "cycles_per_s.traditional (kmc_parallel)"),
    *(Layer(f"runtime.allreduce_us.{b}", "us", "lower", "probe",
            f"cycles_per_s.{b} (kmc_parallel)") for b in _BACKENDS),
    *(Layer(f"runtime.fence_us.{b}", "us", "lower", "probe",
            "cycles_per_s.onesided (kmc_parallel)") for b in _BACKENDS),
    Layer("runtime.iprobe_miss_us", "us", "lower", "probe", _CYC),
    *(Layer(f"runtime.world_spawn_ms.{b}", "ms", "lower", "probe",
            "wall_s (kmc_parallel, coupled_ref), jobs_per_s")
      for b in _BACKENDS),
    *(Layer(f"runtime.msgs_per_cycle.{s}", "count", "lower", "count", _CYC,
            _ON_PAR) for s in _SCHEMES),
    *(Layer(f"runtime.bytes_per_cycle.{s}", "count", "lower", "count", _CYC,
            _ON_PAR) for s in _SCHEMES),
    Layer("runtime.sched_yields_per_cycle", "count", "lower", "pass",
          "cycles_per_s.overdecomposed (kmc_parallel)", _ON_PAR),
    Layer("runtime.shm_slot_hits", "count", "higher", "pass",
          "cycles_per_s.traditional (kmc_parallel)", _ON_PAR),
    Layer("runtime.shm_fallbacks", "count", "lower", "pass",
          "cycles_per_s.traditional (kmc_parallel)", _ON_PAR),
    *(Layer(f"runtime.blocked_share.{b}", "1", "lower", "pass",
            f"cycles_per_s.{b} (kmc_parallel)",
            _ON_WORLD if b == "process" else _ON_PAR) for b in _BACKENDS),
    Layer("io.append_frames_per_s", "1/s", "higher", "probe", _IO),
    Layer("io.append_mb_per_s", "MB/s", "higher", "probe", _IO),
    Layer("io.disk_bytes_per_frame", "count", "lower", "count", _IO, _ON_IO),
    Layer("io.read_seq_frames_per_s", "1/s", "higher", "probe", _IO),
    Layer("io.read_random_ms", "ms", "lower", "probe", _IO),
    Layer("io.kmc_ckpt_save_ms", "ms", "lower", "probe", _IO),
    Layer("io.kmc_ckpt_load_ms", "ms", "lower", "probe", _IO),
    Layer("io.md_ckpt_save_ms", "ms", "lower", "probe", _IO),
    Layer("io.store_share", "1", "lower", "pass", _IO, _ON_IO),
    Layer("service.spec_key_us", "us", "lower", "probe", _SVC),
    Layer("service.submit_ms", "ms", "lower", "probe", _SVC),
    Layer("service.cache_lookup_us", "us", "lower", "probe", _SVC),
    Layer("service.overhead_per_job_ms", "ms", "lower", "pass", _SVC, _ON_SVC),
    Layer("service.overhead_share", "1", "lower", "pass", _SVC, _ON_SVC),
    Layer("service.dedup_executed", "count", "lower", "count", _SVC, _ON_SVC),
    Layer("service.warm_p95_ms", "ms", "lower", "pass", _SVC, _ON_SVC),
    Layer("service.worker_fork_ms", "ms", "lower", "probe", _SVC),
    *(Layer(f"core.stage_share.{stage}", "1", "lower", "pass", _CORE, _ON_CORE)
      for stage in ("setup", "cascade", "checkpoint", "map_damage",
                    "trajectory_init", "kmc", "analysis")),
    Layer("core.cluster_report_ms", "ms", "lower", "probe", _CORE),
    Layer("observe.overhead_frac", "1", "lower", "pass",
          "nothing: the published cost of looking"),
    Layer("observe.null_phase_ns", "ns", "lower", "probe",
          "nothing: the published cost of looking"),
)
LAYER = {m.name: m for m in PER_LAYER}

#: Reported with mode and reason, ``null`` while numba is absent; a
#: manifest metric must always be a number, so these stay ledger-only.
OPTIONAL_PROBES = (
    Layer("kernels.eam_pairs_per_s.numba", "1/s", "higher", "probe",
          "md_atom_steps_per_s (cascade_md)"),
    Layer("kernels.rates_vacancies_per_s.numba", "1/s", "higher", "probe",
          "kmc_events_per_s (kmc_serial_dense)"),
)


def produced_on(workload: str) -> set:
    """Names of the ``PER_LAYER`` rows a traced run of ``workload`` emits."""
    return {m.name for m in PER_LAYER if workload in m.workloads}


def manifest() -> dict:
    """The content of ``BENCHMARK.json`` (kept in step by the self-test)."""
    return {
        "command": ["python3", "benchmarks/ledger/run.py"],
        "paths": ["benchmarks/ledger"],
        "run_seconds": 12,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS.items()],
        "end_to_end": [
            {"name": "setup_s", "unit": E2E["setup_s"].unit,
             "better": E2E["setup_s"].better, "bound": DRIVER_SETUP_BOUND},
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better}
            for m in (*DEMOTED, *PER_LAYER)
        ],
    }
