"""The six pinned workloads of the ledger.

Each workload is one closed-loop scenario a researcher waits for.  A
workload object is built from ``(seed, quick)`` — the seed drives only
the harness's input generation (vacancy placement, spec seeds, PKA
energy jitter); the program receives the generated inputs and nothing
else.  ``setup()`` does what a run pays once (imports, potential
tables, lattice, first engine construction), ``run_pass()`` is one full
execution of the inputs, timed part by part, hashed, and checked.

Sizes: lattice sizes, rank counts, backends, schemes and cycle counts
are the ISSUE's; step, event and job counts are scaled so a warm-up plus
about twelve seconds of timed passes fit one run (``SIZES``).  ``--quick``
shrinks everything and exists only for the self-test.
"""

from __future__ import annotations

import hashlib
import json
import statistics
import time
from pathlib import Path

import numpy as np

#: Final sizes (recorded in the result file).
SIZES = {
    "coupled_ref": {"cells": 12, "md_steps": 60, "kmc_nranks": 8,
                    "kmc_max_cycles": 8, "table_points": 2000},
    "cascade_md": {"cells": 12, "serial_steps": 40, "parallel_steps": 20,
                   "parallel_ranks": 2, "table_points": 2000},
    "kmc_serial_dense": {"cells": 16, "vacancies": 1000, "events": 4000,
                         "table_points": 2000},
    "kmc_parallel": {"cells": 16, "vacancies": 400, "nranks": 8,
                     "cycles": 6, "table_points": 2000},
    "stream_io": {"cells": 20, "vacancies": 300, "events": 2000,
                  "checkpoint_every": 50, "table_points": 2000},
    "service_sweep": {"jobs": 24, "distinct": 8, "warm": 100, "cells": 5,
                      "md_steps": 10, "kmc_max_events": 10,
                      "table_points": 500},
}
QUICK_SIZES = {
    "coupled_ref": {"cells": 8, "md_steps": 8, "kmc_nranks": 2,
                    "kmc_max_cycles": 2, "table_points": 500},
    "cascade_md": {"cells": 6, "serial_steps": 6, "parallel_steps": 4,
                   "parallel_ranks": 2, "table_points": 500},
    "kmc_serial_dense": {"cells": 6, "vacancies": 40, "events": 200,
                         "table_points": 500},
    "kmc_parallel": {"cells": 8, "vacancies": 30, "nranks": 2,
                     "cycles": 1, "table_points": 500},
    "stream_io": {"cells": 6, "vacancies": 20, "events": 120,
                  "checkpoint_every": 50, "table_points": 500},
    "service_sweep": {"jobs": 4, "distinct": 2, "warm": 6, "cells": 5,
                      "md_steps": 4, "kmc_max_events": 4,
                      "table_points": 500},
}

PKA_ENERGY = 1500.0
PKA_DIRECTION = (1.0, 0.7, 0.3)
TEMPERATURE = 600.0
#: |E_end - E_start| allowed on the cascade, as a share of the PKA
#: energy: a 1 fs step through a 1.5 keV collision is not symplectic-
#: clean, but losing or gaining a quarter of the kick means a broken
#: integrator or force kernel.
ENERGY_DRIFT_BOUND = 0.25

#: kmc_parallel cells, written backend/scheme.
CELLS = (
    ("thread", "thread", None, "ondemand"),
    ("process", "process", 2, "ondemand"),
    ("overdecomposed", "overdecomposed", 2, "ondemand"),
    ("traditional", "process", 2, "traditional"),
    ("onesided", "process", 2, "onesided"),
)


def digest(*items) -> str:
    """SHA-256 over arrays (dtype, shape, bytes) and JSON-able scalars."""
    h = hashlib.sha256()
    for item in items:
        if isinstance(item, np.ndarray):
            arr = np.ascontiguousarray(item)
            h.update(f"{arr.dtype.str}{arr.shape}".encode())
            h.update(arr.tobytes())
        else:
            h.update(json.dumps(item, sort_keys=True).encode())
        h.update(b"\0")
    return h.hexdigest()


def _ledger(stats: dict) -> dict:
    """The exact part of a world's traffic accounting."""
    return {
        "messages": int(stats["total_messages"]),
        "bytes": int(stats["total_sent_bytes"]),
        "collectives": int(stats["total_collectives"]),
    }


def _median(values):
    return statistics.median(values) if values else 0.0


class Pass:
    """What one pass produced: part timings, digests, counts, checks."""

    def __init__(self) -> None:
        self.parts: dict[str, float] = {}
        self.samples: dict[str, list[float]] = {}
        self.digests: dict[str, str] = {}
        self.counts: dict[str, float] = {}
        self.checks: dict[str, bool] = {}
        self.operations = 1
        self.wall = 0.0

    def check(self, name: str, ok) -> None:
        self.checks[name] = bool(ok)


class Workload:
    """Base: input generation, set-up, one pass, metric reduction."""

    name = ""

    def __init__(self, seed: int, quick: bool) -> None:
        self.seed = int(seed)
        self.size = dict((QUICK_SIZES if quick else SIZES)[self.name])
        self.rng = np.random.default_rng([self.seed, _NAMES.index(self.name)])
        self.generate()

    # -- harness-side input generation (no repro import needed) --------
    def generate(self) -> None:
        raise NotImplementedError

    def _vacancy_rows(self, cells: int, count: int) -> np.ndarray:
        nsites = 2 * cells**3
        return np.sort(self.rng.choice(nsites, size=count, replace=False))

    def _pka_energy(self) -> float:
        return PKA_ENERGY * (1.0 + 0.005 * float(self.rng.uniform(-1, 1)))

    # -- program-side ---------------------------------------------------
    def setup(self) -> None:
        raise NotImplementedError

    def run_pass(self, tr, workdir: Path) -> Pass:
        raise NotImplementedError

    def reference(self, workdir: Path, passes: list[Pass]) -> dict:
        """Checks against an independent execution (after the passes)."""
        return {}

    def end_to_end(self, passes: list[Pass]) -> dict:
        raise NotImplementedError

    def layer_metrics(self, passes, traced: Pass, bud: dict) -> dict:
        return {}

    # -- shared helpers -------------------------------------------------
    def _potential(self):
        from repro.potential.fe import make_fe_potential

        return make_fe_potential(n=self.size["table_points"])

    def _lattice(self):
        from repro.lattice.bcc import BCCLattice

        c = self.size["cells"]
        return BCCLattice(c, c, c)

    def _occupancy(self, rows: np.ndarray) -> np.ndarray:
        from repro.kmc.events import ATOM, VACANCY

        occ = np.full(self.lattice.nsites, ATOM, dtype=np.int8)
        occ[rows] = VACANCY
        return occ

    def _part_median(self, passes, part: str) -> float:
        return _median([p.parts[part] for p in passes if part in p.parts])


# ----------------------------------------------------------------------
class CoupledRef(Workload):
    name = "coupled_ref"

    def generate(self) -> None:
        self.spec_seed = int(self.rng.integers(1, 2**31 - 1))
        self.pka_energy = self._pka_energy()

    def setup(self) -> None:
        from repro.core import CoupledSimulation
        from repro.service.spec import ScenarioSpec

        s = self.size
        self.spec = ScenarioSpec(
            cells=s["cells"], md_steps=s["md_steps"],
            pka_energy=self.pka_energy, kmc_nranks=s["kmc_nranks"],
            kmc_max_cycles=s["kmc_max_cycles"], kmc_scheme="ondemand",
            backend="process", workers=2, trajectory_every=1,
            checkpoint_every=4, table_points=s["table_points"],
            seed=self.spec_seed,
        )
        self.potential = self._potential()
        self._Sim = CoupledSimulation
        # The first construction pays the lazy neighbor-offset tables.
        CoupledSimulation(self.spec.to_coupled_config(), self.potential)

    def run_pass(self, tr, workdir: Path) -> Pass:
        out = Pass()
        s = self.size
        stamps: list[tuple[str, float]] = []

        def progress(stage: str) -> None:
            stamps.append((stage, time.perf_counter()))
            tr.stage(stage)

        t0 = time.perf_counter()
        with tr.span("core.CoupledSimulation", "potential"):
            sim = self._Sim(
                self.spec.to_coupled_config(
                    trajectory=str(workdir / "traj"),
                    checkpoint_dir=str(workdir / "ckpt"),
                ),
                progress=progress,
            )
        with tr.span("core.CoupledSimulation.run", None, ranks=s["kmc_nranks"],
                     observe=True):
            res = sim.run()
        t1 = time.perf_counter()
        out.wall = t1 - t0
        stamps.append(("end", t1))
        for (stage, start), (_next, stop) in zip(stamps, stamps[1:], strict=False):
            out.parts[f"stage.{stage}"] = stop - start
        out.counts = {
            "atom_steps": sim.lattice.nsites * s["md_steps"],
            "cycles": s["kmc_max_cycles"],
            "kmc_events": res.kmc_events,
            **{f"ledger.{k}": v for k, v in _ledger(res.comm_stats).items()},
        }
        out.digests["state"] = digest(
            res.vacancies_after_md, res.vacancies_after_kmc, res.kmc_events,
            res.kmc_time, res.trajectory_frames, _ledger(res.comm_stats),
        )
        out.check("vacancies_conserved",
                  len(res.vacancies_after_md) == len(res.vacancies_after_kmc))
        out.check("frenkel_pairs",
                  res.cascade.n_runaways == len(res.cascade.vacancy_rows))
        out.check("trajectory_recorded", (res.trajectory_frames or 0) >= 2)
        return out

    def end_to_end(self, passes) -> dict:
        cascade = self._part_median(passes, "stage.cascade")
        kmc = self._part_median(passes, "stage.kmc")
        c = passes[0].counts
        return {
            "md_atom_steps_per_s": c["atom_steps"] / cascade,
            "cycles_per_s.process": c["cycles"] / kmc,
        }

    def layer_metrics(self, passes, traced, bud) -> dict:
        wall = traced.wall
        out = {
            f"core.stage_share.{stage}": bud["stage_s"][stage] / wall
            for stage in ("setup", "cascade", "checkpoint", "map_damage",
                          "trajectory_init", "kmc", "analysis")
        }
        out["runtime.blocked_share.process"] = bud["world"][
            "core.CoupledSimulation.run"]["blocked_share"]
        return out


# ----------------------------------------------------------------------
class CascadeMD(Workload):
    name = "cascade_md"

    def generate(self) -> None:
        self.md_seed = int(self.rng.integers(1, 2**31 - 1))
        self.pka_energy = self._pka_energy()

    def setup(self) -> None:
        from repro.constants import MVV2E
        from repro.md.cascade import CascadeConfig, run_cascade
        from repro.md.engine import MDConfig, MDEngine
        from repro.md.parallel_damage import ParallelDamageMD

        self.lattice = self._lattice()
        self.potential = self._potential()
        self.config = MDConfig(temperature=TEMPERATURE, seed=self.md_seed)
        self.cascade = CascadeConfig(
            pka_energy=self.pka_energy, pka_direction=PKA_DIRECTION,
            nsteps=self.size["serial_steps"], temperature=TEMPERATURE,
        )
        self._api = (MDEngine, run_cascade, ParallelDamageMD)
        engine = MDEngine(self.lattice, self.potential, self.config)
        # The parallel engine takes the PKA as (site, velocity): the
        # same atom and kick the serial insert_pka picks.
        center = self.lattice.lengths / 2.0
        d = np.linalg.norm(engine.state.x - center, axis=1)
        direction = np.asarray(PKA_DIRECTION) / np.linalg.norm(PKA_DIRECTION)
        speed = np.sqrt(2.0 * self.pka_energy / (engine.state.mass * MVV2E))
        self.pka = (int(np.argmin(d)), speed * direction)

    def run_pass(self, tr, workdir: Path) -> Pass:
        MDEngine, run_cascade, ParallelDamageMD = self._api
        out = Pass()
        s = self.size
        nsites = self.lattice.nsites
        t0 = time.perf_counter()
        with tr.span("md.MDEngine", "md"):
            engine = MDEngine(self.lattice, self.potential, self.config)
        ta = time.perf_counter()
        with tr.span("md.run_cascade", "md", observe=True):
            res = run_cascade(engine, self.cascade)
        out.parts["serial"] = time.perf_counter() - ta
        with tr.span("md.ParallelDamageMD", "lattice"):
            par = ParallelDamageMD(
                self.lattice, self.potential, self.config,
                nranks=s["parallel_ranks"], backend="process",
            )
        tb = time.perf_counter()
        with tr.span("md.ParallelDamageMD.run", "md",
                     ranks=s["parallel_ranks"], observe=True):
            pres = par.run(s["parallel_steps"], pka=self.pka)
        t1 = time.perf_counter()
        out.parts["parallel"] = t1 - tb
        out.wall = t1 - t0
        ledger = _ledger(pres.comm_stats)
        out.counts = {
            "serial_atom_steps": nsites * s["serial_steps"],
            "parallel_atom_steps": nsites * s["parallel_steps"],
            "ghost_msgs_per_step": ledger["messages"] / s["parallel_steps"],
            "ghost_bytes_per_step": ledger["bytes"] / s["parallel_steps"],
        }
        out.digests["serial"] = digest(
            engine.state.x, engine.state.v, res.vacancy_rows, res.n_runaways)
        out.digests["parallel"] = digest(
            pres.positions, pres.velocities, pres.vacancy_ranks,
            pres.runaway_ids, ledger)
        e = [rec.total_energy for rec in res.energy_trace]
        out.counts["energy_drift_frac"] = abs(e[-1] - e[0]) / self.pka_energy
        out.check("energy_drift",
                  out.counts["energy_drift_frac"] <= ENERGY_DRIFT_BOUND)
        out.check("serial_frenkel_pairs",
                  res.n_runaways == len(res.vacancy_rows))
        out.check("serial_sites_conserved",
                  engine.state.natoms + res.n_runaways == nsites)
        out.check("parallel_frenkel_pairs",
                  len(pres.vacancy_ranks) == len(pres.runaway_ids))
        return out

    def end_to_end(self, passes) -> dict:
        c = passes[0].counts
        return {
            "md_atom_steps_per_s":
                c["serial_atom_steps"] / self._part_median(passes, "serial"),
            "md_par_atom_steps_per_s":
                c["parallel_atom_steps"] / self._part_median(passes, "parallel"),
        }

    def layer_metrics(self, passes, traced, bud) -> dict:
        e2e = self.end_to_end(passes)
        c = traced.counts
        return {
            "md.ghost_msgs_per_step": c["ghost_msgs_per_step"],
            "md.ghost_bytes_per_step": c["ghost_bytes_per_step"],
            "md.par_efficiency_2w": e2e["md_par_atom_steps_per_s"]
            / (self.size["parallel_ranks"] * e2e["md_atom_steps_per_s"]),
        }


# ----------------------------------------------------------------------
class KMCSerialDense(Workload):
    name = "kmc_serial_dense"

    def generate(self) -> None:
        self.rows = self._vacancy_rows(self.size["cells"], self.size["vacancies"])
        self.kmc_seed = int(self.rng.integers(1, 2**31 - 1))

    def setup(self) -> None:
        from repro.kmc.akmc import SerialAKMC

        self.lattice = self._lattice()
        self.potential = self._potential()
        self.occ0 = self._occupancy(self.rows)
        self._Engine = SerialAKMC
        SerialAKMC(self.lattice, self.potential, occupancy=self.occ0,
                   seed=self.kmc_seed)

    def run_pass(self, tr, workdir: Path) -> Pass:
        from repro.kmc.events import VACANCY

        out = Pass()
        t0 = time.perf_counter()
        with tr.span("kmc.SerialAKMC", "kmc"):
            engine = self._Engine(self.lattice, self.potential,
                                  occupancy=self.occ0, seed=self.kmc_seed)
        ta = time.perf_counter()
        with tr.span("kmc.SerialAKMC.run", "kmc", observe=True):
            res = engine.run(max_events=self.size["events"])
        t1 = time.perf_counter()
        out.parts["kmc"] = t1 - ta
        out.wall = t1 - t0
        out.counts = {"events": res.events}
        out.digests["state"] = digest(res.occupancy, res.time, res.events)
        out.check("events_executed", res.events == self.size["events"])
        out.check("vacancies_conserved",
                  int(np.count_nonzero(res.occupancy == VACANCY))
                  == self.size["vacancies"])
        return out

    def end_to_end(self, passes) -> dict:
        return {"kmc_events_per_s":
                passes[0].counts["events"] / self._part_median(passes, "kmc")}

    def layer_metrics(self, passes, traced, bud) -> dict:
        return _catalog_counts(bud["counters"])


def _catalog_counts(counters: dict) -> dict:
    refreshed = counters["kmc.catalog.rows_refreshed"]
    reused = counters["kmc.catalog.rows_reused"]
    return {
        "kmc.rows_refreshed_per_event": refreshed / counters["kmc.events"],
        "kmc.catalog_reuse_ratio": reused / (reused + refreshed),
    }


# ----------------------------------------------------------------------
class KMCParallel(Workload):
    name = "kmc_parallel"

    def generate(self) -> None:
        self.rows = self._vacancy_rows(self.size["cells"], self.size["vacancies"])
        self.kmc_seed = int(self.rng.integers(1, 2**31 - 1))

    def setup(self) -> None:
        from repro.kmc.akmc import ParallelAKMC

        self.lattice = self._lattice()
        self.potential = self._potential()
        self.occ0 = self._occupancy(self.rows)
        self._Engine = ParallelAKMC
        self._engine("thread", None, "ondemand")

    def _engine(self, backend, workers, scheme):
        return self._Engine(
            self.lattice, self.potential, nranks=self.size["nranks"],
            scheme=scheme, seed=self.kmc_seed, backend=backend, workers=workers,
        )

    def run_pass(self, tr, workdir: Path) -> Pass:
        from repro.kmc.events import VACANCY

        out = Pass()
        out.operations = len(CELLS)
        t0 = time.perf_counter()
        for cell, backend, workers, scheme in CELLS:
            with tr.span(f"kmc.ParallelAKMC.{cell}", "lattice"):
                engine = self._engine(backend, workers, scheme)
            ta = time.perf_counter()
            with tr.span(f"kmc.ParallelAKMC.run.{cell}", "kmc",
                         ranks=self.size["nranks"], observe=True):
                res = engine.run(self.occ0, max_cycles=self.size["cycles"])
            out.parts[cell] = time.perf_counter() - ta
            ledger = _ledger(res.comm_stats)
            out.digests[f"state.{cell}"] = digest(
                res.occupancy, res.time, res.cycles, res.events)
            out.digests[f"ledger.{cell}"] = digest(ledger)
            out.counts[f"cycles.{cell}"] = res.cycles
            out.counts[f"events.{cell}"] = res.events
            out.counts[f"messages.{cell}"] = ledger["messages"]
            out.counts[f"bytes.{cell}"] = ledger["bytes"]
            out.check(f"vacancies_conserved.{cell}",
                      int(np.count_nonzero(res.occupancy == VACANCY))
                      == self.size["vacancies"])
        out.wall = time.perf_counter() - t0
        states = {out.digests[f"state.{cell[0]}"] for cell in CELLS}
        out.check("cells_bit_identical", len(states) == 1)
        ondemand = {out.digests[f"ledger.{cell[0]}"]
                    for cell in CELLS if cell[3] == "ondemand"}
        out.check("ondemand_ledgers_identical", len(ondemand) == 1)
        return out

    def end_to_end(self, passes) -> dict:
        c = passes[0].counts
        return {
            f"cycles_per_s.{cell[0]}":
                c[f"cycles.{cell[0]}"] / self._part_median(passes, cell[0])
            for cell in CELLS
        }

    def layer_metrics(self, passes, traced, bud) -> dict:
        c = traced.counts
        counters = bud["counters"]
        out = {}
        for scheme, cell in (("ondemand", "process"),
                             ("traditional", "traditional"),
                             ("onesided", "onesided")):
            cycles = c[f"cycles.{cell}"]
            out[f"runtime.msgs_per_cycle.{scheme}"] = c[f"messages.{cell}"] / cycles
            out[f"runtime.bytes_per_cycle.{scheme}"] = c[f"bytes.{cell}"] / cycles
        for backend in ("thread", "process", "overdecomposed"):
            out[f"runtime.blocked_share.{backend}"] = bud["world"][
                f"kmc.ParallelAKMC.run.{backend}"]["blocked_share"]
        # A counter exists from its first increment.  Three are read
        # with a default because zero is their healthy value here: no
        # pool fall-backs, and ghost strips of a 16^3 lattice on 8 ranks
        # are smaller than the 1 KiB a message needs to take a slot.
        out.update({
            "kmc.events_per_cycle": c["events.process"] / c["cycles.process"],
            "kmc.rate_clamped_per_event":
                counters.get("kmc.rate_bound.clamped", 0.0)
                / counters["kmc.events"],
            "runtime.sched_yields_per_cycle":
                counters["runtime.scheduler.yields"]
                / c["cycles.overdecomposed"],
            "runtime.shm_slot_hits":
                counters.get("runtime.shm.slot_msgs", 0.0),
            "runtime.shm_fallbacks":
                counters.get("runtime.shm.pool_exhausted", 0.0),
        })
        return out


# ----------------------------------------------------------------------
class StreamIO(Workload):
    name = "stream_io"

    def generate(self) -> None:
        self.rows = self._vacancy_rows(self.size["cells"], self.size["vacancies"])
        self.kmc_seed = int(self.rng.integers(1, 2**31 - 1))

    def setup(self) -> None:
        from repro.core.clusters import clustering_report_from_store
        from repro.io.store import TrajectoryReader, finalize_store
        from repro.kmc.akmc import SerialAKMC

        self.lattice = self._lattice()
        self.potential = self._potential()
        self.occ0 = self._occupancy(self.rows)
        self._api = (SerialAKMC, finalize_store, TrajectoryReader,
                     clustering_report_from_store)
        SerialAKMC(self.lattice, self.potential, occupancy=self.occ0,
                   seed=self.kmc_seed)

    def run_pass(self, tr, workdir: Path) -> Pass:
        from repro.kmc.events import VACANCY

        SerialAKMC, finalize_store, Reader, report_from_store = self._api
        out = Pass()
        s = self.size
        store = workdir / "traj"
        t0 = time.perf_counter()
        with tr.span("kmc.SerialAKMC", "kmc"):
            engine = SerialAKMC(self.lattice, self.potential,
                                occupancy=self.occ0, seed=self.kmc_seed)
        ta = time.perf_counter()
        with tr.span("kmc.SerialAKMC.run", "kmc", observe=True):
            res = engine.run(
                max_events=s["events"], trajectory=str(store),
                trajectory_every=1, checkpoint_every=s["checkpoint_every"],
                checkpoint_path=str(workdir / "kmc.npz"),
            )
        with tr.span("io.finalize_store", "io", observe=True):
            finalize_store(store)
        tb = time.perf_counter()
        out.parts["write"] = tb - ta
        with tr.span("io.TrajectoryReader.sweep", "io", observe=True):
            reader = Reader(store)
            nframes = 0
            last = last_time = None
            for last_time, last in reader.iter_frames():
                nframes += 1
        with tr.span("core.clustering_report_from_store", "core", observe=True):
            report = report_from_store(reader)
        t1 = time.perf_counter()
        out.parts["read"] = t1 - tb
        out.wall = t1 - t0
        disk = sum(p.stat().st_size for p in store.glob("shard-*.bin"))
        out.counts = {"events": res.events, "frames": nframes,
                      "disk_bytes": disk}
        out.digests["state"] = digest(res.occupancy, res.time, res.events)
        out.digests["store"] = digest(last, last_time, nframes,
                                      report.n_clusters)
        out.check("readback_equals_final_frame",
                  last is not None and np.array_equal(last, res.occupancy)
                  and last_time == res.time)
        out.check("frames_recorded", nframes == res.events)
        out.check("vacancies_conserved",
                  int(np.count_nonzero(res.occupancy == VACANCY))
                  == s["vacancies"])
        out.check("report_counts_vacancies",
                  report.n_vacancies == s["vacancies"])
        return out

    def end_to_end(self, passes) -> dict:
        return {"kmc_events_per_s":
                passes[0].counts["events"] / self._part_median(passes, "write")}

    def layer_metrics(self, passes, traced, bud) -> dict:
        c = traced.counts
        store_s = sum(t for name, t in bud["phase_s"].items()
                      if name.startswith("io.trajectory."))
        out = {
            "io.disk_bytes_per_frame": c["disk_bytes"] / c["frames"],
            "io.store_share": store_s / traced.wall,
        }
        out.update(_catalog_counts(bud["counters"]))
        return out


# ----------------------------------------------------------------------
class ServiceSweep(Workload):
    name = "service_sweep"

    def generate(self) -> None:
        self.base_seed = int(self.rng.integers(1, 2**30))

    def setup(self) -> None:
        from repro.service import ScenarioSpec, ServiceClient, run_service

        s = self.size
        self.specs = [
            ScenarioSpec(
                cells=s["cells"], md_steps=s["md_steps"],
                kmc_max_events=s["kmc_max_events"],
                table_points=s["table_points"],
                seed=self.base_seed + i % s["distinct"],
            )
            for i in range(s["jobs"])
        ]
        self._api = (run_service, ServiceClient)
        for spec in self.specs[: s["distinct"]]:
            spec.key()

    def run_pass(self, tr, workdir: Path) -> Pass:
        run_service, ServiceClient = self._api
        out = Pass()
        s = self.size
        root = workdir / "root"
        out.operations = s["jobs"] + s["warm"]
        t0 = time.perf_counter()
        with tr.span("service.run_service.cold", "service", observe=True):
            records = run_service(root, self.specs, workers=2)
        ta = time.perf_counter()
        out.parts["cold"] = ta - t0
        warm = []
        cached = 0
        with tr.span("service.run_service.warm", "service", observe=True):
            for i in range(s["warm"]):
                tw = time.perf_counter()
                rec = run_service(root, [self.specs[i % s["distinct"]]],
                                  workers=2)[0]
                warm.append(time.perf_counter() - tw)
                cached += rec.mode == "cached" and rec.state == "done"
        t1 = time.perf_counter()
        out.parts["warm"] = t1 - ta
        out.samples["warm_s"] = warm
        out.wall = t1 - t0
        executed = sum(r.mode == "executed" for r in records)
        out.counts = {"jobs": len(records), "executed": executed,
                      "warm_hits": cached}
        client = ServiceClient(root)
        manifest = {}
        for rec in records[: s["distinct"]]:
            arts = client.cache.manifest(rec.key)["artifacts"]
            manifest[rec.key] = {rel: meta["sha256"] for rel, meta in arts.items()
                                 if meta["deterministic"]}
        out.digests["artifacts"] = digest(manifest)
        out.check("all_done", all(r.state == "done" for r in records))
        out.check("dedup_executed", executed == s["distinct"])
        out.check("warm_all_cached", cached == s["warm"])
        self._last_root = root
        return out

    def reference(self, workdir: Path, passes) -> dict:
        """Published artifacts equal a direct ``CoupledSimulation.run``."""
        from repro.core import CoupledSimulation

        _run_service, ServiceClient = self._api
        client = ServiceClient(self._last_root)
        ok = True
        direct_s = 0.0
        for spec in self.specs[: self.size["distinct"]]:
            t0 = time.perf_counter()
            res = CoupledSimulation(spec.to_coupled_config()).run()
            direct_s += time.perf_counter() - t0
            entry = client.cache.lookup(spec.key())
            summary = json.loads((entry / "result.json").read_text())
            ok &= np.array_equal(np.load(entry / "vacancies_after_md.npy"),
                                 res.vacancies_after_md)
            ok &= np.array_equal(np.load(entry / "vacancies_after_kmc.npy"),
                                 res.vacancies_after_kmc)
            ok &= summary["kmc_events"] == res.kmc_events
            ok &= summary["kmc_time_ps"] == res.kmc_time
        return {"checks": {"artifacts_equal_direct_run": bool(ok)},
                "direct_s": direct_s}

    def end_to_end(self, passes) -> dict:
        warm = [_median(p.samples["warm_s"]) for p in passes]
        return {
            "jobs_per_s":
                passes[0].counts["jobs"] / self._part_median(passes, "cold"),
            "warm_job_p50_ms": 1e3 * _median(warm),
        }

    def overhead(self, cold_s: float, direct_s: float) -> tuple[float, float]:
        """(ms per job, share) of the cold batch that is not physics."""
        busy = cold_s * 2  # two workers
        over = max(0.0, busy - direct_s)
        return 1e3 * over / self.size["jobs"], over / busy

    def layer_metrics(self, passes, traced, bud) -> dict:
        per_job, share = self.overhead(traced.parts["cold"], bud["direct_s"])
        # The workers are processes of the service's own making, so
        # their physics is invisible from outside: split the cold
        # batch between service and the coupled pipeline by the
        # overhead share measured against the direct runs.
        physics_s = traced.parts["cold"] * (1.0 - share)
        bud["layer_s"]["service"] -= physics_s
        bud["layer_s"]["core"] += physics_s
        warm = sorted(traced.samples["warm_s"])
        return {
            "service.overhead_per_job_ms": per_job,
            "service.overhead_share": share,
            "service.dedup_executed": traced.counts["executed"],
            "service.warm_p95_ms": 1e3 * warm[int(0.95 * (len(warm) - 1))],
        }


WORKLOADS = {
    cls.name: cls
    for cls in (CoupledRef, CascadeMD, KMCSerialDense, KMCParallel,
                StreamIO, ServiceSweep)
}
_NAMES = list(WORKLOADS)
