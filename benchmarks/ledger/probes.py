"""Per-layer probes: timed calls into each layer's public functions.

A probe is independent of the workload, so every traced run measures
the same set and a layer metric can be followed across workloads and
commits.  Each value is the median of a few repeats of a small fixed
amount of work; the point is a stable per-layer yardstick, not a
micro-optimisation target.  Nothing here is a modeled Sunway time.
"""

from __future__ import annotations

import multiprocessing
import os
import statistics
import time
from pathlib import Path

import numpy as np

from repro import kernels
from repro import observe as obs

_BACKENDS = ("thread", "process", "overdecomposed")


def _per_call(fn, number: int = 1, repeat: int = 5) -> float:
    """Median seconds per call over ``repeat`` batches of ``number``."""
    samples = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        for _ in range(number):
            fn()
        samples.append((time.perf_counter() - t0) / number)
    return statistics.median(samples)


def _per_kernels_mode(out: dict, notes: dict, name: str, fn, work: int) -> None:
    """``work / seconds`` of ``fn`` under each kernels mode, as ``name.<mode>``.

    The program resolves ``REPRO_KERNELS`` on every call, so the mode is
    pinned through the environment for the probe only.  Where numba is
    absent its row is ``None`` with the reason in ``notes``.
    """
    for mode in ("numpy", "numba"):
        key = f"{name}.{mode}"
        if mode == "numba" and not kernels.numba_available():
            out[key] = None
            notes[key] = "numba not importable"
            continue
        os.environ["REPRO_KERNELS"] = mode
        try:
            fn()  # compile
            out[key] = work / _per_call(fn)
        finally:
            del os.environ["REPRO_KERNELS"]


def _potential_lattice(out: dict, quick: bool) -> None:
    from repro.lattice.bcc import BCCLattice
    from repro.lattice.domain import DomainDecomposition, choose_grid
    from repro.potential.fe import make_fe_potential

    r = np.linspace(2.0, 3.0, 64)

    def build():
        pot = make_fe_potential(n=5000)
        pot.phi(r)
        pot.fdens(r)
        pot.embed(r)

    out["potential.table_build_ms"] = 1e3 * _per_call(build)

    cells = 8 if quick else 16
    lattice = BCCLattice(cells, cells, cells)

    def decompose():
        decomp = DomainDecomposition(lattice, choose_grid(8, (cells,) * 3))
        for rank in range(decomp.nprocs):
            sub = decomp.subdomain(rank)
            owned = sub.owned_site_ranks(lattice)
            sub.all_ghost_site_ranks(lattice, 2)
            lattice.first_shell_ranks(owned)

    out["lattice.decomp_build_ms"] = 1e3 * _per_call(decompose)


def _md_kernels(out: dict, notes: dict, quick: bool, workdir: Path) -> None:
    from repro.io.checkpoint import save_checkpoint
    from repro.lattice.bcc import BCCLattice
    from repro.md.engine import MDConfig, MDEngine
    from repro.md.forces import (
        build_pair_table,
        compute_energy_forces,
        eam_evaluate,
    )
    from repro.md.integrator import VelocityVerlet
    from repro.md.neighbors.lattice_list import LatticeNeighborList
    from repro.potential.fe import make_fe_potential

    cells = 6 if quick else 12
    lattice = BCCLattice(cells, cells, cells)
    pot = make_fe_potential(n=2000)
    out["md.neighbor_build_ms"] = 1e3 * _per_call(
        lambda: LatticeNeighborList(lattice, pot.cutoff))
    engine = MDEngine(lattice, pot, MDConfig(temperature=600.0, seed=11))
    engine.initialize()
    state, nblist = engine.state, engine.nblist
    table, x, active, _runs = build_pair_table(state, nblist, pot)
    npairs = len(table)
    out["md.force_pairs_per_s"] = npairs / _per_call(
        lambda: compute_energy_forces(pot, state, nblist))
    _per_kernels_mode(out, notes, "kernels.eam_pairs_per_s",
                      lambda: eam_evaluate(pot, len(x), table, active), npairs)
    integ = VelocityVerlet(0.001)

    def integrate():
        integ.first_half(state, nblist)
        integ.second_half(state, nblist)

    out["md.integrate_ns_per_atom"] = (
        1e9 * _per_call(integrate, number=20) / state.natoms)
    out["md.runaway_scan_ms"] = 1e3 * _per_call(
        lambda: nblist.update_runaways(state, 1.2))
    path = workdir / "probe_md.npz"
    out["io.md_ckpt_save_ms"] = 1e3 * _per_call(
        lambda: save_checkpoint(path, engine))


def _kmc(out: dict, notes: dict, quick: bool) -> None:
    from repro.core.clusters import clustering_report
    from repro.kmc.akmc import ParallelAKMC, SerialAKMC
    from repro.kmc.catalog import EventCatalog
    from repro.kmc.events import ATOM, VACANCY, KMCModel, RateParameters
    from repro.lattice.bcc import BCCLattice
    from repro.potential.fe import make_fe_potential

    cells, nvac, steps = (6, 40, 200) if quick else (16, 1000, 4000)
    lattice = BCCLattice(cells, cells, cells)
    pot = make_fe_potential(n=2000)
    rows = np.sort(np.random.default_rng(5).choice(
        lattice.nsites, size=nvac, replace=False))
    occ = np.full(lattice.nsites, ATOM, dtype=np.int8)
    occ[rows] = VACANCY
    model = KMCModel(lattice, pot, RateParameters())

    def rates():
        model.vacancy_events_batch(rows, occ)

    out["kmc.rates_vacancies_per_s"] = nvac / _per_call(rates)
    _per_kernels_mode(out, notes, "kernels.rates_vacancies_per_s", rates, nvac)

    catalog = EventCatalog(model.nrows)
    out["kmc.catalog_refresh_us_per_row"] = 1e6 * _per_call(
        lambda: catalog.refresh(model, occ, rows, VACANCY)) / nvac
    us = np.random.default_rng(6).random(2000)

    def sample():
        for u in us:
            catalog.sample_event(u)

    out["kmc.catalog_sample_us"] = 1e6 * _per_call(sample) / len(us)

    engine = SerialAKMC(lattice, pot, occupancy=occ, seed=7)
    engine.step()  # the full catalog build is set-up, not a step
    samples = []
    for _ in range(steps):
        t0 = time.perf_counter()
        engine.step()
        samples.append(time.perf_counter() - t0)
    samples.sort()
    out["kmc.serial_step_p50_us"] = 1e6 * samples[len(samples) // 2]
    out["kmc.serial_step_p99_us"] = 1e6 * samples[int(0.99 * (len(samples) - 1))]

    par = ParallelAKMC(lattice, pot, nranks=1, seed=7, backend="thread")
    t0 = time.perf_counter()
    res = par.run(occ, max_cycles=4 if quick else 20)
    out["kmc.parallel_1rank_events_per_s"] = res.events / (time.perf_counter() - t0)

    out["core.cluster_report_ms"] = 1e3 * _per_call(
        lambda: clustering_report(lattice, rows))


def _runtime(out: dict, quick: bool) -> None:
    from repro.runtime.simmpi import World

    trips, big_trips, colls = (20, 3, 10) if quick else (200, 20, 100)
    small = np.zeros(1)  # 8 bytes
    mib = np.zeros(1 << 17)  # 1 MiB
    mib16 = np.zeros(1 << 21)  # 16 MiB, the one-shot segment path

    def pingpong(comm):
        def bounce(payload, n):
            if comm.rank == 0:
                comm.send(1, 1, payload)
                comm.recv(1, 1)  # warm the path
                t0 = time.perf_counter()
                for _ in range(n):
                    comm.send(1, 1, payload)
                    comm.recv(1, 1)
                return (time.perf_counter() - t0) / (2 * n)
            for _ in range(n + 1):
                comm.recv(0, 1)
                comm.send(0, 1, payload)
            return None

        res = {"latency": bounce(small, trips), "mib": bounce(mib, big_trips),
               "mib16": bounce(mib16, 2)}
        if comm.rank == 0:
            t0 = time.perf_counter()
            for _ in range(trips * 10):
                comm.iprobe(1, 99)
            res["iprobe"] = (time.perf_counter() - t0) / (trips * 10)
        return res

    def collectives(comm):
        comm.barrier()
        t0 = time.perf_counter()
        for _ in range(colls):
            comm.allreduce(comm.rank, op="max")
        allreduce = (time.perf_counter() - t0) / colls
        win = comm.win_create()
        t0 = time.perf_counter()
        for _ in range(colls):
            win.put((comm.rank + 1) % comm.size, small)
            win.fence()
        return allreduce, (time.perf_counter() - t0) / colls

    def noop(comm):
        return comm.rank

    for backend in _BACKENDS:
        one_way = World(2, backend=backend, workers=2).run(pingpong)[0]
        out[f"runtime.p2p_latency_us.{backend}"] = 1e6 * one_way["latency"]
        out[f"runtime.p2p_mb_per_s.{backend}"] = mib.nbytes / one_way["mib"] / 1e6
        if backend == "process":
            out["runtime.p2p_mb_per_s.process_16mib"] = (
                mib16.nbytes / one_way["mib16"] / 1e6)
        if backend == "thread":
            out["runtime.iprobe_miss_us"] = 1e6 * one_way["iprobe"]
        allreduce, fence = World(8, backend=backend, workers=2).run(collectives)[0]
        out[f"runtime.allreduce_us.{backend}"] = 1e6 * allreduce
        out[f"runtime.fence_us.{backend}"] = 1e6 * fence
        out[f"runtime.world_spawn_ms.{backend}"] = 1e3 * _per_call(
            lambda b=backend: World(8, backend=b, workers=2).run(noop), repeat=3)


def _io(out: dict, quick: bool, workdir: Path) -> None:
    from repro.io.checkpoint import load_kmc_checkpoint, save_kmc_checkpoint
    from repro.io.store import TrajectoryReader, TrajectoryWriter
    from repro.lattice.bcc import BCCLattice

    cells, nframes = (6, 32) if quick else (16, 256)
    lattice = BCCLattice(cells, cells, cells)
    rng = np.random.default_rng(8)
    occ = np.ones(lattice.nsites, dtype=np.int8)
    occ[rng.choice(lattice.nsites, 64, replace=False)] = 0
    frames = []
    for _ in range(nframes):
        src = rng.choice(np.flatnonzero(occ == 0), 4, replace=False)
        dst = rng.choice(np.flatnonzero(occ == 1), 4, replace=False)
        occ[src], occ[dst] = 1, 0
        frames.append(occ.copy())
    store = workdir / "probe_traj"

    def write():
        writer = TrajectoryWriter(store, lattice, mode="w")
        for i, frame in enumerate(frames):
            writer.append(float(i + 1), frame)
        writer.close(final=True)

    t_write = _per_call(write, repeat=3)
    out["io.append_frames_per_s"] = nframes / t_write
    out["io.append_mb_per_s"] = nframes * lattice.nsites / t_write / 1e6

    def read_seq():
        for _frame in TrajectoryReader(store).iter_frames():
            pass

    out["io.read_seq_frames_per_s"] = nframes / _per_call(read_seq, repeat=3)
    picks = rng.permutation(nframes)[:16]
    reader = TrajectoryReader(store)

    def read_random():
        for i in picks:
            reader.frame(int(i))

    out["io.read_random_ms"] = 1e3 * _per_call(read_random, repeat=3) / len(picks)
    ckpt = workdir / "probe_kmc.npz"
    out["io.kmc_ckpt_save_ms"] = 1e3 * _per_call(
        lambda: save_kmc_checkpoint(ckpt, occ, time=1.0, cycle=3, events=9))
    out["io.kmc_ckpt_load_ms"] = 1e3 * _per_call(
        lambda: load_kmc_checkpoint(ckpt))


def _noop_worker() -> None:
    return None


def _service(out: dict, quick: bool, workdir: Path) -> None:
    from repro.service import JobQueue, ResultCache, ScenarioSpec

    spec = ScenarioSpec(cells=5, md_steps=10, kmc_max_events=10,
                        table_points=500, seed=3)
    out["service.spec_key_us"] = 1e6 * _per_call(spec.key, number=200)
    root = workdir / "probe_service"
    queue = JobQueue(root)
    out["service.submit_ms"] = 1e3 * _per_call(
        lambda: queue.submit(spec), number=4 if quick else 10)
    cache = ResultCache(root)
    staging = cache.open_staging(spec.key())
    (staging / "result.json").write_text("{}")
    cache.publish(spec.key(), staging)
    key = spec.key()
    out["service.cache_lookup_us"] = 1e6 * _per_call(
        lambda: cache.lookup(key), number=200)
    ctx = multiprocessing.get_context("fork")

    def fork():
        proc = ctx.Process(target=_noop_worker)
        proc.start()
        proc.join()

    out["service.worker_fork_ms"] = 1e3 * _per_call(fork, number=3)


def _observe(out: dict) -> None:
    def phases():
        with obs.phase("ledger.null"):
            pass

    if obs.enabled():
        raise RuntimeError("observe must be disabled for the null-phase probe")
    out["observe.null_phase_ns"] = 1e9 * _per_call(phases, number=20000)


def run_probes(workdir: Path, quick: bool) -> tuple[dict, dict]:
    """All layer probes; returns ``(values, notes)``.

    ``values`` maps metric name to a number, or ``None`` with a reason
    in ``notes`` where the environment cannot produce it.
    """
    out: dict = {}
    notes: dict = {"kernels.mode": kernels.selected()}
    _potential_lattice(out, quick)
    _md_kernels(out, notes, quick, workdir)
    _kmc(out, notes, quick)
    _runtime(out, quick)
    _io(out, quick, workdir)
    _service(out, quick, workdir)
    _observe(out)
    return out, notes
