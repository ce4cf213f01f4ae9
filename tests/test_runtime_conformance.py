"""One communication stack, three backends: the conformance matrix.

Every bit-identity check of the parallel engines is a cell of one matrix.
``AXES`` lists the axes and their values; each of four programs declares
the axes it has:

* ``runtime`` — a synthetic SPMD program that touches every primitive;
* ``akmc`` — :class:`ParallelAKMC`, resumed or not, on two problems;
* ``md`` — :class:`ParallelDamageMD` with a PKA, on the same problems;
* ``coupled`` — a parallel-KMC :class:`CoupledSimulation` through its
  recovery supervisor.

A cell must equal its program's reference for its (problem, seed): the
run on the thread backend with the on-demand scheme, no faults, the
sanitizer off and no resume — the first value of every axis — computed
once per session.  "Equal" is exact: occupancy or position/velocity
bytes, time, events and cycles, and, when the cell re-executes nothing
(no resume, no crash), the full traffic ledger of its scheme's reference.
A crash cell also asserts one recovery and one injected crash, a delay
cell no recovery and the delays its plan fires.  Every cell pins ``REPRO_BACKEND``,
``REPRO_WORKERS`` and ``REPRO_SANITIZE``, so the environment a suite runs
under cannot change what a cell means.

Tier-1 runs a diagonal: a greedy pairwise cover of each program's
product, so every pair of axis values meets in some cell.  The other
cells carry the ``conformance_full`` marker, which ``addopts``
deselects; ``pytest -m conformance_full`` runs them.  The runtime
program's whole product is cheap and stays in tier-1.
"""

import functools
import itertools

import numpy as np
import pytest

from repro.core.coupling import CoupledSimulation
from repro.io.checkpoint import load_kmc_checkpoint
from repro.kmc.akmc import ParallelAKMC, place_random_vacancies
from repro.kmc.events import KMCModel, RateParameters
from repro.lattice.bcc import BCCLattice
from repro.md.engine import MDConfig
from repro.md.parallel_damage import ParallelDamageMD
from repro.runtime.faults import FaultInjector, InjectedFault
from repro.runtime.procbackend import fork_available
from repro.runtime.simmpi import ANY_SOURCE, ANY_TAG, World
from repro.service.spec import ScenarioSpec

BACKENDS = ("thread", "process", "overdecomposed")

needs_fork = pytest.mark.skipif(
    not fork_available(), reason="process backend needs the fork start method"
)


def backend_param(backend):
    return pytest.param(
        backend, marks=[needs_fork] if backend == "process" else []
    )


def assert_same_ledger(stats, reference):
    """Full ``TrafficStats.snapshot()`` equality, per-rank counts included."""
    for key in (
        "nranks", "total_sent_bytes", "total_messages", "total_collectives",
        "sent_messages", "sent_bytes",
    ):
        assert stats[key] == reference[key], key


# ----------------------------------------------------------------------
# The axis table
# ----------------------------------------------------------------------
#: Every axis and its values; the first value of each is the reference's.
#: A backend comes with its worker count; ``"R"`` is the cell's rank count.
AXES = {
    "problem": ("8x8x8-R4", "8x8x16-R16"),
    "seed": (5, 11),
    "backend": (
        ("thread", None),
        ("process", 1), ("process", 2), ("process", "R"),
        ("overdecomposed", 1), ("overdecomposed", 2), ("overdecomposed", "R"),
    ),
    "scheme": ("ondemand", "traditional", "onesided"),
    "sanitize": (False, True),
    "resume": (False, True),
    "faults": ("none", "delay", "crash"),
}

#: Lattice cells and rank count of each problem.  The runtime program and
#: the coupled run, which have no problem axis, run the first.
PROBLEMS = {"8x8x8-R4": ((8, 8, 8), 4), "8x8x16-R16": ((8, 8, 16), 16)}


def axes(*names, **narrowed):
    """A program's axes, in id order: ``names`` with all their values,
    then each of ``narrowed`` with the values it keeps."""
    return {name: narrowed.get(name, AXES[name]) for name in (*names, *narrowed)}


NO_CRASH = ("none", "delay")  # a crash needs the coupled run's supervisor
PROGRAMS = {
    "runtime": axes("backend", "sanitize", faults=NO_CRASH),
    "akmc": axes(
        "problem", "seed", "backend", "scheme", "sanitize", "resume",
        faults=NO_CRASH,
    ),
    "md": axes("problem", "backend", "sanitize"),
    "coupled": axes("backend", "scheme", "sanitize", "faults"),
}


def product(program):
    names = PROGRAMS[program]
    return [dict(zip(names, vs)) for vs in itertools.product(*names.values())]


def pairs(cell):
    return set(itertools.combinations(cell.items(), 2))


@functools.cache
def diagonal(program):
    """Greedy pairwise cover of the product: take the first cell that
    meets the most pairs of axis values not met yet, until none is left."""
    cells = product(program)
    todo = set().union(*map(pairs, cells))
    chosen = []
    while todo:
        best = max(cells, key=lambda cell: len(pairs(cell) & todo))
        chosen.append(best)
        todo -= pairs(best)
    return tuple(chosen)


def setting(cell):
    """The cell with every axis it lacks at its first value, its lattice
    cells and rank count, and its backend and worker count apart."""
    s = {name: values[0] for name, values in AXES.items()} | cell
    s["cells"], s["nranks"] = PROBLEMS[s["problem"]]
    s["backend"], workers = s["backend"]
    s["workers"] = s["nranks"] if workers == "R" else workers
    return s


def cell_id(cell):
    s = setting(cell)
    parts = {
        "backend": f"{s['backend']}-w{s['workers']}",
        "sanitize": f"san{s['sanitize']:d}",
        "resume": "resume" if s["resume"] else "fresh",
        "seed": f"seed{s['seed']}",
    }
    return "-".join(str(parts.get(name, value)) for name, value in cell.items())


def cells(program):
    """Pytest params of a program's product: the diagonal bare, the rest
    marked ``conformance_full``.  The runtime program's product is cheap
    enough to run whole."""
    tier1 = product(program) if program == "runtime" else diagonal(program)
    for cell in product(program):
        marks = [] if cell in tier1 else [pytest.mark.conformance_full]
        if cell["backend"][0] == "process":
            marks.append(needs_fork)
        yield pytest.param(cell, id=cell_id(cell), marks=marks)


@pytest.mark.parametrize("program", PROGRAMS)
def test_diagonal_covers_every_pair_and_ids_are_unique(program):
    full = product(program)
    met = set().union(*map(pairs, diagonal(program)))
    assert met == set().union(*map(pairs, full))
    ids = [cell_id(cell) for cell in full]
    assert len(set(ids)) == len(ids)


# ----------------------------------------------------------------------
# The four programs: each runs one cell and returns (state, ledger, report)
# ----------------------------------------------------------------------
#: Sender-side pauses of rank 0's second send and rank 1's second put.
#: The runtime program makes both; the two-sided KMC schemes only send and
#: the one-sided one only puts, so in every problem and seed below one of
#: them fires.
DELAY = "delay:rank=0,nth=2,seconds=0.002; delay:rank=1,nth=2,seconds=0.002,op=put"
DELAYS_FIRED = {"runtime": 2, "akmc": 1, "coupled": 1}
PLANS = {"none": None, "delay": DELAY, "crash": "crash:rank=1,cycle=5"}


def pin_environment(monkeypatch, s):
    monkeypatch.setenv("REPRO_BACKEND", s["backend"])
    monkeypatch.setenv("REPRO_SANITIZE", f"{s['sanitize']:d}")
    if s["workers"] is None:
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
    else:
        monkeypatch.setenv("REPRO_WORKERS", str(s["workers"]))


def injector(s):
    plan = PLANS[s["faults"]]
    return FaultInjector(plan) if plan else None


def runtime_program(comm):
    """Every primitive: pinned and wildcard recv, probe, iprobe hit and
    miss, all four collectives, win_create in a loop, put/fence,
    fault_point."""
    r, n = comm.rank, comm.size
    right, left = (r + 1) % n, (r - 1) % n
    acc = np.zeros(3)
    log = []
    for cycle in range(3):
        comm.fault_point("kmc.cycle", cycle)
        assert comm.iprobe(left, 99) is None  # miss: never sent
        comm.send(right, 10 + cycle, np.arange(3.0) + r + cycle)
        _src, _tag, got = comm.recv(left, 10 + cycle)  # pinned
        acc += got
        # The §2.2.1 pattern: learn a runtime-sized message by probing.
        comm.send(right, 20, np.zeros(r + cycle + 1))
        status = comm.probe(left, 20)
        assert comm.iprobe(left, 20) == status  # hit: probe left it queued
        log.append((status.source, status.tag, status.nbytes))
        comm.recv(status.source, status.tag)
        comm.send(right, 30, ("token", r, cycle))
        win = comm.win_create()
        # A put to oneself is in this rank's own mailbox at once, on
        # every transport — under a reserved tag no user call can see.
        win.put(r, ("self", cycle))
        seen = comm.iprobe(ANY_SOURCE, ANY_TAG)
        assert seen is None or (seen.source, seen.tag) == (left, 30)
        # Wildcard receive: the tag-30 token is the only user message
        # that can be queued here, whatever control traffic sits beside it.
        src, tag, token = comm.recv(ANY_SOURCE, ANY_TAG)
        assert (src, tag, token) == (left, 30, ("token", left, cycle))
        win.put(right, acc.copy())
        win.put((r + 2) % n, float(cycle))
        drained = win.fence()
        for origin, payload in drained:
            if isinstance(payload, np.ndarray):
                acc += 0.5 * payload
                payload = payload.tolist()
            log.append((origin, payload))
        total = comm.allreduce(float(acc.sum()))
        peak = comm.allreduce(acc, op="max")
        gathered = comm.allgather((r, cycle))
        leader = comm.bcast(acc.tolist() if r == 2 else None, root=2)
        comm.barrier()
        log.append((total, peak.tolist(), gathered, leader))
    return r, acc.tolist(), log


def run_runtime(s, potential, tmp_path):
    faults = injector(s)
    world = World(
        s["nranks"], faults=faults, backend=s["backend"],
        workers=s["workers"], sanitize=s["sanitize"],
    )
    results = world.run(runtime_program, timeout=120.0)
    assert world.pending_messages() == 0
    report = faults.snapshot() if faults else {}
    return {"results": repr(results)}, world.stats.snapshot(), report


#: Cycles of an AKMC run, and the cycle a resumed one stops at first.
AKMC_CYCLES = {"8x8x8-R4": (4, 2), "8x8x16-R16": (2, 1)}


def run_akmc(s, potential, tmp_path):
    lattice = BCCLattice(*s["cells"])
    occupancy = place_random_vacancies(
        KMCModel(lattice, potential, RateParameters()), 20,
        np.random.default_rng(s["seed"]),
    )
    faults = injector(s)

    def engine():
        return ParallelAKMC(
            lattice, potential, nranks=s["nranks"], scheme=s["scheme"],
            seed=s["seed"], faults=faults, backend=s["backend"],
            workers=s["workers"],
        )

    cycles, stop = AKMC_CYCLES[s["problem"]]
    if s["resume"]:
        path = tmp_path / "akmc.npz"
        engine().run(
            occupancy, max_cycles=stop, checkpoint_every=stop,
            checkpoint_path=path,
        )
        snap = load_kmc_checkpoint(path)
        result = engine().run(snap.occupancy, max_cycles=cycles, resume=snap)
    else:
        result = engine().run(occupancy, max_cycles=cycles)
    state = {
        "occupancy": result.occupancy.tobytes(), "time": result.time,
        "events": result.events, "cycles": result.cycles,
    }
    return state, result.comm_stats, faults.snapshot() if faults else {}


def run_md(s, potential, tmp_path):
    engine = ParallelDamageMD(
        BCCLattice(*s["cells"]), potential, MDConfig(temperature=300.0, seed=3),
        nranks=s["nranks"], backend=s["backend"], workers=s["workers"],
    )
    # A low run-away threshold checked every step: the PKA turns
    # run-away at once, so run-away rows ride the ghost exchange.
    result = engine.run(
        2, pka=(10, np.array([600.0, 350.0, 250.0])),
        displacement_threshold=0.15, runaway_check_interval=1,
    )
    names = (
        "positions", "velocities", "vacancy_ranks", "runaway_ids",
        "runaway_positions",
    )
    state = {name: getattr(result, name).tobytes() for name in names}
    return state, result.comm_stats, {}


def run_coupled(s, potential, tmp_path):
    # The session potential's tables; checkpoints only where a crash
    # needs them, in a temporary directory.
    spec = ScenarioSpec(
        cells=s["cells"][0], seed=3, md_steps=6, pka_energy=600.0,
        kmc_nranks=s["nranks"], kmc_max_cycles=6, table_points=1000,
        kmc_scheme=s["scheme"], backend=s["backend"], workers=s["workers"],
        faults=PLANS[s["faults"]],
        checkpoint_every=2 if s["faults"] == "crash" else None,
    )
    result = CoupledSimulation(spec.to_coupled_config(), potential=potential).run()
    state = {
        "occupancy": result.vacancies_after_kmc.tobytes(),
        "time": result.kmc_time, "events": result.kmc_events,
    }
    report = {"recoveries": result.recoveries} | (result.fault_report or {})
    return state, result.comm_stats, report


RUN = {
    "runtime": run_runtime, "akmc": run_akmc, "md": run_md,
    "coupled": run_coupled,
}


@pytest.fixture(scope="session")
def reference(potential):
    """``reference(program, problem, seed, scheme)``: (state, ledger) of
    the run at the first value of every other axis, once per session."""

    @functools.cache
    def run(program, problem, seed, scheme):
        s = setting({"problem": problem, "seed": seed, "scheme": scheme})
        with pytest.MonkeyPatch.context() as monkeypatch:
            pin_environment(monkeypatch, s)
            state, ledger, _report = RUN[program](s, potential, None)
        if program in ("akmc", "coupled"):
            assert state["events"] > 0  # the cells compare a real trajectory
        if program == "md":
            assert state["runaway_ids"]  # ... and a run-away table
        return state, ledger

    return run


def check(program, cell, reference, potential, tmp_path, monkeypatch):
    s = setting(cell)
    expected, _ = reference(program, s["problem"], s["seed"], "ondemand")
    reexecutes = s["resume"] or s["faults"] == "crash"
    if not reexecutes:
        _, ledger = reference(program, s["problem"], s["seed"], s["scheme"])
    pin_environment(monkeypatch, s)
    state, stats, report = RUN[program](s, potential, tmp_path)
    assert state == expected
    if not reexecutes:
        assert_same_ledger(stats, ledger)
    crashes = int(s["faults"] == "crash")
    delays = DELAYS_FIRED[program] if s["faults"] == "delay" else 0
    assert report.get("recoveries", 0) == crashes
    if s["faults"] != "none":
        assert (report["crashes"], report["delays"]) == (crashes, delays)
        assert report["injected"] == crashes + delays


@pytest.mark.parametrize("cell", cells("runtime"))
def test_conformance(cell, reference, potential, tmp_path, monkeypatch):
    check("runtime", cell, reference, potential, tmp_path, monkeypatch)


@pytest.mark.parametrize("cell", cells("akmc"))
def test_akmc(cell, reference, potential, tmp_path, monkeypatch):
    check("akmc", cell, reference, potential, tmp_path, monkeypatch)


@pytest.mark.parametrize("cell", cells("md"))
def test_damage_md(cell, reference, potential, tmp_path, monkeypatch):
    check("md", cell, reference, potential, tmp_path, monkeypatch)


@pytest.mark.parametrize("cell", cells("coupled"))
def test_coupled(cell, reference, potential, tmp_path, monkeypatch):
    check("coupled", cell, reference, potential, tmp_path, monkeypatch)


def test_layers_compose_in_one_order_on_every_backend():
    def main(comm):
        return comm.layers

    injector = FaultInjector("crash:rank=0,cycle=99")
    for backend in BACKENDS:
        if backend == "process" and not fork_available():
            continue
        world = World(
            2, faults=injector, backend=backend, workers=2, sanitize=True
        )
        (layers, _same) = world.run(main, timeout=60.0)
        assert layers == ("sanitize", "faults", "traffic")


# ----------------------------------------------------------------------
# World reuse: per-run state is created inside run()
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", [backend_param(b) for b in BACKENDS])
def test_world_runs_again_after_a_failed_run(backend):
    def failing(comm):
        if comm.rank == 1:
            raise ValueError("first run dies")
        comm.barrier()

    def healthy(comm):
        comm.send((comm.rank + 1) % comm.size, 1, comm.rank)
        got = comm.recv((comm.rank - 1) % comm.size, 1)[2]
        return comm.allreduce(got)

    world = World(3, backend=backend, workers=2)
    with pytest.raises(RuntimeError, match="rank 1 failed.*first run dies"):
        world.run(failing, timeout=60.0)
    # No stale error, no abort flag left set, nothing left in a mailbox.
    assert world.run(healthy, timeout=60.0) == [3, 3, 3]
    assert world.pending_messages() == 0


# ----------------------------------------------------------------------
# Fence accounting is the thread backend's ledger, everywhere
# ----------------------------------------------------------------------
def fence_program(comm):
    win = comm.win_create()
    for epoch in range(3):
        win.put((comm.rank + 1) % comm.size, np.full(4, float(epoch)))
        if comm.rank == 0:
            win.put(2, b"extra")  # repro: noqa(REP002) one-sided; every rank reaches the fence
        win.fence()


def test_fence_is_two_zero_byte_collectives():
    world = World(4, backend="thread")
    world.run(fence_program)
    snap = world.stats.snapshot()
    # 3 epochs x 2 synchronizations, charged to each of 4 ranks; the
    # put-count exchange and win_create are unmetered control plane.
    assert snap["total_collectives"] == 3 * 2 * 4
    assert snap["total_messages"] == 3 * (4 + 1)
    assert snap["total_sent_bytes"] == 3 * (4 * 32 + 5)


@pytest.mark.parametrize(
    "backend", [backend_param(b) for b in ("process", "overdecomposed")]
)
def test_fence_ledger_identical_across_backends(backend):
    ledgers = {}
    for name in ("thread", backend):
        world = World(4, backend=name, workers=2)
        world.run(fence_program, timeout=60.0)
        ledgers[name] = world.stats.snapshot()
    assert_same_ledger(ledgers[backend], ledgers["thread"])


# ----------------------------------------------------------------------
# The injector is the one owner of fault state
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", [backend_param(b) for b in BACKENDS])
def test_fired_set_survives_a_recovery_refork(backend):
    def main(comm):
        r, n = comm.rank, comm.size
        seen = []
        for cycle in range(4):
            comm.fault_point("kmc.cycle", cycle)
            comm.send((r + 1) % n, cycle, (r, cycle))
            seen.append(comm.recv((r - 1) % n, cycle)[2])
            comm.barrier()
        return seen

    plan = "delay:rank=0,nth=1,seconds=0.001; crash:rank=1,cycle=2"
    injector = FaultInjector(plan)
    with pytest.raises(InjectedFault):
        World(3, faults=injector, backend=backend, workers=2).run(
            main, timeout=60.0
        )
    # The supervisor's move: rerun with the same injector.  Neither the
    # crash nor the delay fires again.
    rerun = World(3, faults=injector, backend=backend, workers=2).run(
        main, timeout=60.0
    )
    report = injector.snapshot()
    assert (report["crashes"], report["delays"]) == (1, 1)
    assert rerun == [[((r - 1) % 3, c) for c in range(4)] for r in range(3)]
