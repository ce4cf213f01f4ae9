"""One communication stack, three backends: the conformance contract.

A single synthetic SPMD program touches every primitive of the runtime;
it must produce identical results and an identical traffic ledger on
every backend, worker count, with the sanitizer on or off, and through
delayed sends and puts — because all of them run the one ``RankComm``
over one middleware chain and differ only in transport.  A planned crash
aborts the world on every backend alike, and a rerun with the same
injector completes.
"""

import numpy as np
import pytest

from repro.kmc.akmc import ParallelAKMC
from repro.runtime.faults import FaultInjector, InjectedFault
from repro.runtime.procbackend import fork_available
from repro.runtime.simmpi import ANY_SOURCE, ANY_TAG, World

R = 4
CYCLES = 3
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
# The conformance program
# ----------------------------------------------------------------------
def program(comm):
    """Every primitive: pinned and wildcard recv, probe, iprobe hit and
    miss, all four collectives, win_create in a loop, put/fence,
    fault_point."""
    r, n = comm.rank, comm.size
    right, left = (r + 1) % n, (r - 1) % n
    acc = np.zeros(3)
    log = []
    for cycle in range(CYCLES):
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


FAULTS = {
    "none": None,
    "delay": "delay:rank=0,nth=2,seconds=0.005; "
             "delay:rank=2,nth=3,seconds=0.005,op=put",
}


def run_program(backend, workers=None, sanitize=False, faults="none"):
    plan = FAULTS[faults]
    injector = FaultInjector(plan) if plan else None
    world = World(
        R, faults=injector, backend=backend, workers=workers, sanitize=sanitize
    )
    results = world.run(program, timeout=120.0)
    return world, injector, results


@pytest.fixture(scope="module")
def reference():
    """Thread-backend results and ledger of the fault-free program.

    A pause moves no byte, so every fault plan's reference is the
    fault-free run.
    """
    world, _inj, results = run_program("thread")
    return repr(results), world.stats.snapshot()


def cells():
    for backend in BACKENDS:
        for workers in (None,) if backend == "thread" else (1, 2, R):
            for sanitize in (False, True):
                for faults in FAULTS:
                    yield pytest.param(
                        backend, workers, sanitize, faults,
                        id=f"{backend}-w{workers}-san{int(sanitize)}-{faults}",
                        marks=[needs_fork] if backend == "process" else [],
                    )


@pytest.mark.parametrize("backend, workers, sanitize, faults", cells())
def test_conformance(reference, backend, workers, sanitize, faults):
    world, injector, results = run_program(backend, workers, sanitize, faults)
    expected_results, expected_ledger = reference
    assert repr(results) == expected_results
    assert_same_ledger(world.stats.snapshot(), expected_ledger)
    assert world.pending_messages() == 0
    if faults == "delay":
        assert injector.snapshot()["delays"] == 2


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


@pytest.mark.parametrize(
    "backend", [backend_param(b) for b in ("process", "overdecomposed")]
)
def test_onesided_akmc_ledger_identical_across_backends(
    backend, lattice8, potential, rate_params, kmc_initial_occ
):
    stats = {}
    for name in ("thread", backend):
        engine = ParallelAKMC(
            lattice8, potential, rate_params, nranks=4, scheme="onesided",
            seed=5, backend=name, workers=2,
        )
        result = engine.run(kmc_initial_occ.copy(), max_cycles=3)
        stats[name] = result.comm_stats
    assert_same_ledger(stats[backend], stats["thread"])


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
