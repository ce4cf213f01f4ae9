"""The overdecomposed backend: R logical ranks on P worker slots.

Contract under test: scheduling only reorders *timing*, and paper-scale
logical decompositions (64 ranks) run to completion on a handful of
workers.  That R ranks on P workers produce physics byte-identical to R
ranks on R threads, for every engine, is the conformance matrix's
backend axis (``tests/test_runtime_conformance.py``).
"""

import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro import observe as obs
from repro.kmc.akmc import ParallelAKMC, place_random_vacancies
from repro.kmc.events import KMCModel, RateParameters
from repro.lattice.bcc import BCCLattice
from repro.md.engine import MDConfig
from repro.md.parallel_damage import ParallelDamageMD
from repro.observe.registry import Registry
from repro.potential.fe import make_fe_potential
from repro.runtime.scheduler import RankScheduler, default_workers
from repro.runtime.simmpi import (
    RankComm,
    WatchdogTimeout,
    World,
    resolve_workers,
)
from repro.runtime.stats import TrafficStats
from repro.runtime.transport import TAG_GATHER, TAG_RESULT, LocalTransport

SRC = str(Path(__file__).resolve().parents[1] / "src")


# ----------------------------------------------------------------------
# resolve_backend / resolve_workers
# ----------------------------------------------------------------------
#: Values the world, both engines and the spec reject: a padded or
#: upper-case backend name, a fractional or boolean worker count.
NOT_A_BACKEND_OR_COUNT = [
    ({"backend": "OVERDECOMPOSED "}, "unknown simmpi backend"),
    ({"workers": 1.9}, "workers must be a positive integer"),
    ({"workers": 1.5}, "workers must be a positive integer"),
    ({"workers": True}, "workers must be a positive integer"),
]


class TestResolveWorkers:
    def test_default_is_none(self):
        assert resolve_workers(None) is None

    def test_bad_values_rejected(self):
        with pytest.raises(ValueError, match="positive integer"):
            resolve_workers("many")
        with pytest.raises(ValueError, match=">= 1"):
            resolve_workers(0)

    def test_default_workers_positive(self):
        assert default_workers() >= 1


@pytest.mark.parametrize("kwargs,named", NOT_A_BACKEND_OR_COUNT)
def test_world_rejects_what_is_not_a_backend_or_count(kwargs, named):
    with pytest.raises(ValueError, match=named):
        World(2, **kwargs)


def test_environment_does_not_choose_the_backend():
    """``REPRO_BACKEND``/``REPRO_WORKERS`` once set every default world's
    backend; exported now, a default world still runs on threads."""
    code = (
        "import sys\n"
        "from repro.runtime.simmpi import World\n"
        "world = World(2)\n"
        "assert world.run(lambda comm: comm.allreduce(1)) == [2, 2]\n"
        "print(world.backend, world.workers, 'multiprocessing' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=SRC, REPRO_BACKEND="process",
               REPRO_WORKERS="3")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["thread", "None", "False"]


class TestEnginesValidateWhenBuilt:
    """Both parallel engines reject what their world would reject when
    they are built, before any world exists, not inside ``run()``."""

    @pytest.mark.parametrize("kwargs,named", [
        ({"backend": "sunway"}, "unknown simmpi backend"),
        ({"workers": 0}, "workers"),
        ({"watchdog": 0.0}, "watchdog"),
        ({"watchdog": 1e10}, "watchdog"),
        *NOT_A_BACKEND_OR_COUNT,
    ])
    def test_parallel_akmc(self, kwargs, named, lattice8, potential,
                           forbid_world):
        from repro.runtime import simmpi

        forbid_world(simmpi)
        with pytest.raises(ValueError, match=named):
            ParallelAKMC(lattice8, potential, nranks=2, **kwargs)

    @pytest.mark.parametrize("kwargs,named", [
        ({"backend": "sunway"}, "unknown simmpi backend"),
        ({"workers": 0}, "workers"),
        *NOT_A_BACKEND_OR_COUNT,
    ])
    def test_parallel_damage_md(self, kwargs, named, lattice8, potential,
                                forbid_world):
        from repro.md import parallel_damage

        forbid_world(parallel_damage)
        with pytest.raises(ValueError, match=named):
            parallel_damage.ParallelDamageMD(
                lattice8, potential, nranks=2, **kwargs
            )

# ----------------------------------------------------------------------
# Scheduler mechanics
# ----------------------------------------------------------------------
class TestRankScheduler:
    def test_at_most_p_ranks_compute_concurrently(self):
        lock = threading.Lock()
        state = {"cur": 0, "peak": 0}

        def main(comm):
            for _ in range(3):
                with lock:
                    state["cur"] += 1
                    state["peak"] = max(state["peak"], state["cur"])
                time.sleep(0.002)
                with lock:
                    state["cur"] -= 1
                comm.barrier()
            return comm.rank

        world = World(8, backend="overdecomposed", workers=2)
        assert world.run(main, timeout=60) == list(range(8))
        assert 1 <= state["peak"] <= 2

    def test_single_worker_cannot_deadlock(self):
        def main(comm):
            for tag in range(3):
                comm.send((comm.rank + 1) % comm.size, tag, comm.rank)
                _, _, got = comm.recv((comm.rank - 1) % comm.size, tag=tag)
                comm.barrier()
            return comm.allreduce(got)

        world = World(16, backend="overdecomposed", workers=1)
        results = world.run(main, timeout=60)
        assert len(set(results)) == 1

    def test_counters_and_handoff(self):
        sched = RankScheduler(1)
        sched.acquire(0)
        done = threading.Event()

        def second():
            sched.acquire(1)
            done.set()
            sched.release(1)

        t = threading.Thread(target=second)
        t.start()
        time.sleep(0.05)
        assert not done.is_set()  # rank 1 queued behind the single slot
        sched.release(0)  # direct hand-off to the queue head
        t.join(timeout=5)
        assert done.is_set()
        assert sched.steals == 1
        assert sched.peak_queued == 1

    def test_release_all_opens_the_gate(self):
        sched = RankScheduler(1)
        sched.acquire(0)
        sched.release_all()
        sched.acquire(1)  # returns immediately: draining
        sched.release(1)

    def test_error_propagation(self):
        def main(comm):
            if comm.rank == 2:
                raise ValueError("boom")
            comm.barrier()

        world = World(4, backend="overdecomposed", workers=2)
        with pytest.raises(RuntimeError, match="rank 2 failed"):
            world.run(main, timeout=60)

    def test_keyboard_interrupt_precedence(self):
        def main(comm):
            if comm.rank == 1:
                raise KeyboardInterrupt
            comm.barrier()

        world = World(3, backend="overdecomposed", workers=2)
        with pytest.raises(KeyboardInterrupt):
            world.run(main, timeout=60)

    def test_watchdog_fires_through_the_scheduler(self):
        def main(comm):
            if comm.rank == 0:
                comm.recv(1, tag=9)  # never sent

        world = World(2, watchdog=0.2, backend="overdecomposed", workers=1)
        with pytest.raises(WatchdogTimeout):
            world.run(main, timeout=30)


# ----------------------------------------------------------------------
# One wait point: yield and observe only when nothing is queued
# ----------------------------------------------------------------------
def _comms(scheduler=None, size=2):
    """Communicators of every rank of one in-process world, built on
    the calling thread (no rank threads): the tests drive them.  The
    watchdog turns a wait that never ends into a failure."""
    transport = LocalTransport(range(size))
    stats = TrafficStats(size)
    return transport, [
        RankComm(rank, size, transport, stats, watchdog=30.0, scheduler=scheduler)
        for rank in range(size)
    ]


def _deposit_once_yielded(scheduler, mailbox, *envelope):
    """Deposit ``envelope`` from a thread that must first win the only
    worker slot: the deposit happens after the waiting rank yielded, so
    the rank's first look is a miss on every schedule."""

    def depositor():
        scheduler.acquire(99)
        mailbox.deposit(*envelope)
        scheduler.release(99)

    thread = threading.Thread(target=depositor)
    thread.start()
    return thread


class TestOneWaitPoint:
    def test_queued_envelope_is_taken_without_yielding(self):
        sched = RankScheduler(1)
        sched.acquire(0)
        transport, (comm0, comm1) = _comms(sched)
        transport.mailbox(0).deposit(1, 5, "x", 0)
        assert comm0.recv(1, 5)[2] == "x"
        transport.mailbox(0).deposit(1, 6, "y", 0)
        assert comm0.probe(1, 6).tag == 6
        # Rank 1's barrier finds rank 0's result queued; rank 0's then
        # finds rank 1's contribution queued.
        transport.mailbox(1).deposit(0, TAG_RESULT, [None, None], 0)
        comm1.barrier()
        comm0.barrier()
        assert sched.yields == 0

    def test_a_miss_yields_exactly_once(self):
        sched = RankScheduler(1)
        sched.acquire(0)
        transport, (comm0, _comm1) = _comms(sched)
        depositor = _deposit_once_yielded(
            sched, transport.mailbox(0), 1, 5, "late", 0
        )
        assert comm0.recv(1, 5)[2] == "late"
        depositor.join(timeout=5)
        assert not depositor.is_alive()
        assert sched.yields == 1

    def test_observe_charges_a_miss_not_a_hit(self):
        sched = RankScheduler(1)
        sched.acquire(0)
        with obs.observing(Registry(trace=False)) as registry:
            transport, (comm0, _comm1) = _comms(sched)
            transport.mailbox(0).deposit(1, 5, "queued", 0)
            comm0.recv(1, 5)
            assert ("runtime.recv",) not in registry.phases
            depositor = _deposit_once_yielded(
                sched, transport.mailbox(0), 1, 5, "late", 0
            )
            comm0.recv(1, 5)
            depositor.join(timeout=5)
        assert not depositor.is_alive()
        assert registry.phases[("runtime.recv",)].count == 1
        assert sched.yields == 1

    def test_unwrapped_wait_is_one_match_call(self):
        assert not obs.enabled()
        transport = LocalTransport(range(2))
        mailbox = transport.mailbox(0)
        calls = []
        match = mailbox.match

        def counting(*args, **kwargs):
            calls.append(kwargs.get("block", True))
            return match(*args, **kwargs)

        mailbox.match = counting
        comm = RankComm(0, 2, transport, TrafficStats(2))
        mailbox.deposit(1, 5, "x", 0)
        comm.recv(1, 5)
        assert calls == [True]
        mailbox.deposit(1, 6, "y", 0)
        comm.probe(1, 6)
        assert calls == [True, True]
        mailbox.deposit(1, TAG_GATHER, (("barrier",), None), 0)
        comm.barrier()
        assert calls == [True, True, True]

    def test_watchdog_fires_on_a_collective_miss(self):
        def main(comm):
            if comm.rank == 0:
                comm.barrier()  # deliberate: rank 1 never joins

        world = World(2, watchdog=0.2, backend="overdecomposed", workers=1)
        with pytest.raises(WatchdogTimeout):
            world.run(main, timeout=30)


# ----------------------------------------------------------------------
# Paper-scale logical decompositions on few workers
# ----------------------------------------------------------------------
class TestMeasuredScaling:
    """The only 64-rank runs: 64 logical ranks on 4 overdecomposed
    workers, for each parallel engine."""

    def test_kmc_64_ranks_on_4_workers(self):
        lattice = BCCLattice(16, 16, 16)
        potential = make_fe_potential(n=1000)
        params = RateParameters()
        occ0 = place_random_vacancies(
            KMCModel(lattice, potential, params), 24, np.random.default_rng(5)
        )
        engine = ParallelAKMC(
            lattice, potential, params, nranks=64, seed=5,
            backend="overdecomposed", workers=4,
        )
        result = engine.run(occ0, max_cycles=1)
        assert result.cycles == 1 and result.events > 0

    def test_md_64_ranks_on_4_workers(self):
        engine = ParallelDamageMD(
            BCCLattice(16, 16, 16),
            config=MDConfig(temperature=300.0, seed=3),
            nranks=64,
            backend="overdecomposed",
            workers=4,
        )
        result = engine.run(2, pka=(10, np.array([60.0, 35.0, 25.0])))
        assert result.nranks == 64 and len(result.positions) == 2 * 16**3
