"""Fault-injection plans and their enforcement inside the runtime.

Covers the plan DSL (one parser, validating every clause; a planned
crash is the one fault kind), the injector's derived report and
idempotent merge, crash points raising through ``World.run``, and the
watchdog deadline every recv/probe/collective/fence of a world carries.
"""

import threading
import time

import pytest

from repro.lattice.bcc import BCCLattice
from repro.md.ghost import GhostExchanger
from repro.md.parallel_damage import ParallelDamageMD
from repro.runtime import simmpi
from repro.runtime.faults import (
    FaultInjector,
    FaultPlanError,
    InjectedFault,
    parse_plan,
)
from repro.runtime.simmpi import WatchdogTimeout, World


class TestFaultPlanParsing:
    def test_parse_crash_cycle(self):
        (spec,) = parse_plan("crash:rank=1,cycle=5")
        assert (spec.rank, spec.point, spec.n) == (1, "kmc.cycle", 5)
        assert spec.clause == "crash:rank=1,cycle=5"

    def test_parse_multiple_clauses(self):
        specs = parse_plan("crash:rank=0,event=10; crash:rank=1,cycle=2")
        assert [(s.rank, s.point, s.n) for s in specs] == [
            (0, "kmc.event", 10), (1, "kmc.cycle", 2),
        ]

    def test_parse_empty_is_falsy(self):
        assert parse_plan("") == ()
        assert parse_plan(" ; ") == ()
        assert parse_plan("crash:rank=0,cycle=1")

    @pytest.mark.parametrize(
        "bad",
        [
            "crash",  # no clause body
            "crash:cycle=5",  # missing rank
            "crash:rank=-1,cycle=5",  # negative rank
            "explode:rank=0,cycle=1",  # unknown kind
            "crash:rank=0,cycle=1,frobnicate=2",  # unknown key
            # Removed kinds, the delay kind in each form it took.
            "shake:seed=1,dup=1.5",
            "shake:seed=abc,dup=0.1",
            "shake:seed=1",
            "dup:rank=0,nth=1",
            "stall:rank=0,nth=1,seconds=0.1",
            "delay:rank=0,nth=1",
            "delay:rank=0,nth=1,seconds=0.1,op=bcast",
            "delay:rank=0,nth=1,seconds=inf",
            "delay:rank=0,nth=1,seconds=nan",
            "delay:rank=0,nth=1,seconds=0.1,nth=2",
            # A crash point named twice.
            "crash:rank=0,cycle=1,event=2",
        ],
    )
    def test_parse_rejects(self, bad):
        with pytest.raises(FaultPlanError) as exc_info:
            parse_plan(bad)
        message = str(exc_info.value)
        assert repr(bad) in message  # the error names the clause
        kind = bad.partition(":")[0]
        if kind != "crash":
            assert f"unknown fault kind {kind!r}" in message
            assert "expected 'crash'" in message

    def test_injector_reports_the_plan_as_written(self):
        plan = "crash:rank=1,cycle=3;  crash:rank=0,cycle=5"
        report = FaultInjector(plan).snapshot()
        assert report == {"crashes": 0, "plan": plan}


class TestCrashInjection:
    def test_crash_point_fires_exactly_once(self):
        inj = FaultInjector("crash:rank=0,cycle=3")
        inj.crash_point(0, "kmc.cycle", 2)  # wrong index: no fire
        inj.crash_point(1, "kmc.cycle", 3)  # wrong rank: no fire
        with pytest.raises(InjectedFault):
            inj.crash_point(0, "kmc.cycle", 3)
        # One-shot: the "replaced node" does not crash again on re-run.
        inj.crash_point(0, "kmc.cycle", 3)
        assert inj.snapshot()["crashes"] == 1

    def test_crash_raises_through_world_run(self):
        def main(comm):
            for cycle in range(10):
                comm.fault_point("kmc.cycle", cycle)
                comm.barrier()
            return comm.rank

        for backend in ("thread", "process", "overdecomposed"):
            world = World(
                3, faults=FaultInjector("crash:rank=2,cycle=4"), backend=backend,
                workers=2,
            )
            with pytest.raises(InjectedFault):
                world.run(main)
            assert world.faults.snapshot()["crashes"] == 1

    def test_rerun_after_crash_completes(self, world_backend):
        # The injector persists across World instances; the second
        # attempt (same injector) must run clean.
        def main(comm):
            for cycle in range(6):
                comm.fault_point("kmc.cycle", cycle)
                comm.barrier()
            return comm.rank

        inj = FaultInjector("crash:rank=0,cycle=2")
        with pytest.raises(InjectedFault):
            World(2, faults=inj, **world_backend).run(main)
        assert World(2, faults=inj, **world_backend).run(main) == [0, 1]
        assert inj.snapshot()["crashes"] == 1

    def test_absorbing_a_child_state_is_idempotent(self):
        # A forked child starts from the parent's state; merging its
        # export (twice, even) counts each fired crash once.
        parent = FaultInjector("crash:rank=1,cycle=0; crash:rank=0,cycle=2")
        with pytest.raises(InjectedFault):
            parent.crash_point(0, "kmc.cycle", 2)
        child = FaultInjector(parent.plan)
        child.absorb_state(parent.export_state())
        child.crash_point(0, "kmc.cycle", 2)  # inherited: fired already
        with pytest.raises(InjectedFault):
            child.crash_point(1, "kmc.cycle", 0)
        for _ in range(2):
            parent.absorb_state(child.export_state())
        assert parent.snapshot()["crashes"] == 2
        parent.crash_point(1, "kmc.cycle", 0)  # fired once, ever


class TestWatchdog:
    def test_starved_recv_raises_watchdog_timeout(self, world_backend):
        def main(comm):
            if comm.rank == 1:
                comm.recv(source=0, tag=0)  # rank 0 never sends
            return comm.rank

        with pytest.raises(WatchdogTimeout, match=r"rank 1 recv \(source 0, tag 0\)"):
            World(2, watchdog=0.1, **world_backend).run(main)

    def test_straggler_collective_raises_watchdog_timeout(self, world_backend):
        def main(comm):
            if comm.rank == 0:
                # Stall only after rank 1 has sent, so rank 1 waits in
                # the barrier while rank 0 straggles on every backend:
                # with one worker slot, a straggler that computes first
                # keeps its peer from starting the wait at all.
                comm.recv(1, tag=5)
                time.sleep(0.5)  # straggler beyond the deadline
            else:
                comm.send(0, tag=5)
            comm.barrier()
            return comm.rank

        # Rank 1 waits for the barrier's result from rank 0.
        with pytest.raises(
            WatchdogTimeout, match=r"rank 1 collective \(source 0, tag result\)"
        ):
            World(2, watchdog=0.1, **world_backend).run(main)

    def test_every_world_has_the_default_deadline(
        self, monkeypatch, world_backend
    ):
        """No argument is no opt-out: ``World`` reads the default when
        it is built, and a starved wait fails at it."""
        world = World(2, **world_backend)
        assert world.watchdog == simmpi.DEFAULT_WATCHDOG == 60.0
        monkeypatch.setattr(simmpi, "DEFAULT_WATCHDOG", 0.1)

        def main(comm):
            if comm.rank == 1:
                comm.recv(source=0, tag=0)  # rank 0 never sends

        world = World(2, **world_backend)
        assert world.watchdog == 0.1
        with pytest.raises(WatchdogTimeout, match=r"rank 1 recv \(source 0, tag 0\)"):
            world.run(main)

    def test_md_hang_names_its_collective(
        self, monkeypatch, potential, world_backend
    ):
        """``ParallelDamageMD`` takes no watchdog: a rank-0-only barrier
        planted in its ghost exchange fails at the default deadline,
        naming the collective, instead of waiting out the world timeout."""
        monkeypatch.setattr(simmpi, "DEFAULT_WATCHDOG", 0.2)
        exchange = GhostExchanger.exchange

        def planted(self, comm, *args, **kwargs):
            if comm.rank == 0:
                comm.barrier()  # deliberate: no other rank joins
            else:
                # Rank 0's wait starts first on every backend, so its
                # deadline is the first to pass.
                time.sleep(0.3)
            return exchange(self, comm, *args, **kwargs)

        monkeypatch.setattr(GhostExchanger, "exchange", planted)
        md = ParallelDamageMD(
            BCCLattice(8, 8, 8), potential, nranks=2, **world_backend
        )
        started = time.monotonic()
        with pytest.raises(WatchdogTimeout, match=r"rank 0 collective"):
            md.run(nsteps=1)
        assert time.monotonic() - started < 30.0

    def test_watchdog_must_be_positive(self):
        with pytest.raises(ValueError):
            World(2, watchdog=0.0)

    @pytest.mark.parametrize("seconds", [1e10, float("nan")])
    def test_watchdog_beyond_timeout_max_rejected(self, seconds):
        # A longer deadline would overflow the first timed wait inside a
        # rank (OverflowError from Condition.wait), not fail here.
        assert threading.TIMEOUT_MAX < 1e10
        with pytest.raises(ValueError, match=r"watchdog must be in \(0, "):
            World(2, watchdog=seconds)
        assert World(2, watchdog=threading.TIMEOUT_MAX).watchdog == (
            threading.TIMEOUT_MAX
        )

    def test_healthy_run_unaffected_by_watchdog(self, world_backend):
        def main(comm):
            comm.send((comm.rank + 1) % comm.size, tag=0, payload=comm.rank)
            src = (comm.rank - 1) % comm.size
            got = comm.recv(source=src, tag=0)[2]
            comm.barrier()
            return got

        assert World(3, watchdog=5.0, **world_backend).run(main) == [2, 0, 1]
