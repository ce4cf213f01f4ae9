"""Fault-injection plans and their enforcement inside the runtime.

Covers the plan DSL (parse/validate/describe), crash points raising
through ``World.run``, messaging faults that must stay within MPI
semantics (sender-side delay preserves per-source FIFO; duplicates are
delivered exactly once), window-put stalls/duplicates, and the optional
watchdog deadlines on recv/probe/collectives.
"""

import time

import pytest

from repro.runtime.faults import (
    FaultInjector,
    FaultPlan,
    FaultPlanError,
    InjectedFault,
)
from repro.runtime.simmpi import WatchdogTimeout, World
from tests.conftest import crash_outcome


class TestFaultPlanParsing:
    def test_parse_crash_cycle(self):
        plan = FaultPlan.parse("crash:rank=1,cycle=5")
        assert len(plan.specs) == 1
        spec = plan.specs[0]
        assert (spec.kind, spec.rank, spec.site, spec.index) == (
            "crash", 1, "kmc.cycle", 5,
        )

    def test_parse_multiple_clauses(self):
        plan = FaultPlan.parse(
            "crash:rank=0,event=10; delay:rank=1,nth=2,seconds=0.01"
        )
        assert [s.kind for s in plan.specs] == ["crash", "delay"]

    def test_parse_empty_is_falsy(self):
        assert not FaultPlan.parse("")
        assert not FaultPlan.parse(None)
        assert FaultPlan.parse("crash:rank=0,cycle=1")

    def test_describe_roundtrips_the_intent(self):
        text = FaultPlan.parse(
            "dup:rank=2,nth=3,op=put; stall:rank=0,nth=1,seconds=0.5"
        ).describe()
        assert "duplicate put" in text
        assert "stall" in text

    @pytest.mark.parametrize(
        "bad",
        [
            "crash",  # no clause body
            "crash:cycle=5",  # missing rank
            "crash:rank=-1,cycle=5",  # negative rank
            "explode:rank=0,cycle=1",  # unknown kind
            "delay:rank=0,nth=1",  # delay without seconds
            "crash:rank=0,cycle=1,frobnicate=2",  # unknown key
            "shake:seed=1,dup=1.5",  # probability out of range
            "shake:seed=abc,dup=0.1",  # seed is parsed with the other keys
        ],
    )
    def test_parse_rejects(self, bad):
        with pytest.raises(FaultPlanError):
            FaultPlan.parse(bad)

    def test_parse_is_idempotent_on_plan(self):
        plan = FaultPlan.parse("crash:rank=0,cycle=1")
        assert FaultPlan.parse(plan) is plan


class TestCrashInjection:
    def test_crash_point_fires_exactly_once(self):
        inj = FaultInjector(FaultPlan.parse("crash:rank=0,cycle=3"))
        inj.crash_point(0, "kmc.cycle", 2)  # wrong index: no fire
        inj.crash_point(1, "kmc.cycle", 3)  # wrong rank: no fire
        with pytest.raises(InjectedFault):
            inj.crash_point(0, "kmc.cycle", 3)
        # One-shot: the "replaced node" does not crash again on re-run.
        inj.crash_point(0, "kmc.cycle", 3)
        assert inj.snapshot()["crashes"] == 1

    def test_crash_raises_through_world_run(self):
        # Pinned to the two backends that abort on a crash; the
        # overdecomposed one migrates the rank instead (next test).
        def main(comm):
            for cycle in range(10):
                comm.fault_point("kmc.cycle", cycle)
                comm.barrier()
            return comm.rank

        for backend in ("thread", "process"):
            world = World(
                3, faults=FaultPlan.parse("crash:rank=2,cycle=4"), backend=backend
            )
            with pytest.raises(InjectedFault):
                world.run(main)
            assert world.faults.snapshot()["crashes"] == 1

    def test_rerun_after_crash_completes(self):
        # The injector persists across World instances; the second
        # attempt (same plan object) must run clean.
        def main(comm):
            for cycle in range(6):
                comm.fault_point("kmc.cycle", cycle)
                comm.barrier()
            return comm.rank

        plan = FaultPlan.parse("crash:rank=0,cycle=2")
        inj = FaultInjector(plan)
        first = World(2, faults=inj)
        _restarts, migrations = crash_outcome()
        if migrations:
            assert first.run(main) == [0, 1]
        else:
            with pytest.raises(InjectedFault):
                first.run(main)
        assert first.migrations == migrations
        assert World(2, faults=inj).run(main) == [0, 1]
        assert inj.snapshot()["crashes"] == 1


class TestMessagingFaults:
    def test_delay_preserves_fifo_per_source(self):
        # The delayed message is held back at the sender, so the
        # receiver still sees source-order delivery.
        def main(comm):
            if comm.rank == 0:
                for i in range(4):
                    comm.send(1, tag=7, payload=i)
                return None
            return [comm.recv(source=0, tag=7)[2] for _ in range(4)]

        world = World(
            2, faults=FaultPlan.parse("delay:rank=0,nth=2,seconds=0.05")
        )
        t0 = time.perf_counter()
        results = world.run(main)
        assert results[1] == [0, 1, 2, 3]
        assert time.perf_counter() - t0 >= 0.05
        assert world.faults.snapshot()["delays"] == 1

    def test_duplicate_send_delivered_exactly_once(self):
        def main(comm):
            if comm.rank == 0:
                comm.send(1, tag=3, payload="payload")
                return None
            return [comm.recv(source=0, tag=3)[2]]

        world = World(2, faults=FaultPlan.parse("dup:rank=0,nth=1"))
        got = world.run(main)[1]
        assert got == ["payload"]
        # The duplicate was dropped at deposit, not left pending.
        assert world.pending_messages() == 0
        snap = world.faults.snapshot()
        assert snap["duplicates"] == 1

    def test_shake_mode_run_completes(self):
        # Randomized duplication/delay on every send must not change
        # program-visible semantics.
        def main(comm):
            total = 0
            for round_ in range(5):
                peer = (comm.rank + 1) % comm.size
                comm.send(peer, tag=round_, payload=comm.rank * 10 + round_)
                src = (comm.rank - 1) % comm.size
                total += comm.recv(source=src, tag=round_)[2]
            return total

        clean = World(3).run(main)
        shaken = World(
            3,
            faults=FaultPlan.parse(
                "shake:seed=11,dup=0.5,delay=0.5,seconds=0.002"
            ),
        ).run(main)
        assert shaken == clean


class TestWindowFaults:
    def _run(self, faults=None):
        def main(comm):
            win = comm.win_create()
            if comm.rank == 0:
                for i in range(3):
                    win.put(1, ("item", i))
            received = win.fence()
            return [payload for _origin, payload in received]

        world = World(2, faults=faults)
        return world, world.run(main)

    def test_put_stall_is_pure_timing(self):
        t0 = time.perf_counter()
        world, results = self._run(
            FaultPlan.parse("stall:rank=0,nth=2,seconds=0.05")
        )
        assert time.perf_counter() - t0 >= 0.05
        assert results[1] == [("item", 0), ("item", 1), ("item", 2)]
        assert world.faults.snapshot()["stalls"] == 1

    def test_duplicate_put_appended_exactly_once(self):
        world, results = self._run(FaultPlan.parse("dup:rank=0,nth=1,op=put"))
        assert results[1] == [("item", 0), ("item", 1), ("item", 2)]
        snap = world.faults.snapshot()
        assert snap["duplicates"] == 1
        assert snap["duplicates_dropped"] == 1


class TestWatchdog:
    def test_starved_recv_raises_watchdog_timeout(self):
        def main(comm):
            if comm.rank == 1:
                comm.recv(source=0)  # rank 0 never sends
            return comm.rank

        with pytest.raises(WatchdogTimeout):
            World(2, watchdog=0.1).run(main)

    def test_straggler_collective_raises_watchdog_timeout(self):
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

        with pytest.raises(WatchdogTimeout):
            World(2, watchdog=0.1).run(main)

    def test_watchdog_off_by_default(self):
        assert World(2).watchdog is None

    def test_watchdog_must_be_positive(self):
        with pytest.raises(ValueError):
            World(2, watchdog=0.0)

    def test_healthy_run_unaffected_by_watchdog(self):
        def main(comm):
            comm.send((comm.rank + 1) % comm.size, tag=0, payload=comm.rank)
            src = (comm.rank - 1) % comm.size
            got = comm.recv(source=src, tag=0)[2]
            comm.barrier()
            return got

        assert World(3, watchdog=5.0).run(main) == [2, 0, 1]
