"""The simmpi process backend: one forked OS process per rank.

Everything the thread backend guarantees must hold unchanged: messaging
semantics, collectives, one-sided windows, watchdog deadlines, abort and
error propagation, fault injection, traffic accounting, observe
aggregation.  That the parallel engines give bit-identical results here
is the conformance matrix's backend axis
(``tests/test_runtime_conformance.py``).
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro import observe as obs
from repro.observe.registry import Registry
from repro.runtime.faults import FaultInjector, InjectedFault
from repro.runtime.procbackend import fork_available
from repro.runtime.simmpi import (
    WatchdogTimeout,
    World,
    resolve_backend,
)

pytestmark = pytest.mark.skipif(
    not fork_available(), reason="process backend needs the fork start method"
)


# ----------------------------------------------------------------------
# Backend resolution
# ----------------------------------------------------------------------
class TestResolveBackend:
    def test_defaults_to_thread(self, monkeypatch):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        assert resolve_backend(None) == "thread"

    def test_env_var_sets_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "process")
        assert resolve_backend(None) == "process"
        assert World(2).backend == "process"

    def test_explicit_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "process")
        assert resolve_backend("thread") == "thread"

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown simmpi backend"):
            resolve_backend("mpi")
        with pytest.raises(ValueError, match="unknown simmpi backend"):
            World(2, backend="greenlet")


# ----------------------------------------------------------------------
# Transport semantics
# ----------------------------------------------------------------------
def _ring_main(comm):
    right = (comm.rank + 1) % comm.size
    left = (comm.rank - 1) % comm.size
    comm.send(right, 7, np.arange(5, dtype=np.int64) + comm.rank)
    _src, _tag, payload = comm.recv(left, 7)
    total = comm.allreduce(int(payload[0]), op="sum")
    gathered = comm.allgather(comm.rank * 10)
    win = comm.win_create()
    win.put(right, ("ping", comm.rank))
    puts = win.fence()
    comm.barrier()
    return (comm.rank, payload.tolist(), total, gathered, puts)


class TestTransportParity:
    def test_results_match_thread_backend(self):
        results = {
            backend: World(4, backend=backend).run(_ring_main, timeout=60.0)
            for backend in ("thread", "process")
        }
        assert results["thread"] == results["process"]

    def test_traffic_accounting_matches(self):
        worlds = {}
        for backend in ("thread", "process"):
            world = World(4, backend=backend)
            world.run(_ring_main, timeout=60.0)
            worlds[backend] = world
        t = worlds["thread"].stats.snapshot()
        p = worlds["process"].stats.snapshot()
        for key in ("total_sent_bytes", "total_messages", "total_collectives"):
            assert t[key] == p[key]
        assert worlds["process"].pending_messages() == 0

    def test_ranks_run_in_distinct_processes(self, monkeypatch):
        # One child per rank: with REPRO_WORKERS set, ranks share children.
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        pids = World(3, backend="process").run(
            lambda comm: os.getpid(), timeout=60.0
        )
        assert len(set(pids)) == 3
        assert os.getpid() not in pids

    def test_send_isolated_from_later_mutation(self):
        """A sent array snapshot is immune to sender-side writes."""

        def main(comm):
            if comm.rank == 0:
                data = np.arange(4)
                comm.send(1, 1, data)
                data[:] = -1
                comm.barrier()  # repro: noqa(REP002) meets the barrier after the branch
                return None
            comm.barrier()  # only receive after the sender mutated
            _s, _t, payload = comm.recv(0, 1)
            return payload.tolist()

        results = World(2, backend="process").run(main, timeout=60.0)
        assert results[1] == [0, 1, 2, 3]

    def test_pending_messages_counts_unconsumed(self):
        def main(comm):
            if comm.rank == 0:
                comm.send(1, 3, b"orphan")
            comm.barrier()
            return None

        from repro.runtime.sanitize import SanitizerError
        from repro.runtime.simmpi import sanitize_enabled

        world = World(2, backend="process")
        if sanitize_enabled():
            # The deliberately unconsumed message IS an unmatched send.
            with pytest.raises(SanitizerError, match="tag 3"):
                world.run(main, timeout=60.0)
        else:
            world.run(main, timeout=60.0)
            assert world.pending_messages() == 1


# ----------------------------------------------------------------------
# Teardown: a message nobody receives never hangs the join
# ----------------------------------------------------------------------
_SRC = str(Path(repro.__file__).resolve().parents[1])

_TEARDOWN = """
import json, time
import numpy as np
from repro.runtime.simmpi import World

payload = {payload}

def main(comm):
    if comm.rank == 0:
        comm.send(1, 3, payload)
    elif {raises}:
        raise ValueError("left without receiving")
    return comm.rank

world = World(2, backend="process", workers={workers}, sanitize=False)
t0 = time.monotonic()
try:
    world.run(main, timeout=5.0, grace=2.0)
    outcome = {{"pending": world.pending_messages()}}
except RuntimeError as exc:
    outcome = {{"error": str(exc)}}
outcome["elapsed"] = time.monotonic() - t0
print(json.dumps(outcome))
"""

#: 8 B, a pickled list far past a pipe buffer, and an 8 MB array.
_UNRECEIVED = {
    "scalar": "1.0",
    "list": "list(range(200_000))",
    "array": "np.ones(1_000_000)",
}


def _run_world(payload: str, raises: bool, workers: int | None) -> dict:
    """Run the world in a fresh interpreter, so a join that hangs fails
    this test after 60 s instead of stalling the suite."""
    code = _TEARDOWN.format(payload=payload, raises=raises, workers=workers)
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = _SRC
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


class TestTeardown:
    @pytest.mark.parametrize("workers", [None, 1])
    @pytest.mark.parametrize("payload", sorted(_UNRECEIVED))
    def test_receiver_returns_without_receiving(self, payload, workers):
        out = _run_world(_UNRECEIVED[payload], False, workers)
        assert out["pending"] == 1  # as on the thread backend

    @pytest.mark.parametrize("workers", [None, 1])
    @pytest.mark.parametrize("payload", sorted(_UNRECEIVED))
    def test_receiver_raises_without_receiving(self, payload, workers):
        out = _run_world(_UNRECEIVED[payload], True, workers)
        assert out["error"].startswith("rank 1 failed")
        assert out["elapsed"] < 5.0 + 2.0


# ----------------------------------------------------------------------
# Rank-group mode: R ranks hosted on P < R children
# ----------------------------------------------------------------------
class TestRankGroups:
    def test_contiguous_split(self):
        from repro.runtime.procbackend import _rank_groups

        assert _rank_groups(range(8), 2) == [[0, 1, 2, 3], [4, 5, 6, 7]]
        assert _rank_groups(range(5), 2) == [[0, 1, 2], [3, 4]]
        assert _rank_groups(range(3), 8) == [[0], [1], [2]]
        assert sum(_rank_groups(range(17), 4), []) == list(range(17))

    def test_grouped_matches_per_rank_results(self):
        reference = World(8, backend="thread").run(_ring_main, timeout=60.0)
        for workers in (1, 2, 3):
            grouped = World(8, backend="process", workers=workers).run(
                _ring_main, timeout=120.0
            )
            assert grouped == reference

    def test_grouped_ranks_share_child_processes(self):
        pids = World(8, backend="process", workers=2).run(
            lambda comm: os.getpid(), timeout=120.0
        )
        assert len(set(pids)) == 2
        # Contiguous groups: first half on one child, second on the other
        assert len(set(pids[:4])) == 1 and len(set(pids[4:])) == 1
        assert os.getpid() not in pids

    def test_grouped_traffic_accounting_matches_thread(self):
        worlds = {}
        for backend, workers in (("thread", None), ("process", 2)):
            world = World(4, backend=backend, workers=workers)
            world.run(_ring_main, timeout=120.0)
            worlds[backend] = world
        t = worlds["thread"].stats.snapshot()
        p = worlds["process"].stats.snapshot()
        for key in ("total_sent_bytes", "total_messages", "total_collectives"):
            assert t[key] == p[key]

    def test_grouped_error_propagation(self):
        def main(comm):
            if comm.rank == 5:
                raise ValueError("boom")
            comm.barrier()

        world = World(8, backend="process", workers=2)
        with pytest.raises(RuntimeError, match="rank 5 failed"):
            world.run(main, timeout=120.0)

    def test_workers_env_fallback(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "2")
        pids = World(6, backend="process").run(
            lambda comm: os.getpid(), timeout=120.0
        )
        assert len(set(pids)) == 2


# ----------------------------------------------------------------------
# Failure semantics
# ----------------------------------------------------------------------
class TestFailureParity:
    def test_error_aborts_world_and_reraises(self):
        def main(comm):
            if comm.rank == 1:
                raise ValueError("boom")
            comm.recv(1, 5)  # would block forever without the abort

        with pytest.raises(RuntimeError, match=r"rank 1 failed.*boom"):
            World(2, backend="process").run(main, timeout=60.0)

    def test_keyboard_interrupt_propagates_as_itself(self):
        def main(comm):
            if comm.rank == 0:
                raise KeyboardInterrupt
            comm.barrier()

        with pytest.raises(KeyboardInterrupt):
            World(2, backend="process").run(main, timeout=60.0)

    def test_watchdog_timeout_typed(self):
        def main(comm):
            if comm.rank == 0:
                comm.recv(1, 9)  # never sent
            return None

        world = World(2, watchdog=0.2, backend="process")
        with pytest.raises(WatchdogTimeout):
            world.run(main, timeout=60.0)

    def test_injected_fault_typed_and_one_shot_across_reruns(self):
        injector = FaultInjector("crash:rank=1,cycle=2")

        def main(comm):
            for cycle in range(4):
                comm.fault_point("kmc.cycle", cycle)
                comm.barrier()
            return comm.rank

        world = World(2, faults=injector, backend="process")
        with pytest.raises(InjectedFault, match=r"rank 1 at kmc.cycle\[2\]"):
            world.run(main, timeout=60.0)
        assert world.faults.snapshot()["crashes"] == 1
        # Recovery semantics: same injector, new world -> no second crash.
        retry = World(2, faults=world.faults, backend="process")
        assert retry.run(main, timeout=60.0) == [0, 1]
        assert world.faults.snapshot()["crashes"] == 1


# ----------------------------------------------------------------------
# Observe aggregation
# ----------------------------------------------------------------------
class TestObserveAggregation:
    def test_child_phases_and_counters_merge(self, monkeypatch):
        # One child per rank (the thread names below encode rank == child).
        monkeypatch.delenv("REPRO_WORKERS", raising=False)

        def main(comm):
            with obs.phase("kmc.work"):
                obs.add("test.events", comm.rank + 1)
            comm.barrier()
            return None

        registry = obs.enable(Registry())
        try:
            World(3, backend="process").run(main, timeout=60.0)
        finally:
            obs.disable()
        assert registry.counters["test.events"] == 6  # 1 + 2 + 3
        work = [s for p, s in registry.phases.items() if p[-1] == "kmc.work"]
        assert work and work[0].count == 3
        names = set(registry.thread_names.values())
        assert {"rank0/simmpi-rank-0", "rank1/simmpi-rank-1"} <= names

    def test_trace_events_rebased_monotonic(self):
        def main(comm):
            with obs.phase("kmc.tick"):
                pass
            return None

        registry = obs.enable(Registry(trace=True))
        try:
            World(2, backend="process").run(main, timeout=60.0)
        finally:
            obs.disable()
        ticks = [e for e in registry.events if e.name == "kmc.tick"]
        assert len(ticks) == 2
        assert all(e.ts >= 0.0 for e in ticks)


# ----------------------------------------------------------------------
# CLI surface
# ----------------------------------------------------------------------
class TestCLIBackend:
    def test_kmc_schemes_accepts_backend(self, capsys):
        from repro.cli import main

        rc = main(
            [
                "kmc-schemes",
                "--cells",
                "8",
                "--ranks",
                "2",
                "--cycles",
                "2",
                "--vacancies",
                "8",
                "--backend",
                "process",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "traditional" in out and "onesided" in out

    def test_coupled_accepts_backend(self, capsys):
        from repro.cli import main

        rc = main(
            [
                "coupled",
                "--cells",
                "8",
                "--events",
                "20",
                "--md-steps",
                "15",
                "--kmc-ranks",
                "2",
                "--kmc-cycles",
                "3",
                "--backend",
                "process",
            ]
        )
        assert rc == 0
        assert "after KMC" in capsys.readouterr().out
