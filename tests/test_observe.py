"""The observability spine: phases, counters, export, overhead, threading."""

from __future__ import annotations

import json
import time

import numpy as np
import pytest

from repro import observe as obs
from repro.observe import Registry


@pytest.fixture(autouse=True)
def _observation_off():
    """Every test starts and ends with observation disabled."""
    obs.disable()
    yield
    obs.disable()


class TestPhaseNesting:
    def test_nested_paths_aggregate(self):
        with obs.observing() as reg:
            for _ in range(3):
                with obs.phase("outer"):
                    with obs.phase("inner"):
                        pass
        assert reg.phases[("outer",)].count == 3
        assert reg.phases[("outer", "inner")].count == 3
        assert reg.phases[("outer",)].total >= reg.phases[("outer", "inner")].total

    def test_reentrant_same_name(self):
        """Recursive use of one name produces distinct stack paths."""
        with obs.observing() as reg:
            with obs.phase("p"):
                with obs.phase("p"):
                    pass
        assert reg.phases[("p",)].count == 1
        assert reg.phases[("p", "p")].count == 1

    def test_sibling_phases_do_not_nest(self):
        with obs.observing() as reg:
            with obs.phase("a"):
                pass
            with obs.phase("b"):
                pass
        assert ("a",) in reg.phases
        assert ("b",) in reg.phases
        assert ("a", "b") not in reg.phases

    def test_exception_still_records(self):
        with obs.observing() as reg:
            with pytest.raises(ValueError):
                with obs.phase("doomed"):
                    raise ValueError("boom")
        assert reg.phases[("doomed",)].count == 1

    def test_counters_and_gauges(self):
        with obs.observing() as reg:
            obs.add("md.count")
            obs.add("md.count", 4)
        assert reg.counters["md.count"] == 5

    def test_observing_restores_previous(self):
        outer = obs.enable()
        with obs.observing() as inner:
            assert obs.active() is inner
        assert obs.active() is outer


class TestDisabledPath:
    def test_disabled_is_shared_null(self):
        assert not obs.enabled()
        assert obs.phase("x") is obs.NULL_PHASE
        assert obs.phase("y") is obs.NULL_PHASE

    def test_disabled_calls_are_noops(self):
        with obs.phase("x"):
            obs.add("c", 10)
        assert obs.active() is None

    def test_null_recorder_overhead(self):
        """50k disabled phase entries must stay far under timing noise."""
        t0 = time.perf_counter()
        for _ in range(50_000):
            with obs.phase("hot.loop"):
                pass
        elapsed = time.perf_counter() - t0
        # Generous bound (~20 us/iteration); the real cost is ~100x lower.
        assert elapsed < 1.0


class TestThreadSafety:
    def test_world_ranks_aggregate_into_one_registry(self, world_backend):
        from repro.runtime.simmpi import World

        nranks, reps = 4, 25

        def main(comm):
            for _ in range(reps):
                with obs.phase("rank.work"):
                    pass
            if comm.rank != 0:
                comm.send(0, tag=1, payload=np.arange(8))
            else:
                for source in range(1, comm.size):
                    comm.recv(source=source, tag=1)
            comm.barrier()

        with obs.observing() as reg:
            world = World(nranks, **world_backend)
            world.run(main)
        assert reg.phases[("rank.work",)].count == nranks * reps
        # TrafficStats feeds the same registry: message counts/bytes are
        # reachable through the unified counters.
        assert reg.counters["runtime.sent_messages"] == world.stats.total_messages
        assert reg.counters["runtime.sent_bytes"] == world.stats.total_sent_bytes
        # Every rank got a name in the registry.  The process backend
        # prefixes absorbed child names with "rankN/", so match suffixes.
        names = set(reg.thread_names.values())
        for r in range(nranks):
            assert any(n.endswith(f"simmpi-rank-{r}") for n in names)


class TestChromeTrace:
    def test_export_valid_and_monotonic(self, tmp_path):
        with obs.observing() as reg:
            with obs.phase("md.step"):
                with obs.phase("md.force"):
                    pass
            with obs.phase("kmc.cycle"):
                pass
            obs.add("runtime.sent_bytes", 128)
            obs.add("sunway.kernel.steps")
        path = tmp_path / "trace.json"
        obs.write_chrome_trace(reg, str(path))
        data = json.loads(path.read_text())
        events = data["traceEvents"]
        assert events, "trace must not be empty"
        ts = [e["ts"] for e in events]
        assert ts == sorted(ts), "ts fields must be monotonic"
        for e in events:
            assert e["ph"] in {"X", "C", "M"}
            assert {"name", "ph", "pid", "tid", "ts"} <= set(e)
            if e["ph"] == "X":
                assert e["dur"] >= 0
        cats = {e.get("cat") for e in events if e["ph"] in {"X", "C"}}
        assert {"md", "kmc", "runtime", "sunway"} <= cats
        counter_events = [e for e in events if e["ph"] == "C"]
        assert any(e["name"] == "runtime.sent_bytes" for e in counter_events)
        assert all("value" in e["args"] for e in counter_events)

    def test_event_cap_counts_drops(self):
        reg = Registry(trace=True, max_events=5)
        with obs.observing(reg):
            for _ in range(10):
                with obs.phase("p"):
                    pass
        assert len(reg.events) == 5
        assert reg.dropped_events == 5
        assert reg.phases[("p",)].count == 10  # aggregates never drop

    def test_no_trace_mode_keeps_aggregates(self):
        with obs.observing(trace=False) as reg:
            with obs.phase("p"):
                pass
        assert reg.events == []
        assert reg.phases[("p",)].count == 1


class TestReport:
    def test_tree_structure_and_counters(self):
        with obs.observing() as reg:
            with obs.phase("coupled.pipeline"):
                with obs.phase("coupled.cascade"):
                    pass
            obs.add("kmc.events", 42)
        text = obs.format_report(reg)
        lines = text.splitlines()
        pipeline = next(i for i, l in enumerate(lines) if "coupled.pipeline" in l)
        cascade = next(i for i, l in enumerate(lines) if "coupled.cascade" in l)
        assert cascade > pipeline
        indent = lambda s: len(s) - len(s.lstrip())  # noqa: E731
        assert indent(lines[cascade]) > indent(lines[pipeline])
        assert "kmc.events" in text
        assert "42" in text

    def test_empty_registry_renders(self):
        assert "no phases" in obs.format_report(Registry())
