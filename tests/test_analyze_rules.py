"""Per-rule unit tests for repro.analyze: good and bad fixture snippets."""

import ast
import textwrap

from repro.analyze.core import ModuleContext, all_rules
from repro.analyze.graph import ProjectGraph


def scan(source, rel="src/repro/kmc/mod.py", codes=None):
    """Findings of (a subset of) the rules over one in-memory module."""
    source = textwrap.dedent(source)
    rules = [
        cls()
        for code, cls in all_rules().items()
        if codes is None or code in codes
    ]
    module = ModuleContext(rel, source, ast.parse(source))
    graph = ProjectGraph([module])
    found = []
    for rule in rules:
        found.extend(rule.check_module(module))
        found.extend(rule.check_project(graph))
    return found


def codes_of(findings):
    return sorted(f.rule for f in findings)


class TestREP001Nondeterminism:
    def test_flags_numpy_global_rng(self):
        bad = """\
        import numpy as np
        def f():
            return np.random.rand(3)
        """
        assert codes_of(scan(bad, codes={"REP001"})) == ["REP001"]

    def test_flags_numpy_seed_and_aliased_import(self):
        bad = """\
        from numpy import random as nr
        nr.seed(3)
        """
        assert codes_of(scan(bad, codes={"REP001"})) == ["REP001"]

    def test_flags_stdlib_random_and_from_import(self):
        bad = """\
        import random
        from random import randint
        def f():
            return random.random() + randint(0, 3)
        """
        assert len(scan(bad, codes={"REP001"})) == 2

    def test_allows_seeded_generators(self):
        good = """\
        import numpy as np
        import random
        def f(seed):
            g = np.random.default_rng(np.random.SeedSequence(seed))
            r = random.Random(seed)
            return g.random() + r.random()
        """
        assert scan(good, codes={"REP001"}) == []

    def test_flags_wall_clock_in_physics_paths_only(self):
        src = """\
        import time
        from time import perf_counter
        def f():
            return time.time() + perf_counter()
        """
        for rel in ("src/repro/md/x.py", "src/repro/kmc/x.py", "src/repro/core/x.py"):
            assert len(scan(src, rel=rel, codes={"REP001"})) == 2
        # runtime/ and observe/ (and anything non-physics) are allowlisted
        for rel in ("src/repro/runtime/x.py", "src/repro/observe/x.py"):
            assert scan(src, rel=rel, codes={"REP001"}) == []

    def test_unresolvable_calls_are_ignored(self):
        good = """\
        def f(rng):
            return rng.random()  # a Generator method, not the module
        """
        assert scan(good, codes={"REP001"}) == []


class TestREP002Protocol:
    def test_unpaired_send_tag(self):
        bad = """\
        def f(comm):
            comm.send(1, 777, "x")
            _s, _t, p = comm.recv(source=1, tag=778)
        """
        found = scan(bad, codes={"REP002"})
        assert len(found) == 2  # 777 never received, 778 never sent
        assert all(f.rule == "REP002" for f in found)

    def test_paired_constant_tags_with_offsets(self):
        good = """\
        TAG_GET = 1000
        def f(comm, sector):
            comm.send(1, TAG_GET + sector, "x")
            _s, _t, p = comm.recv(source=1, tag=TAG_GET + sector)
        """
        assert scan(good, codes={"REP002"}) == []

    def test_dynamic_recv_tag_mutes_send_pairing(self):
        good = """\
        def f(comm):
            comm.send(1, 777, "x")
            status = comm.probe(source=1, tag=777)
            _s, _t, p = comm.recv(source=1, tag=status.tag)
        """
        assert scan(good, codes={"REP002"}) == []

    def test_pairing_is_cross_module(self):
        rule = all_rules()["REP002"]()
        send_src = "def f(comm):\n    comm.send(1, 42, 'x')\n"
        recv_src = "def g(comm):\n    _s, _t, p = comm.recv(source=0, tag=42)\n"
        modules = [
            ModuleContext(rel, src, ast.parse(src))
            for rel, src in (
                ("src/repro/kmc/a.py", send_src),
                ("src/repro/md/b.py", recv_src),
            )
        ]
        # Each side alone is unpaired; together they pair.
        for module in modules:
            assert len(list(rule.check_project(ProjectGraph([module])))) == 1
        assert list(rule.check_project(ProjectGraph(modules))) == []

    def test_rank_conditional_collective(self):
        bad = """\
        def f(comm):
            if comm.rank == 0:
                comm.barrier()
        """
        found = scan(bad, codes={"REP002"})
        assert codes_of(found) == ["REP002"]
        assert "deadlock" in found[0].message

    def test_same_collective_in_both_branches_is_fine(self):
        good = """\
        def f(comm, value):
            if comm.rank == 0:
                out = comm.bcast(value)
            else:
                out = comm.bcast()
            return out
        """
        assert scan(good, codes={"REP002"}) == []

    def test_window_put_under_rank_conditional(self):
        bad = """\
        def f(comm, win):
            if comm.rank != 0:
                win.put(0, "data")
        """
        assert codes_of(scan(bad, codes={"REP002"})) == ["REP002"]

    def test_queue_put_is_not_a_collective(self):
        good = """\
        def f(comm, q):
            if comm.rank == 0:
                q.put("data")
        """
        assert scan(good, codes={"REP002"}) == []

    def test_runtime_dir_is_exempt(self):
        src = """\
        def f(comm):
            if comm.rank == 0:
                comm.barrier()
        """
        # Only the modules implementing the transport and communicator
        # are exempt; middleware under runtime/ is scanned like a caller.
        for name in ("transport", "simmpi", "procbackend"):
            rel = f"src/repro/runtime/{name}.py"
            assert scan(src, rel=rel, codes={"REP002"}) == []
        for name in ("layers", "sanitize", "scheduler"):
            rel = f"src/repro/runtime/{name}.py"
            assert codes_of(scan(src, rel=rel, codes={"REP002"})) == ["REP002"]


class TestREP003FloatEquality:
    def test_flags_float_literal_comparison(self):
        bad = """\
        def f(x):
            return x == 0.5 or x != -1.25
        """
        assert codes_of(scan(bad, codes={"REP003"})) == ["REP003", "REP003"]

    def test_integer_and_ordering_comparisons_are_fine(self):
        good = """\
        def f(x):
            return x == 0 or x < 0.5 or x >= 1.5
        """
        assert scan(good, codes={"REP003"}) == []

    def test_only_physics_dirs_are_checked(self):
        src = "def f(x):\n    return x == 0.5\n"
        assert scan(src, rel="src/repro/observe/x.py", codes={"REP003"}) == []
        assert len(scan(src, rel="src/repro/potential/x.py", codes={"REP003"})) == 1


class TestREP006BarePhase:
    def test_flags_bare_phase_statement(self):
        bad = """\
        from repro import observe as obs
        def f():
            obs.phase("md.force")
        """
        assert codes_of(scan(bad, codes={"REP006"})) == ["REP006"]

    def test_with_statement_is_fine(self):
        good = """\
        from repro import observe as obs
        def f():
            with obs.phase("md.force"):
                work()
        """
        assert scan(good, codes={"REP006"}) == []


class TestRegistry:
    def test_domain_rules_registered(self):
        # One rule per hazard: the call-graph variants live inside
        # REP001 and REP002, not beside them.  Asserts, broad excepts and
        # np.add.at are ruff's S101, BLE001 and TID251.
        assert set(all_rules()) == {"REP001", "REP002", "REP003", "REP006"}

    def test_every_rule_is_documented(self):
        for cls in all_rules().values():
            assert cls.summary and cls.explanation
