"""Whole-program analysis: ProjectGraph plus REP001/REP002's call chains.

The fixture trees are written to disk and scanned through the real
runner (graph construction included), so these tests cover the exact
pipeline CI runs.
"""

import textwrap

from repro.analyze.graph import ProjectGraph, module_dotted_name
from repro.analyze.runner import analyze_paths


def write_tree(root, files):
    for rel, source in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))


def scan(root, codes=None):
    result = analyze_paths([root / "src"], root=root)
    found = result.findings
    if codes is not None:
        found = [f for f in found if f.rule in codes]
    return found


def build_graph(root, files):
    import ast

    from repro.analyze.core import ModuleContext

    write_tree(root, files)
    modules = []
    for rel in sorted(files):
        source = (root / rel).read_text()
        modules.append(ModuleContext(rel, source, ast.parse(source)))
    return ProjectGraph(modules)


class TestModuleNames:
    def test_src_prefix_stripped_and_init_collapses(self):
        assert module_dotted_name("src/repro/kmc/comm.py") == "repro.kmc.comm"
        assert module_dotted_name("src/repro/observe/__init__.py") == (
            "repro.observe"
        )
        assert module_dotted_name("tests/test_x.py") == "tests.test_x"


class TestProjectGraph:
    def test_symbols_constants_and_call_edges(self, tmp_path):
        graph = build_graph(
            tmp_path,
            {
                "src/repro/a.py": """\
                TAG = 1000

                def helper():
                    return 1

                class Engine:
                    def step(self):
                        return self.inner()

                    def inner(self):
                        return helper()
                """,
            },
        )
        assert "repro.a.helper" in graph.functions
        assert "repro.a.Engine.step" in graph.functions
        assert graph.constants["repro.a.TAG"] == 1000
        # self.inner() resolves within the class; inner() -> helper().
        assert graph.functions["repro.a.Engine.step"].callees == [
            "repro.a.Engine.inner"
        ]
        assert graph.functions["repro.a.Engine.inner"].callees == [
            "repro.a.helper"
        ]

    def test_reexport_alias_chased_through_init(self, tmp_path):
        graph = build_graph(
            tmp_path,
            {
                "src/repro/pkg/__init__.py": "from repro.pkg.impl import work\n",
                "src/repro/pkg/impl.py": "def work():\n    return 1\n",
                "src/repro/user.py": """\
                from repro.pkg import work

                def use():
                    return work()
                """,
            },
        )
        assert graph.deref("repro.pkg.work") == "repro.pkg.impl.work"
        assert graph.functions["repro.user.use"].callees == [
            "repro.pkg.impl.work"
        ]

    def test_lazy_facade_export_table_is_an_alias_source(self, tmp_path):
        # A PEP 562 facade has no ``from x import y`` to chase: the
        # graph reads its literal name -> module table instead.
        graph = build_graph(
            tmp_path,
            {
                "src/repro/service/__init__.py": """                from importlib import import_module

                _EXPORTS = {"run_service": "repro.service.client"}

                def __getattr__(name):
                    return getattr(import_module(_EXPORTS[name]), name)
                """,
                "src/repro/service/client.py": """                def run_service(root, specs):
                    return []
                """,
                "src/repro/user.py": """                from repro.service import run_service

                def use():
                    return run_service("root", [])
                """,
            },
        )
        assert graph.deref("repro.service.run_service") == (
            "repro.service.client.run_service"
        )
        assert graph.functions["repro.user.use"].callees == [
            "repro.service.client.run_service"
        ]

    def test_cross_module_constant_resolution(self, tmp_path):
        import ast

        graph = build_graph(
            tmp_path,
            {
                "src/repro/tags.py": "TAG_GET = 1000\n",
                "src/repro/use.py": "from repro.tags import TAG_GET\n",
            },
        )
        module = graph.modules[1]
        expr = ast.parse("TAG_GET").body[0].value
        assert graph.resolve_constant(module, expr) == 1000

    def test_transitive_closure_carries_witness_chain(self, tmp_path):
        graph = build_graph(
            tmp_path,
            {
                "src/repro/chain.py": """\
                def deep():
                    return 0

                def mid():
                    return deep()

                def top():
                    return mid()
                """,
            },
        )
        closed = graph.transitive_closure({"repro.chain.deep": ("SOURCE",)})
        assert closed["repro.chain.top"] == (
            "repro.chain.mid",
            "repro.chain.deep",
            "SOURCE",
        )


class TestREP001CrossFunctionNondeterminism:
    """A violation a per-file check cannot see: the source sits in a
    non-physics helper module, the call site sits in physics code."""

    FILES = {
        "src/repro/util/jitter.py": """\
        import time

        def jitter():
            return time.time() % 1.0
        """,
        "src/repro/kmc/engine.py": """\
        from repro.util.jitter import jitter

        def step(occ):
            return occ + jitter()
        """,
    }

    def test_merged_rule_sees_through_the_helper(self, tmp_path):
        # Wall-clock outside physics dirs is legal at the source line,
        # but REP001 follows the call from physics code to it.
        write_tree(tmp_path, self.FILES)
        found = scan(tmp_path, codes={"REP001"})
        assert [f.path for f in found] == ["src/repro/kmc/engine.py"]

    def test_reports_chain_at_physics_call_site(self, tmp_path):
        write_tree(tmp_path, self.FILES)
        found = scan(tmp_path, codes={"REP001"})
        assert len(found) == 1
        f = found[0]
        assert f.path == "src/repro/kmc/engine.py"
        assert "repro.util.jitter.jitter" in f.message
        assert "time.time" in f.message
        assert "src/repro/util/jitter.py:4" in f.message

    def test_noqa_on_source_does_not_hide_the_physics_flow(self, tmp_path):
        # An RNG draw justified for tooling is still a violation when
        # physics calls it — the pragma silences the source line only.
        write_tree(
            tmp_path,
            {
                "src/repro/tooling.py": """\
                import numpy as np

                def shake():
                    return np.random.rand()  # repro: noqa(REP001) tooling-only
                """,
                "src/repro/md/relax.py": """\
                from repro.tooling import shake

                def relax(x):
                    return x + shake()
                """,
            },
        )
        result = analyze_paths([tmp_path / "src"], root=tmp_path)
        assert [f.path for f in result.suppressed] == ["src/repro/tooling.py"]
        found = result.findings
        assert len(found) == 1
        assert found[0].rule == "REP001"
        assert found[0].path == "src/repro/md/relax.py"
        assert "numpy.random.rand" in found[0].message

    def test_observe_layer_is_trusted(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "src/repro/observe/api.py": """\
                import time

                def phase(name):
                    return time.perf_counter()
                """,
                "src/repro/kmc/engine.py": """\
                from repro.observe.api import phase

                def step(occ):
                    phase("kmc.step")
                    return occ
                """,
            },
        )
        assert scan(tmp_path, codes={"REP001"}) == []

    def test_seeded_helpers_stay_clean(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "src/repro/util/rngs.py": """\
                import numpy as np

                def stream(seed):
                    return np.random.default_rng(seed)
                """,
                "src/repro/kmc/engine.py": """\
                from repro.util.rngs import stream

                def step(occ, seed):
                    return occ + stream(seed).random()
                """,
            },
        )
        assert scan(tmp_path, codes={"REP001"}) == []


class TestREP002CrossFunctionProtocol:
    """Violations a per-call check cannot see: the tag crosses a function
    boundary as a parameter, or a collective hides behind a helper call."""

    UNPAIRED = {
        "src/repro/kmc/proto.py": """\
        TAG_HALO = 77

        def ship(comm, dest, tag, payload):
            comm.send(dest, tag, payload)

        def run(comm):
            ship(comm, 1, TAG_HALO, b"x")
            comm.recv(source=0, tag=78)
        """,
    }

    def test_merged_rule_sees_through_the_helper(self, tmp_path):
        # A per-call key would see the parameter as a dynamic tag and
        # mute pairing entirely; substituted, both sides are reported.
        write_tree(tmp_path, self.UNPAIRED)
        found = scan(tmp_path, codes={"REP002"})
        assert sorted(f.message.split(" (")[0] for f in found) == [
            "recv/probe tag 78 has no matching send anywhere in the scanned paths",
            "send tag 77",
        ]

    def test_resolves_tag_value_through_the_helper(self, tmp_path):
        write_tree(tmp_path, self.UNPAIRED)
        found = [
            f for f in scan(tmp_path, codes={"REP002"}) if "send tag" in f.message
        ]
        assert len(found) == 1
        f = found[0]
        assert f.path == "src/repro/kmc/proto.py"
        assert f.line == 7  # the call site that fixes the tag
        assert "send tag 77" in f.message
        assert "repro.kmc.proto.run -> repro.kmc.proto.ship" in f.message

    def test_paired_through_helpers_is_clean(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "src/repro/kmc/tags.py": "TAG_HALO = 77\n",
                "src/repro/kmc/send_side.py": """\
                from repro.kmc.tags import TAG_HALO

                def ship(comm, dest, tag, payload):
                    comm.send(dest, tag, payload)

                def run(comm):
                    ship(comm, 1, TAG_HALO, b"x")
                """,
                "src/repro/kmc/recv_side.py": """\
                def pull(comm):
                    return comm.recv(source=0, tag=77)
                """,
            },
        )
        assert scan(tmp_path, codes={"REP002"}) == []

    def test_constant_pairs_by_name_when_one_side_does_not_resolve(
        self, tmp_path
    ):
        # The send side resolves TAG_HALO to 77; the receive side spells
        # it through an object the graph cannot resolve.  The constant
        # must still pair with itself.
        write_tree(
            tmp_path,
            {
                "src/repro/kmc/tags.py": "TAG_HALO = 77\n",
                "src/repro/kmc/send_side.py": """\
                from repro.kmc.tags import TAG_HALO

                def run(comm):
                    comm.send(1, TAG_HALO, b"x")
                """,
                "src/repro/kmc/recv_side.py": """\
                def pull(comm, tags):
                    return comm.recv(0, tags.TAG_HALO)
                """,
            },
        )
        assert scan(tmp_path, codes={"REP002"}) == []

    def test_offset_tags_pair_by_base_value(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "src/repro/kmc/proto.py": """\
                TAG_GET = 1000

                def ship(comm, dest, tag, sector, payload):
                    comm.send(dest, tag + sector, payload)

                def run(comm, sector):
                    ship(comm, 1, TAG_GET, sector, b"x")
                    comm.recv(source=0, tag=1000 + sector)
                """,
            },
        )
        assert scan(tmp_path, codes={"REP002"}) == []

    def test_dynamic_recv_mutes_send_findings(self, tmp_path):
        files = dict(self.UNPAIRED)
        files["src/repro/kmc/ondemand.py"] = """\
        def pump(comm, status):
            return comm.recv(source=0, tag=status.tag)
        """
        write_tree(tmp_path, files)
        found = scan(tmp_path, codes={"REP002"})
        assert [f for f in found if "send tag" in f.message] == []

    def test_rank_conditional_collective_behind_helper(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "src/repro/kmc/sync.py": """\
                def settle(comm):
                    comm.barrier()

                def run(comm, rank):
                    if rank == 0:
                        settle(comm)
                """,
            },
        )
        found = scan(tmp_path, codes={"REP002"})
        assert len(found) == 1
        f = found[0]
        assert "barrier" in f.message
        assert "repro.kmc.sync.settle" in f.message
        assert "src/repro/kmc/sync.py:2" in f.message
        assert "deadlock" in f.message

    def test_same_collective_in_both_branches_is_clean(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "src/repro/kmc/sync.py": """\
                def settle(comm):
                    comm.barrier()

                def run(comm, rank):
                    if rank == 0:
                        settle(comm)
                    else:
                        comm.barrier()
                """,
            },
        )
        assert scan(tmp_path, codes={"REP002"}) == []

    def test_runtime_is_exempt(self, tmp_path):
        source = """\
        TAG_CTL = 9

        def ship(comm, dest, tag, payload):
            comm.send(dest, tag, payload)

        def run(comm):
            ship(comm, 1, TAG_CTL, b"x")
        """
        write_tree(tmp_path / "a", {"src/repro/runtime/transport.py": source})
        assert scan(tmp_path / "a", codes={"REP002"}) == []
        # Middleware under runtime/ is a caller, not the transport.
        write_tree(tmp_path / "b", {"src/repro/runtime/layers.py": source})
        found = scan(tmp_path / "b", codes={"REP002"})
        assert [f.rule for f in found] == ["REP002"]


class TestSelfScanStaysClean:
    def test_repo_scan_has_no_interprocedural_findings(self):
        from pathlib import Path

        root = Path(__file__).resolve().parents[1]
        result = analyze_paths([root / "src"], root=root)
        chains = [f for f in result.findings if " -> " in f.message]
        assert chains == []
