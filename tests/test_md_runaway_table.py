"""The run-away table against the linked-list bookkeeping it replaced.

``LatticeNeighborList.runaways`` is one host-sorted struct of arrays;
until PR 22 it was ``RunawayAtom`` objects in per-host Python lists,
walked atom by atom.  That bookkeeping lives on verbatim in
``tests/md_runaway_oracle.py``; here both are driven through the same
displace / escape / re-host / capture sequences and must agree element
for element — rows *and their order*, which decides the ``np.bincount``
accumulation order of every force call downstream.
"""

import ast
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.lattice.bcc import BCCLattice
from repro.md.forces import PairTable, build_pair_table
from repro.md.neighbors.lattice_list import LatticeNeighborList, RunawayTable
from repro.md.state import AtomState

from .md_runaway_oracle import LinkedListOracle, pair_indices

CUTOFF = 5.6
THRESHOLD = 1.2
#: A stand-in potential whose cutoff drops nothing: the pair table then
#: holds every *candidate* pair, which is what the exact
#: ``md.pairs.candidate`` counter counts.
EVERYTHING = SimpleNamespace(cutoff=np.inf)


class Twin:
    """One neighbor list + state, and the oracle's copy of both."""

    def __init__(self, cells: int) -> None:
        lattice = BCCLattice(cells, cells, cells)
        self.nbl = LatticeNeighborList(lattice, CUTOFF)
        self.oracle = LinkedListOracle(self.nbl)
        self.state = AtomState.perfect(lattice)
        self.ostate = AtomState.perfect(lattice)
        for state in (self.state, self.ostate):
            state.v[:] = np.arange(state.n * 3).reshape(-1, 3) % 7 - 3.0
            state.rho[:] = np.arange(state.n) % 5 + 1.0

    def kick(self, row: int, step) -> None:
        """Displace the lattice atom at ``row`` (if there is one)."""
        if self.state.ids[row] >= 0:
            self.state.x[row] += step
            self.ostate.x[row] += step

    def place(self, k: int, x) -> None:
        """Put run-away ``k`` (table order) at ``x``."""
        self.nbl.runaways.x[k] = x
        self.oracle.runaways[k].x = np.array(x, dtype=float)

    def update(self) -> dict:
        stats = self.nbl.update_runaways(self.state, THRESHOLD)
        assert stats == self.oracle.update_runaways(self.ostate, THRESHOLD)
        self.check()
        return stats

    def check(self) -> None:
        runs, atoms = self.nbl.runaways, self.oracle.runaways
        assert self.nbl.n_runaways == self.oracle.n_runaways == len(runs)
        assert np.array_equal(runs.ids, [a.id for a in atoms])
        assert np.array_equal(runs.host, [a.host for a in atoms])
        for name in ("x", "v", "f"):
            want = np.array([getattr(a, name) for a in atoms]).reshape(-1, 3)
            assert np.array_equal(getattr(runs, name), want), name
        assert np.array_equal(runs.rho, [a.rho for a in atoms])
        assert np.all(np.diff(runs.host) >= 0)
        for name in ("ids", "x", "v", "f", "rho"):
            assert np.array_equal(
                getattr(self.state, name), getattr(self.ostate, name)
            ), name
        table, x, active, _runs = build_pair_table(self.state, self.nbl, EVERYTHING)
        li, lj = self.nbl.lattice_pairs(self.ostate)
        oi, oj = pair_indices(self.ostate, self.oracle, li, lj)
        want = PairTable.from_pairs(x, oi, oj, self.nbl.box, np.inf)
        assert np.array_equal(table.i, want.i) and np.array_equal(table.j, want.j)
        assert table.i.dtype == want.i.dtype
        assert len(x) == len(active) == self.state.n + len(runs)


step_vectors = st.tuples(*[st.floats(-2.5, 2.5, allow_nan=False)] * 3)
small_offsets = st.tuples(*[st.floats(-0.4, 0.4, allow_nan=False)] * 3)
#: One move of a run-away: drift, head for a vacancy (capture, and a tie
#: when two pick the same one), or sit down next to another run-away
#: (a re-host onto a row that already hosts one).
moves = st.one_of(
    st.tuples(st.just("drift"), st.integers(0, 999), step_vectors),
    st.tuples(st.just("vacancy"), st.integers(0, 999), small_offsets),
    st.tuples(st.just("runaway"), st.integers(0, 999), small_offsets),
)
rounds = st.lists(
    st.tuples(
        st.lists(st.tuples(st.integers(0, 9999), step_vectors), max_size=5),
        st.lists(st.tuples(st.integers(0, 999), moves), max_size=6),
    ),
    min_size=1,
    max_size=6,
)


class TestAgainstLinkedListOracle:
    @pytest.mark.parametrize("cells", [5, 6])
    @given(rounds=rounds)
    @settings(max_examples=25, deadline=None)
    def test_random_sequences_match_element_for_element(self, cells, rounds):
        twin = Twin(cells)
        twin.update()  # the empty table
        for kicks, run_moves in rounds:
            for row, step in kicks:
                twin.kick(row % twin.state.n, np.array(step))
            for k, (kind, target, offset) in run_moves:
                runs = twin.nbl.runaways
                if not len(runs):
                    break
                k %= len(runs)
                vacant = twin.state.vacancy_rows()
                if kind == "vacancy" and len(vacant):
                    x = twin.state.site_pos[vacant[target % len(vacant)]] + offset
                elif kind == "runaway":
                    x = runs.x[target % len(runs)] + offset
                else:
                    x = runs.x[k] + offset
                twin.place(k, x)
            twin.update()

    def test_empty_table(self):
        twin = Twin(5)
        assert twin.update() == {"escaped": 0, "captured": 0, "relinked": 0}
        rows, keep = twin.nbl.runaway_candidates()
        assert rows.shape == keep.shape and len(rows) == 0
        a, b = twin.nbl.runaway_pairs()
        assert len(a) == len(b) == 0
        assert len(RunawayTable()) == 0 and RunawayTable().x.shape == (0, 3)

    @pytest.mark.parametrize("vacancy", [20, 90])
    def test_capture_tie_goes_to_the_first_in_table_order(self, vacancy):
        """Two run-aways inside the capture radius of one vacancy: the
        one earlier in the table as it stood *before* re-linking gets
        the site — also when it is the arrival (``vacancy=90``: after
        re-linking it would stand behind the resident) and when it is
        the farther of the two."""
        twin = Twin(5)
        for row in (20, 90):
            twin.kick(row, np.array([1.3, 0.0, 0.0]))
        assert twin.update()["escaped"] == 2
        first, second = twin.nbl.runaways.ids.tolist()
        assert twin.nbl.runaways.host.tolist() == [20, 90]
        target = twin.state.site_pos[vacancy]
        twin.place(0, target + [0.0, 0.3, 0.0])
        twin.place(1, target + [0.05, 0.0, 0.0])
        stats = twin.update()
        assert stats == {"escaped": 0, "captured": 1, "relinked": 1}
        assert twin.state.ids[vacancy] == first
        assert twin.nbl.runaways.ids.tolist() == [second]
        assert twin.nbl.runaways.host.tolist() == [vacancy]

    def test_rehost_onto_a_row_that_already_hosts_one(self):
        """The arrival ends the resident's list although it came from a
        lower host row — a plain stable sort by host would put it first."""
        twin = Twin(6)
        for row in (20, 200):
            twin.kick(row, np.array([1.5, 0.0, 0.0]))
        twin.update()
        low, high = twin.nbl.runaways.ids.tolist()
        assert twin.nbl.runaways.host[0] < twin.nbl.runaways.host[1]
        twin.place(0, twin.nbl.runaways.x[1] + [0.0, 0.05, 0.0])
        assert twin.update()["relinked"] == 1
        runs = twin.nbl.runaways
        assert runs.host[0] == runs.host[1]
        assert runs.ids.tolist() == [high, low]
        a, b = twin.nbl.runaway_pairs()
        assert (a.tolist(), b.tolist()) == ([0], [1])


class TestOneStore:
    """Tooling guard: run-aways are rows of the table, read as arrays."""

    def test_no_object_graph_or_per_atom_loop_under_src_md(self):
        root = Path(repro.__file__).resolve().parent
        files = [*sorted((root / "md").rglob("*.py")), root / "io" / "checkpoint.py"]
        offenders = []
        for path in files:
            rel = path.relative_to(root).as_posix()
            text = path.read_text()
            if "RunawayAtom" in text:
                offenders.append(f"{rel}: mentions RunawayAtom")
            for node in ast.walk(ast.parse(text, str(path))):
                if isinstance(node, ast.Call) and ast.unparse(node.func) == "np.vstack":
                    offenders.append(f"{rel}:{node.lineno}: np.vstack(")
                iters = []
                if isinstance(node, ast.For):
                    iters = [node.iter]
                elif isinstance(
                    node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
                ):
                    iters = [gen.iter for gen in node.generators]
                for it in iters:
                    names = {
                        getattr(n, "id", getattr(n, "attr", None))
                        for n in ast.walk(it)
                    }
                    if names & {"runs", "runaways"}:
                        offenders.append(
                            f"{rel}:{it.lineno}: loop over {ast.unparse(it)}"
                        )
        assert not offenders, (
            "run-away atoms are rows of LatticeNeighborList.runaways (a "
            "RunawayTable): read its arrays; the per-atom bookkeeping lives "
            "in tests/md_runaway_oracle.py:\n" + "\n".join(offenders)
        )
