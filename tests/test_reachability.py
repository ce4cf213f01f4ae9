"""The ``src/repro`` names only tests reach, pinned to an allowlist.

A name scan, not a call graph.  A public function, class, method or
property defined under ``src/repro`` is *reached* when its name appears
as an identifier (a name, an attribute or an imported name) anywhere in
the production tree: ``src/repro`` itself, ``examples/`` and
``benchmarks/ledger/``.  Imports in package ``__init__`` files are
re-exports and do not count; analyzer rules decorated with ``@register``
are reached through the registry; dunders and ``_private`` names are not
scanned.  ``analyze/graph.py::ProjectGraph`` is not used because it does
not resolve method calls on objects, so it would report most methods
unreached.  The price is a blind spot: a method that shares its name
with any used identifier (``publish``, ``step``, ``release``) counts as
reached even when nothing calls it, so such names need a manual grep.

The unreached set must equal :data:`ALLOWLIST`, and every allowlisted
name must still be used by a test.  A public name that only tests use
fails here: delete it, or allowlist it with a one-line reason.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"
PRODUCTION = (SRC, ROOT / "examples", ROOT / "benchmarks" / "ledger")

_FIG23 = "fig 2-3 baseline the memory and pair-equivalence tests compare against"
_VALIDATOR = "physics validator of the reproduction (analysis/)"
_LEDGER = "traffic-ledger total; tests compare backends and schemes through it"

#: Public names only tests reach, each kept on purpose.
ALLOWLIST = {
    "analysis.diffusion.track_single_vacancy": _VALIDATOR + ": tracer run",
    "analysis.diffusion.arrhenius_fit": _VALIDATOR + ": migration barrier",
    "analysis.diffusion.theoretical_single_hop_msd": _VALIDATOR + ": hop MSD",
    "analysis.energies.divacancy_binding_energy": _VALIDATOR + ": binding",
    "analysis.energies.cluster_binding_per_vacancy": _VALIDATOR + ": binding",
    "analysis.stats.radial_distribution": _VALIDATOR + ": RDF",
    "analysis.vacancies.identify_vacancies": _VALIDATOR + ": defect census",
    "analysis.vacancies.identify_interstitials": _VALIDATOR + ": defect census",
    "analysis.vacancies.frenkel_pairs": _VALIDATOR + ": defect census",
    "core.timescale.paper_timescale_days":
        "the paper's 19.2-day headline from its own constants",
    "io.store.TrajectoryReader.frame_index_at":
        "random access by clock, the store's documented time lookup",
    "io.store.is_store": "public store predicate; tests check what a run left",
    "io.xyz.read_xyz": "reference reader the XYZ writer tests round-trip through",
    "kmc.catalog.EventCatalog.row_events":
        "per-row read-out compared with tests/kmc_oracle.py",
    "kmc.catalog.EventCatalog.row_rate":
        "per-row read-out compared with tests/kmc_oracle.py",
    "kmc.events.KMCModel.vacancy_events":
        "scalar reference the batch kernel and tests/kmc_oracle.py are checked against",
    "kmc.sublattice.SectorSchedule.traditional_strip_sites":
        "planned traditional-scheme volume the strip tests check against",
    "lattice.bcc.BCCLattice.neighbor_ranks_within":
        "scalar SiteSet query compared with tests/lattice_oracle.py",
    "md.forces.compute_energy_forces_pairs":
        "EAM over a baseline pair list: the lattice kernel's reference",
    "md.ghost.GhostExchanger.bytes_per_exchange_estimate":
        "planned ghost volume measured traffic is checked against",
    "md.neighbors.lattice_list.LatticeNeighborList.max_neighbors":
        "static matrix width: the 58-site census and the skin sweep",
    "md.neighbors.linked_cell.LinkedCellList": _FIG23,
    "md.neighbors.linked_cell.LinkedCellList.cell_members": _FIG23,
    "md.neighbors.verlet_list.VerletNeighborList": _FIG23,
    "md.neighbors.verlet_list.VerletNeighborList.stored_pairs": _FIG23,
    "md.state.AtomState.momentum": "momentum-conservation invariant",
    "perfmodel.md_model.MDScalingModel.max_atoms_per_cg":
        "MD-model memory headroom for the 3.9e7-atom weak load",
    "potential.eam.EAMPotential.pairwise_forces":
        "O(N^2) reference forces the EAM kernel is checked against",
    "runtime.simmpi.RankComm.layers": "middleware order the runtime tests pin",
    "runtime.simmpi.RankComm.bcast":
        "collective of the runtime contract, run by the conformance program",
    "runtime.simmpi.World.pending_messages":
        "leak check: sent but never received, asserted 0",
    "runtime.stats.TrafficStats.total_sent_bytes": _LEDGER,
    "runtime.stats.TrafficStats.total_messages": _LEDGER,
    "runtime.stats.TrafficStats.total_collectives": _LEDGER,
}


def _definitions():
    """``{dotted name: bare name}`` of every scanned definition."""
    out = {}

    def visit(body, prefix):
        for node in body:
            if not isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ) or node.name.startswith("_"):
                continue
            if any(
                isinstance(d, ast.Name) and d.id == "register"
                for d in node.decorator_list
            ):
                continue
            out[f"{prefix}{node.name}"] = node.name
            if isinstance(node, ast.ClassDef):
                visit(node.body, f"{prefix}{node.name}.")

    for path in sorted(SRC.rglob("*.py")):
        module = ".".join(path.relative_to(SRC).with_suffix("").parts)
        visit(ast.parse(path.read_text()).body, f"{module}.")
    return out


def _identifiers(roots) -> set[str]:
    """Identifiers used anywhere under ``roots`` (f-string bodies too)."""
    names = set()
    for root in roots:
        for path in root.rglob("*.py"):
            reexports = path.name == "__init__.py" and SRC in path.parents
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.alias) and not reexports:
                    names.add(node.name.rpartition(".")[2])
    return names


def test_test_only_set_is_the_allowlist():
    reached = _identifiers(PRODUCTION)
    unreached = {q for q, name in _definitions().items() if name not in reached}
    assert unreached - ALLOWLIST.keys() == set(), (
        "public names no entry point reaches: delete them or allowlist them"
    )
    assert ALLOWLIST.keys() - unreached == set(), (
        "allowlisted names production now uses or that no longer exist"
    )


def test_allowlisted_names_are_tested():
    used = _identifiers([ROOT / "tests"])
    definitions = _definitions()
    untested = {q for q in ALLOWLIST if definitions.get(q) not in used}
    assert untested == set(), "allowlisted but used by nothing: delete them"
    assert all(
        reason and "\n" not in reason for reason in ALLOWLIST.values()
    )
