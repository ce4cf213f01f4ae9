"""The ``src/repro`` names only tests reach, pinned to an allowlist.

A name scan, not a call graph.  A public function or class defined
under ``src/repro`` is *reached* when its name appears as an identifier
(a name, an attribute or an imported name) anywhere in the production
tree: ``src/repro`` itself, ``examples/`` and ``benchmarks/ledger/``.
A method or property (a function defined in a class) is reached only
through an attribute access ``.name`` there.  Imports in package
``__init__`` files are re-exports and do not count; dunders and
``_private`` names are not scanned.  The price is a blind spot: a
method that shares its name with an attribute used anywhere
(``publish``, ``step``, ``release``) counts as reached even when
nothing calls it, so such names need a manual grep.

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
    "analysis.vacancies.frenkel_pairs": _VALIDATOR + ": defect census",
    "core.timescale.paper_timescale_days":
        "the paper's 19.2-day headline from its own constants",
    "io.store.TrajectoryReader.frame_index_at":
        "random access by clock, the store's documented time lookup",
    "io.xyz.read_xyz": "reference reader the XYZ writer tests round-trip through",
    "kmc.catalog.EventCatalog.prefix":
        "prefix-sum read-out compared with tests/kmc_oracle.py",
    "kmc.catalog.EventCatalog.row_events":
        "per-row read-out compared with tests/kmc_oracle.py",
    "kmc.catalog.EventCatalog.row_rate":
        "per-row read-out compared with tests/kmc_oracle.py",
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
    "md.neighbors.linked_cell.LinkedCellList.pairs": _FIG23,
    "md.neighbors.verlet_list.VerletNeighborList": _FIG23,
    "md.neighbors.verlet_list.VerletNeighborList.pairs": _FIG23,
    "md.neighbors.verlet_list.VerletNeighborList.stored_pairs": _FIG23,
    "md.state.AtomState.momentum": "momentum-conservation invariant",
    "perfmodel.md_model.MDScalingModel.max_atoms_per_cg":
        "MD-model memory headroom for the 3.9e7-atom weak load",
    "potential.eam.EAMPotential.pairwise_forces":
        "O(N^2) reference forces the EAM kernel is checked against",
    "runtime.simmpi.RankComm.bcast":
        "collective of the runtime contract, run by the conformance program",
    "runtime.stats.TrafficStats.total_sent_bytes": _LEDGER,
    "runtime.stats.TrafficStats.total_messages": _LEDGER,
    "runtime.stats.TrafficStats.total_collectives": _LEDGER,
}


def _definitions():
    """``{dotted name: (bare name, is a method)}`` of every scanned definition."""
    out = {}

    def visit(body, prefix, in_class):
        for node in body:
            if not isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ) or node.name.startswith("_"):
                continue
            is_class = isinstance(node, ast.ClassDef)
            out[f"{prefix}{node.name}"] = (node.name, in_class and not is_class)
            if is_class:
                visit(node.body, f"{prefix}{node.name}.", True)

    for path in sorted(SRC.rglob("*.py")):
        module = ".".join(path.relative_to(SRC).with_suffix("").parts)
        visit(ast.parse(path.read_text()).body, f"{module}.", False)
    return out


def _identifiers(roots) -> tuple[set[str], set[str]]:
    """Identifiers used anywhere under ``roots`` (f-string bodies too),
    and the subset used as attributes."""
    names, attributes = set(), set()
    for root in roots:
        for path in root.rglob("*.py"):
            reexports = path.name == "__init__.py" and SRC in path.parents
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    attributes.add(node.attr)
                elif isinstance(node, ast.alias) and not reexports:
                    names.add(node.name.rpartition(".")[2])
    return names | attributes, attributes


def _unused(definitions, roots) -> set[str]:
    """Definitions whose name ``roots`` never use: a method only counts
    as used through an attribute access."""
    names, attributes = _identifiers(roots)
    return {
        q
        for q, (name, is_method) in definitions.items()
        if name not in (attributes if is_method else names)
    }


def test_test_only_set_is_the_allowlist():
    unreached = _unused(_definitions(), PRODUCTION)
    assert unreached - ALLOWLIST.keys() == set(), (
        "public names no entry point reaches: delete them or allowlist them"
    )
    assert ALLOWLIST.keys() - unreached == set(), (
        "allowlisted names production now uses or that no longer exist"
    )


def test_allowlisted_names_are_tested():
    definitions = _definitions()
    allowlisted = {q: definitions[q] for q in ALLOWLIST if q in definitions}
    untested = _unused(allowlisted, [ROOT / "tests"]) | (
        ALLOWLIST.keys() - definitions.keys()
    )
    assert untested == set(), "allowlisted but used by nothing: delete them"
    assert all(
        reason and "\n" not in reason for reason in ALLOWLIST.values()
    )
