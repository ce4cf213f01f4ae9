"""EAM force kernel tests: correctness, conservation, run-away paths."""

import ast
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.lattice.bcc import BCCLattice
from repro.lattice.box import Box
from repro.lattice.domain import DomainDecomposition
from repro.md.forces import (
    PairTable,
    build_pair_table,
    compute_energy_forces,
    compute_energy_forces_pairs,
    density_pass,
    eam_evaluate,
    force_pass,
)
from repro.md.neighbors.lattice_list import LatticeNeighborList, RunawayTable
from repro.md.neighbors.verlet_list import VerletNeighborList
from repro.md.state import AtomState
from tests.md_star_oracle import star_density, star_forces


@pytest.fixture()
def system(lattice5, potential):
    state = AtomState.perfect(lattice5)
    rng = np.random.default_rng(5)
    state.x = state.x + rng.normal(0, 0.05, state.x.shape)
    nbl = LatticeNeighborList(lattice5, potential.cutoff)
    return state, nbl


class TestPairTable:
    def test_filters_beyond_cutoff(self, box5):
        x = np.array([[0.0, 0, 0], [1.0, 0, 0], [8.0, 0, 0]])
        t = PairTable.from_pairs(x, [0, 0], [1, 2], box5, cutoff=2.0)
        assert len(t) == 1
        assert t.r[0] == pytest.approx(1.0)

    def test_empty_input(self, box5):
        t = PairTable.from_pairs(np.zeros((2, 3)), [], [], box5, cutoff=2.0)
        assert len(t) == 0

    def test_minimum_image_applied(self, box5):
        L = box5.lengths[0]
        x = np.array([[0.2, 0, 0], [L - 0.2, 0, 0]])
        t = PairTable.from_pairs(x, [0], [1], box5, cutoff=1.0)
        assert len(t) == 1
        assert t.r[0] == pytest.approx(0.4)


class TestKernelCorrectness:
    def test_matches_reference_O_n2(self, system, potential, box5):
        state, nbl = system
        energy = compute_energy_forces(potential, state, nbl)
        ref_e = potential.total_energy(state.x, box5)
        ref_f = potential.pairwise_forces(state.x, box5)
        assert energy == pytest.approx(ref_e, rel=1e-12)
        assert np.allclose(state.f, ref_f, atol=1e-12)

    def test_rho_written_to_state(self, system, potential):
        state, nbl = system
        compute_energy_forces(potential, state, nbl)
        assert np.all(state.rho[state.occupied] > 0)

    def test_newtons_third_law_total_force(self, system, potential):
        state, nbl = system
        compute_energy_forces(potential, state, nbl)
        assert np.allclose(state.f.sum(axis=0), 0.0, atol=1e-9)

    def test_vacancy_gets_zero_force(self, system, potential):
        state, nbl = system
        state.make_vacancy(13)
        compute_energy_forces(potential, state, nbl)
        assert np.all(state.f[13] == 0.0)
        assert state.rho[13] == 0.0

    def test_vacancy_changes_neighbor_forces(self, system, potential):
        state, nbl = system
        compute_energy_forces(potential, state, nbl)
        f_before = state.f.copy()
        state.make_vacancy(13)
        compute_energy_forces(potential, state, nbl)
        nbrs = nbl.neighbor_rows(13)
        assert not np.allclose(state.f[nbrs], f_before[nbrs])

    def test_empty_pairtable_returns_zero(self, potential):
        result = eam_evaluate(potential, 3, PairTable(
            i=np.empty(0, dtype=np.int64),
            j=np.empty(0, dtype=np.int64),
            d=np.empty((0, 3)),
            r=np.empty(0),
        ))
        assert result.energy == 0.0
        assert np.all(result.forces == 0.0)

    def test_bincount_scatter_matches_add_at(self, system, potential):
        """The bincount rho/force scatter must agree with the np.add.at
        accumulation it replaced (identical up to summation-order ulps)."""
        state, nbl = system
        table, x, active, _runs = build_pair_table(state, nbl, potential)
        result = eam_evaluate(potential, len(x), table, active)
        rho = np.zeros(len(x))
        fd = potential.tables.density(table.r)
        np.add.at(rho, table.i, fd)
        np.add.at(rho, table.j, fd)
        assert np.allclose(result.rho, rho, rtol=1e-14, atol=0.0)
        dphi = potential.tables.pair.derivative(table.r)
        dfd = potential.tables.density.derivative(table.r)
        demb = potential.tables.embedding.derivative(rho)
        coeff = (dphi + (demb[table.i] + demb[table.j]) * dfd) / table.r
        fvec = coeff[:, None] * table.d
        forces = np.zeros((len(x), 3))
        np.add.at(forces, table.i, fvec)
        np.add.at(forces, table.j, -fvec)
        assert np.allclose(result.forces, forces, rtol=1e-12, atol=1e-12)

    def test_pairs_kernel_matches_lattice_kernel(self, system, potential, box5):
        state, nbl = system
        e1 = compute_energy_forces(potential, state, nbl)
        vi, vj = VerletNeighborList(box5, potential.cutoff).pairs(state.x)
        res = compute_energy_forces_pairs(potential, state.x, vi, vj, box5)
        assert res.energy == pytest.approx(e1, rel=1e-12)
        assert np.allclose(res.forces, state.f, atol=1e-12)


class TestRunawayForces:
    def test_runaway_participates_in_forces(self, lattice5, potential):
        state = AtomState.perfect(lattice5)
        nbl = LatticeNeighborList(lattice5, potential.cutoff)
        state.x[20] += np.array([1.5, 0.0, 0.0])
        nbl.update_runaways(state, threshold=1.2)
        energy = compute_energy_forces(potential, state, nbl)
        runs = nbl.runaways
        assert np.linalg.norm(runs.f[0]) > 0
        assert runs.rho[0] > 0
        # Energy must match the flat-particle reference including the
        # off-lattice atom.
        box = Box.for_lattice(lattice5)
        x_all = np.vstack([state.x[state.occupied], runs.x])
        assert energy == pytest.approx(
            potential.total_energy(x_all, box), rel=1e-10
        )

    def test_runaway_force_reaction_on_lattice(self, lattice5, potential):
        state = AtomState.perfect(lattice5)
        nbl = LatticeNeighborList(lattice5, potential.cutoff)
        state.x[20] += np.array([1.5, 0.0, 0.0])
        nbl.update_runaways(state, threshold=1.2)
        compute_energy_forces(potential, state, nbl)
        total = state.f.sum(axis=0) + nbl.runaways.f[0]
        assert np.allclose(total, 0.0, atol=1e-9)

    def test_pair_table_includes_runaway_pairs(self, lattice5, potential):
        state = AtomState.perfect(lattice5)
        nbl = LatticeNeighborList(lattice5, potential.cutoff)
        state.x[20] += np.array([1.4, 0.0, 0.0])
        state.x[22] += np.array([1.4, 0.2, 0.0])
        nbl.update_runaways(state, threshold=1.2)
        table, x, _active, runs = build_pair_table(state, nbl, potential)
        assert len(runs) == 2
        run_rows = {state.n, state.n + 1}
        has_rr = any(
            int(a) in run_rows and int(b) in run_rows
            for a, b in zip(table.i, table.j, strict=True)
        )
        assert has_rr


class TestStarKernels:
    def test_star_density_matches_pairs(self, system, potential, box5):
        state, nbl = system
        compute_energy_forces(potential, state, nbl)
        centrals = np.arange(state.n)
        rho, pair_e = star_density(
            potential, state.x, state.occupied, centrals,
            nbl.matrix, nbl.valid, box5,
        )
        assert np.allclose(rho, state.rho, atol=1e-12)

    def test_star_forces_match_pairs(self, system, potential, box5):
        state, nbl = system
        compute_energy_forces(potential, state, nbl)
        centrals = np.arange(state.n)
        f = star_forces(
            potential, state.x, state.occupied, state.rho, centrals,
            nbl.matrix, nbl.valid, box5,
        )
        assert np.allclose(f, state.f, atol=1e-12)

    def test_star_pair_energy_halved_correctly(self, system, potential, box5):
        state, nbl = system
        e_total = compute_energy_forces(potential, state, nbl)
        centrals = np.arange(state.n)
        _rho, pair_e = star_density(
            potential, state.x, state.occupied, centrals,
            nbl.matrix, nbl.valid, box5,
        )
        embed_e = float(np.sum(potential.embed(state.rho[state.occupied])))
        assert pair_e + embed_e == pytest.approx(e_total, rel=1e-12)


@pytest.fixture(scope="module")
def damaged(potential):
    """An 8^3 lattice with thermal displacements, vacancies and three
    run-aways (two of them partners), evaluated by the serial engine."""
    lattice = BCCLattice(8, 8, 8)
    state = AtomState.perfect(lattice)
    state.x = state.x + np.random.default_rng(8).normal(0, 0.05, state.x.shape)
    for row in (7, 300, 611):
        state.make_vacancy(row)
    nbl = LatticeNeighborList(lattice, potential.cutoff)
    seam = int(lattice.rank_of(0, 4, 2, 2))  # first cell past the x = 4 seam
    state.x[seam] += np.array([-1.3, 0.3, 0.1])
    state.x[20] += np.array([1.4, 0.0, 0.0])
    state.x[22] += np.array([1.4, 0.2, 0.0])
    nbl.update_runaways(state, threshold=1.2)
    assert nbl.n_runaways == 3
    compute_energy_forces(potential, state, nbl)
    return lattice, state, nbl, seam


class TestTwoPasses:
    def test_composition_is_eam_evaluate_bit_for_bit(self, damaged, potential):
        _lattice, state, nbl, _seam = damaged
        table, x, active, runs = build_pair_table(state, nbl, potential)
        assert len(runs) == 3 and not active.all()
        whole = eam_evaluate(potential, len(x), table, active)
        dens = density_pass(potential, len(x), table)
        forces, emb = force_pass(potential, table, dens, dens.rho)
        assert np.array_equal(dens.rho, whole.rho)
        assert np.array_equal(forces, whole.forces)
        assert float(np.sum(dens.phi)) == whole.pair_energy
        assert float(np.sum(emb[active])) == whole.embed_energy
        assert whole.energy == whole.pair_energy + whole.embed_energy

    def test_rank_passes_match_star_oracle_with_a_ghost_runaway(
        self, damaged, potential
    ):
        """What a 2x1x1 rank computes for its owned rows — half pairs
        with an owned endpoint, a ghost-copy run-away appended, ghost
        densities from their owners — against the full-star kernels,
        whose matrix gets one more slot: the run-away."""
        lattice, serial, serial_nbl, seam = damaged
        decomp = DomainDecomposition(lattice, (2, 1, 1))
        width = decomp.ghost_width_cells(potential.cutoff) + 1
        site_set, owned = decomp.subdomain(0).site_set(lattice, width)
        sites = site_set.ranks
        state = AtomState.for_sites(lattice, sites)
        state.x[:] = serial.x[sites]
        state.ids[:] = serial.ids[sites]
        nbl = LatticeNeighborList(
            lattice, potential.cutoff, sites=sites, centrals=owned
        )
        # The rank's run-aways, in host order: the two it owns and a copy
        # of the one hosted across the seam.
        whole = serial_nbl.runaways
        runs = RunawayTable(
            whole.ids, site_set.rows_of(whole.host), whole.x, whole.v
        ).by_host()
        (copy,) = np.flatnonzero(runs.ids == seam)
        assert runs.host[copy] not in owned
        table, x, _active, runs = build_pair_table(state, nbl, potential, runs)
        n = state.n
        dens = density_pass(potential, len(x), table)
        # The density exchange: every row and run-away gets its owner's
        # value (local rows ascend with global ranks: same table order).
        assert np.array_equal(runs.ids, whole.ids)
        rho = np.concatenate([serial.rho[sites], whole.rho])
        forces, _emb = force_pass(potential, table, dens, rho)

        # Oracle: each owned central's full star plus one slot per run-away.
        extra = np.broadcast_to(n + np.arange(len(runs)), (len(owned), len(runs)))
        matrix = np.hstack([nbl.matrix, extra])
        valid = np.hstack([nbl.valid, np.ones_like(extra, dtype=bool)])
        occ = np.concatenate([state.occupied, np.ones(len(runs), dtype=bool)])
        rho_star, _pair_e = star_density(
            potential, x, occ, owned, matrix, valid, nbl.box
        )
        f_star = star_forces(potential, x, occ, rho, owned, matrix, valid, nbl.box)
        # The ghost copy reaches owned atoms.
        assert np.isin(table.j[table.i == n + copy], owned).any()
        assert np.allclose(dens.rho[owned], rho_star, rtol=0, atol=1e-12)
        assert np.allclose(forces[owned], f_star, rtol=0, atol=1e-12)
        # ... and both are the serial engine's values for those sites.
        assert np.array_equal(dens.rho[owned], serial.rho[sites[owned]])
        assert np.array_equal(forces[owned], serial.f[sites[owned]])


class TestOneKernel:
    """Tooling guard: ``md/forces.py`` is the only EAM force path."""

    #: ``minimum_image(`` calls allowed under ``src/repro/md``, by file.
    GEOMETRY = {
        "forces.py": (1, "PairTable.from_pairs, the one geometry pass"),
        "state.py": (1, "displacement from the lattice point (escape scan)"),
        "neighbors/lattice_list.py": (1, "run-away distance from its host site"),
        "neighbors/verlet_list.py": (3, "fig 2-3 baseline, builds its own pairs"),
        "neighbors/linked_cell.py": (1, "fig 2-3 baseline, builds its own pairs"),
    }

    def test_no_second_force_path_under_src_md(self):
        root = Path(repro.__file__).resolve().parent / "md"
        offenders = []
        for path in sorted(root.rglob("*.py")):
            rel = path.relative_to(root).as_posix()
            tree = ast.parse(path.read_text(), str(path))
            images = 0
            for node in ast.walk(tree):
                if isinstance(node, ast.FunctionDef) and node.name.startswith("star_"):
                    offenders.append(f"{rel}:{node.lineno}: def {node.name}")
                if not isinstance(node, ast.Call):
                    continue
                call = ast.unparse(node.func)
                if call.endswith("add.at"):
                    offenders.append(f"{rel}:{node.lineno}: {call}(")
                images += call.endswith("minimum_image")
            allowed = self.GEOMETRY.get(rel, (0, ""))[0]
            if images != allowed:
                offenders.append(
                    f"{rel}: {images} minimum_image( calls, {allowed} listed"
                )
        assert not offenders, (
            "EAM forces come from density_pass/force_pass over one PairTable "
            "(repro.md.forces); the star kernels live in tests/md_star_oracle.py "
            "and a legitimate other geometry pass is listed in this test with "
            "its reason:\n" + "\n".join(offenders)
        )

    #: Names of the compiled twin and of what selected it.
    TWIN = ("numba", "REPRO_KERNELS", "REPRO_NO_NUMBA", "eam_fused",
            "rate_batch", "table_payload", "kernels.selected")

    def test_no_second_kernel_implementation_under_src(self):
        root = Path(repro.__file__).resolve().parent
        shim = root / "kernels.py"
        offenders = []
        for path in sorted(root.rglob("*.py")):
            rel = path.relative_to(root).as_posix()
            text = path.read_text()
            if path != shim:
                offenders += [f"{rel}: {name}" for name in self.TWIN if name in text]
            for node in ast.walk(ast.parse(text, str(path))):
                if isinstance(node, ast.ImportFrom):
                    modules = [node.module or ""] + [
                        f"{node.module}.{alias.name}" for alias in node.names
                    ]
                elif isinstance(node, ast.Import):
                    modules = [alias.name for alias in node.names]
                else:
                    continue
                if any(m.split(".")[:2] == ["repro", "kernels"] for m in modules):
                    offenders.append(f"{rel}:{node.lineno}: imports repro.kernels")
        assert not (root / "kernels").exists()
        tree = ast.parse(shim.read_text())
        defined = [getattr(node, "name", ast.unparse(node)) for node in tree.body[1:]]
        expected = ["selected", "numba_available"]
        if ast.get_docstring(tree) is None or defined != expected:
            offenders.append(f"kernels.py: docstring, then {defined}")
        assert not offenders, (
            "there is one kernel implementation (NumPy) and no switch; "
            "repro/kernels.py only answers benchmarks/ledger's two calls "
            "until a benchmark PR drops them, and DESIGN section 9 says how "
            "a compiled path comes back:\n" + "\n".join(offenders)
        )
