"""Distributed damage MD tests: the full §2.1.1 run-away protocol.

The strongest assertion in the suite: a parallel cascade — vacancies in
ghost exchanges, run-away migration between ranks, run-away ghost copies
in the force loop — reproduces the serial engine's trajectory and defect
inventory essentially bitwise.
"""

import numpy as np
import pytest

from repro.lattice.bcc import BCCLattice
from repro.md.cascade import CascadeConfig, insert_pka
from repro.md.engine import MDConfig, MDEngine
from repro.md.parallel_damage import ParallelDamageMD


def run_pair(lattice, potential, pka_site, nranks, nsteps=35, seed=3):
    """(serial engine, parallel result) for the same cascade."""
    cfg = MDConfig(temperature=300.0, seed=seed)
    serial = MDEngine(lattice, potential, cfg)
    serial.initialize()
    row = insert_pka(
        serial.state,
        CascadeConfig(pka_energy=120.0, pka_site=pka_site),
        lattice,
    )
    pka_v = serial.state.v[row].copy()
    serial.run(
        nsteps=nsteps, displacement_threshold=1.2, runaway_check_interval=5
    )
    parallel = ParallelDamageMD(lattice, potential, cfg, nranks=nranks)
    result = parallel.run(
        nsteps=nsteps,
        displacement_threshold=1.2,
        runaway_check_interval=5,
        pka=(row, pka_v),
    )
    return serial, result


@pytest.fixture(scope="module")
def centered(potential):
    # PKA near the box center: the cascade lives inside one octant.
    lattice = BCCLattice(8, 8, 8)
    return run_pair(lattice, potential, pka_site=None, nranks=8)


@pytest.fixture(scope="module")
def boundary(potential):
    # PKA at a subdomain corner: damage and run-aways cross ranks.
    lattice = BCCLattice(8, 8, 8)
    corner_site = int(lattice.rank_of(1, 3, 3, 3))  # at the 2x2x2 seam
    return run_pair(lattice, potential, pka_site=corner_site, nranks=8)


def _assert_matches_serial(serial, result):
    occ = serial.state.occupied
    assert np.abs(result.positions[occ] - serial.state.x[occ]).max() < 1e-11
    assert set(result.vacancy_ranks.tolist()) == set(
        serial.state.vacancy_rows().tolist()
    )
    serial_runs = sorted(
        (a.id, a.x.tolist()) for a in serial.nblist.runaways
    )
    parallel_runs = sorted(
        (int(i), x.tolist())
        for i, x in zip(result.runaway_ids, result.runaway_positions, strict=True)
    )
    assert [r[0] for r in serial_runs] == [r[0] for r in parallel_runs]
    for (sid, sx), (_pid, px) in zip(serial_runs, parallel_runs, strict=True):
        assert np.abs(np.array(sx) - np.array(px)).max() < 1e-11, sid


class TestCenteredCascade:
    def test_produces_damage(self, centered):
        serial, _result = centered
        assert serial.state.nvacancies >= 1

    def test_matches_serial(self, centered):
        serial, result = centered
        _assert_matches_serial(serial, result)


class TestBoundaryCascade:
    def test_produces_damage(self, boundary):
        serial, _result = boundary
        assert serial.state.nvacancies >= 1

    def test_damage_spans_multiple_ranks(self, boundary):
        # The point of this fixture: the defect inventory is distributed.
        serial, result = boundary
        from repro.lattice.domain import DomainDecomposition

        lattice = BCCLattice(8, 8, 8)
        decomp = DomainDecomposition(lattice, (2, 2, 2))
        touched = {
            decomp.owner_of_site(int(r)) for r in result.vacancy_ranks
        }
        touched |= {
            decomp.owner_of_site(int(lattice.nearest_site(x)))
            for x in result.runaway_positions
        }
        assert len(touched) >= 2

    def test_matches_serial(self, boundary):
        serial, result = boundary
        _assert_matches_serial(serial, result)


class TestMechanics:
    def test_rank_count_invariance(self, potential):
        lattice = BCCLattice(8, 8, 8)
        _serial2, r2 = None, None
        results = {}
        for nranks in (2, 8):
            _s, results[nranks] = run_pair(
                lattice, potential, pka_site=None, nranks=nranks, nsteps=20
            )
        assert np.allclose(
            results[2].positions, results[8].positions, atol=1e-11
        )
        assert set(results[2].vacancy_ranks.tolist()) == set(
            results[8].vacancy_ranks.tolist()
        )

    def test_nsteps_validated(self, potential):
        pmd = ParallelDamageMD(BCCLattice(8, 8, 8), potential, nranks=2)
        with pytest.raises(ValueError, match="nsteps"):
            pmd.run(nsteps=0)

    def test_thin_subdomains_rejected_at_construction(
        self, potential, forbid_world
    ):
        # 5 cells over a (1, 2, 2) grid: 2-cell subdomains cannot hold
        # the 3-cell ghost shell.  Used to surface as "rank N failed"
        # out of a running world.
        from repro.md import parallel_damage

        forbid_world(parallel_damage)
        with pytest.raises(ValueError, match=r"5x5x5.*4 ranks.*ghost shell"):
            ParallelDamageMD(BCCLattice(5, 5, 5), potential, nranks=4)

    def test_no_damage_without_pka(self, potential):
        lattice = BCCLattice(8, 8, 8)
        pmd = ParallelDamageMD(
            lattice, potential, MDConfig(temperature=300.0, seed=1), nranks=8
        )
        result = pmd.run(nsteps=10, displacement_threshold=1.2)
        assert len(result.vacancy_ranks) == 0
        assert len(result.runaway_ids) == 0
