"""Distributed damage MD tests: the full §2.1.1 run-away protocol.

The strongest assertion in the suite: a parallel cascade — vacancies in
ghost exchanges, run-away migration between ranks, run-away ghost copies
in the force loop — reproduces the serial engine's trajectory and defect
inventory bit for bit: a rank runs the serial kernel over the serial
pair order (``md/forces.py``) and the serial integrator.
"""

import functools

import numpy as np
import pytest

from repro.lattice.bcc import BCCLattice
from repro.md.cascade import CascadeConfig, insert_pka
from repro.md.engine import MDConfig, MDEngine
from repro.md.parallel_damage import ParallelDamageMD


def run_serial(lattice, potential, pka_site, nsteps=35, seed=3, pka=True):
    """(serial engine after the run, config, the PKA it was given)."""
    cfg = MDConfig(temperature=300.0, seed=seed)
    serial = MDEngine(lattice, potential, cfg)
    serial.initialize()
    kick = None
    if pka:
        row = insert_pka(
            serial.state,
            CascadeConfig(pka_energy=120.0, pka_site=pka_site),
            lattice,
        )
        kick = (row, serial.state.v[row].copy())
    serial.run(
        nsteps=nsteps, displacement_threshold=1.2, runaway_check_interval=5
    )
    return serial, cfg, kick


def run_pair(lattice, potential, pka_site, nranks, backend, workers):
    """(serial engine, parallel result) for the same cascade."""
    serial, cfg, kick = run_serial(lattice, potential, pka_site)
    parallel = ParallelDamageMD(
        lattice, potential, cfg, nranks=nranks, backend=backend, workers=workers
    )
    result = parallel.run(
        nsteps=35,
        displacement_threshold=1.2,
        runaway_check_interval=5,
        pka=kick,
    )
    return serial, result


@pytest.fixture(scope="module")
def cascades(potential):
    """``cascades(where, backend, workers)``: one 8-rank cascade and its
    serial run, once per module and backend."""

    @functools.cache
    def run(where, backend, workers):
        lattice = BCCLattice(8, 8, 8)
        # Near the box center the cascade lives inside one octant; at the
        # 2x2x2 seam damage and run-aways cross ranks.
        site = {"centered": None, "boundary": int(lattice.rank_of(1, 3, 3, 3))}
        return run_pair(lattice, potential, site[where], 8, backend, workers)

    return run


@pytest.fixture()
def centered(cascades, world_backend):
    return cascades("centered", **world_backend)


@pytest.fixture()
def boundary(cascades, world_backend):
    return cascades("boundary", **world_backend)


def _assert_matches_serial(serial, result):
    """Bit for bit: every row (vacancies sit on their lattice point with
    zero velocity in both engines) and every run-away, by atom id."""
    assert np.array_equal(result.positions, serial.state.x)
    assert np.array_equal(result.velocities, serial.state.v)
    assert np.array_equal(result.vacancy_ranks, serial.state.vacancy_rows())
    runs = serial.nblist.runaways
    by_id = np.argsort(runs.ids)
    assert np.array_equal(result.runaway_ids, runs.ids[by_id])
    assert np.array_equal(result.runaway_positions, runs.x[by_id])


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
    @staticmethod
    def _every_rank_count_is_the_serial_run(potential, pka, world_backend):
        lattice = BCCLattice(8, 8, 8)
        serial, cfg, kick = run_serial(
            lattice, potential, pka_site=None, nsteps=20, pka=pka
        )
        assert (serial.state.nvacancies >= 1) == pka
        for nranks in (1, 2, 8):
            result = ParallelDamageMD(
                lattice, potential, cfg, nranks=nranks, **world_backend
            ).run(nsteps=20, displacement_threshold=1.2, pka=kick)
            _assert_matches_serial(serial, result)

    def test_rank_count_invariance(self, potential, world_backend):
        """1, 2 and 8 ranks are each the serial engine's cascade, hence
        each other's."""
        self._every_rank_count_is_the_serial_run(potential, True, world_backend)

    def test_perfect_lattice_is_the_serial_run_at_every_rank_count(
        self, potential, world_backend
    ):
        self._every_rank_count_is_the_serial_run(potential, False, world_backend)

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

    def test_runaway_that_outruns_the_ghost_shell_is_named(
        self, potential, world_backend
    ):
        """A 2 keV PKA (0.83 A/fs, dt = 0.2 fs) flies 12 A — past rank 0's
        3-cell ghost shell — between two checks 80 steps apart: the rank
        that loses it says which atom, how far it got and what to change
        (it used to be SiteSet's bare "site rank N is not present in this
        site set"), and the same run with the advice taken completes."""
        from repro.constants import MVV2E

        lattice = BCCLattice(16, 6, 6)
        site = int(lattice.rank_of(0, 7, 3, 3))  # last cell rank 0 owns
        speed = np.sqrt(2.0 * 2000.0 / (55.845 * MVV2E))
        kick = (site, speed * np.array([1.0, 0.5, 0.0]) / np.sqrt(1.25))
        pmd = ParallelDamageMD(
            lattice, potential, MDConfig(temperature=0.0, seed=1, dt=0.0002),
            nranks=2, **world_backend,
        )
        with pytest.raises(
            RuntimeError,
            match=rf"rank 0 failed.*run-away atom {site} is 1\d\.\d+ A from "
            rf"site {site}.*outran the ghost shell.*lower `runaway_check_interval`",
        ):
            pmd.run(81, runaway_check_interval=80, pka=kick)
        result = pmd.run(81, runaway_check_interval=20, pka=kick)
        assert site in result.runaway_ids

    def test_no_damage_without_pka(self, potential, world_backend):
        lattice = BCCLattice(8, 8, 8)
        pmd = ParallelDamageMD(
            lattice, potential, MDConfig(temperature=300.0, seed=1), nranks=8,
            **world_backend,
        )
        result = pmd.run(nsteps=10, displacement_threshold=1.2)
        assert len(result.vacancy_ranks) == 0
        assert len(result.runaway_ids) == 0
