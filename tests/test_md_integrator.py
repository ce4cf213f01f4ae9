"""Velocity Verlet tests: conservation, reversibility, run-away motion."""

import numpy as np
import pytest

from repro.md.engine import MDConfig, MDEngine
from repro.md.integrator import VelocityVerlet
from repro.md.neighbors.lattice_list import LatticeNeighborList
from repro.md.state import AtomState


class TestConstruction:
    def test_bad_dt_rejected(self):
        with pytest.raises(ValueError, match="dt"):
            VelocityVerlet(dt=0.0)


class TestConservation:
    @pytest.fixture(scope="class")
    def nve_trace(self, lattice5, potential):
        engine = MDEngine(
            lattice5, potential, MDConfig(temperature=300.0, seed=8)
        )
        engine.initialize()
        return engine.run(nsteps=60)

    def test_energy_drift_bounded(self, nve_trace):
        e = [r.total_energy for r in nve_trace]
        drift = max(abs(x - e[0]) for x in e) / abs(e[0])
        assert drift < 1e-4

    def test_energy_exchanges_between_kinetic_and_potential(self, nve_trace):
        # Starting from perfect positions at finite T, kinetic falls as
        # potential absorbs (virial equilibration).
        assert nve_trace[-1].kinetic_energy < nve_trace[0].kinetic_energy
        assert (
            nve_trace[-1].potential_energy > nve_trace[0].potential_energy
        )

    def test_momentum_conserved(self, lattice5, potential):
        engine = MDEngine(
            lattice5, potential, MDConfig(temperature=300.0, seed=9)
        )
        engine.initialize()
        p0 = engine.state.momentum()
        engine.run(nsteps=30)
        assert np.allclose(engine.state.momentum(), p0, atol=1e-8)

    def test_smaller_dt_less_drift(self, lattice5, potential):
        drifts = []
        for dt in (0.002, 0.0005):
            engine = MDEngine(
                lattice5, potential, MDConfig(temperature=300.0, seed=10)
            )
            engine.initialize()
            recs = engine.run(nsteps=20, dt=dt)
            e = [r.total_energy for r in recs]
            drifts.append(max(abs(x - e[0]) for x in e))
        assert drifts[1] < drifts[0]


class TestStepMechanics:
    def test_frozen_system_stays_frozen(self, lattice5, potential):
        engine = MDEngine(lattice5, potential, MDConfig(temperature=0.0))
        engine.initialize(temperature=0.0)
        engine.run(nsteps=5)
        assert np.allclose(engine.state.x, engine.state.site_pos, atol=1e-12)

    def test_drift_step_moves_positions(self, lattice5):
        state = AtomState.perfect(lattice5)
        state.v[:] = [0.1, 0.0, 0.0]
        integ = VelocityVerlet(dt=0.01)
        integ.first_half(state)
        assert np.allclose(
            state.x[:, 0] - state.site_pos[:, 0], 0.001, atol=1e-12
        )

    def test_kick_uses_force(self, lattice5):
        state = AtomState.perfect(lattice5)
        state.f[:] = [1.0, 0.0, 0.0]
        integ = VelocityVerlet(dt=0.002)
        integ.second_half(state)
        from repro.constants import FM2A

        expected = 0.5 * 0.002 * FM2A / state.mass
        assert np.allclose(state.v[:, 0], expected)

    def test_vacancy_rows_not_integrated(self, lattice5):
        state = AtomState.perfect(lattice5)
        state.make_vacancy(4)
        state.f[:] = [1.0, 0.0, 0.0]
        VelocityVerlet(dt=0.01).second_half(state)
        assert np.all(state.v[4] == 0.0)

    def test_runaway_atoms_integrated(self, lattice5, potential):
        state = AtomState.perfect(lattice5)
        nbl = LatticeNeighborList(lattice5, potential.cutoff)
        state.x[20] += np.array([1.5, 0.0, 0.0])
        nbl.update_runaways(state, threshold=1.2)
        runs = nbl.runaways
        runs.v[0] = [1.0, 0.0, 0.0]
        x0 = runs.x[0].copy()
        VelocityVerlet(dt=0.01).first_half(state, nbl)
        assert runs.x[0, 0] > x0[0]
