"""Thermostat and velocity-initialization tests."""

import numpy as np
import pytest

from repro.md.state import AtomState
from repro.md.thermostat import (
    berendsen_rescale,
    maxwell_boltzmann_velocities,
)


class TestMaxwellBoltzmann:
    def test_hits_target_temperature_exactly(self, lattice5):
        state = AtomState.perfect(lattice5)
        maxwell_boltzmann_velocities(state, 600.0, np.random.default_rng(0))
        assert state.temperature() == pytest.approx(600.0, rel=1e-9)

    def test_zero_net_momentum(self, lattice5):
        state = AtomState.perfect(lattice5)
        maxwell_boltzmann_velocities(state, 600.0, np.random.default_rng(1))
        assert np.allclose(state.momentum(), 0.0, atol=1e-9)

    def test_zero_temperature_means_rest(self, lattice5):
        state = AtomState.perfect(lattice5)
        maxwell_boltzmann_velocities(state, 0.0, np.random.default_rng(2))
        assert np.all(state.v == 0.0)

    def test_vacancies_stay_at_rest(self, lattice5):
        state = AtomState.perfect(lattice5)
        state.make_vacancy(3)
        maxwell_boltzmann_velocities(state, 600.0, np.random.default_rng(3))
        assert np.all(state.v[3] == 0.0)

    def test_negative_temperature_rejected(self, lattice5):
        state = AtomState.perfect(lattice5)
        with pytest.raises(ValueError, match="temperature"):
            maxwell_boltzmann_velocities(state, -1.0, np.random.default_rng(0))

    def test_reproducible_with_seed(self, lattice5):
        s1 = AtomState.perfect(lattice5)
        s2 = AtomState.perfect(lattice5)
        maxwell_boltzmann_velocities(s1, 600.0, np.random.default_rng(7))
        maxwell_boltzmann_velocities(s2, 600.0, np.random.default_rng(7))
        assert np.array_equal(s1.v, s2.v)

    def test_isotropic_distribution(self, lattice8):
        state = AtomState.perfect(lattice8)
        maxwell_boltzmann_velocities(state, 600.0, np.random.default_rng(5))
        variances = state.v.var(axis=0)
        assert variances.max() / variances.min() < 1.3


class TestBerendsen:
    def test_heats_cold_system(self, lattice5):
        state = AtomState.perfect(lattice5)
        maxwell_boltzmann_velocities(state, 300.0, np.random.default_rng(0))
        t0 = state.temperature()
        berendsen_rescale(state, target=600.0, dt=0.001, tau=0.01)
        assert state.temperature() > t0

    def test_cools_hot_system(self, lattice5):
        state = AtomState.perfect(lattice5)
        maxwell_boltzmann_velocities(state, 900.0, np.random.default_rng(0))
        berendsen_rescale(state, target=600.0, dt=0.001, tau=0.01)
        assert state.temperature() < 900.0

    def test_noop_at_target(self, lattice5):
        state = AtomState.perfect(lattice5)
        maxwell_boltzmann_velocities(state, 600.0, np.random.default_rng(0))
        lam = berendsen_rescale(state, target=600.0, dt=0.001, tau=0.1)
        assert lam == pytest.approx(1.0, abs=1e-9)

    def test_noop_for_frozen_system(self, lattice5):
        state = AtomState.perfect(lattice5)
        assert berendsen_rescale(state, target=600.0, dt=0.001) == 1.0
        assert np.all(state.v == 0.0)

    def test_converges_over_many_applications(self, lattice5):
        state = AtomState.perfect(lattice5)
        maxwell_boltzmann_velocities(state, 100.0, np.random.default_rng(0))
        for _ in range(200):
            berendsen_rescale(state, target=600.0, dt=0.001, tau=0.05)
        assert state.temperature() == pytest.approx(600.0, rel=0.05)

    def test_validation(self, lattice5):
        state = AtomState.perfect(lattice5)
        with pytest.raises(ValueError, match="target"):
            berendsen_rescale(state, target=-1.0, dt=0.001)
        with pytest.raises(ValueError, match="positive"):
            berendsen_rescale(state, target=600.0, dt=0.0)
