"""Temperature initialization and control.

The paper equilibrates the Fe lattice at 600 K before the cascade.  We
provide Maxwell-Boltzmann velocity initialization and a Berendsen
velocity-rescaling thermostat — the minimum machinery to hold a target
temperature during equilibration.
"""

from __future__ import annotations

import numpy as np

from repro.constants import thermal_velocity_sigma
from repro.md.state import AtomState


def maxwell_boltzmann_velocities(
    state: AtomState, temperature: float, rng: np.random.Generator
) -> None:
    """Draw velocities for occupied rows at ``temperature`` (K), drift-free."""
    if temperature < 0:
        raise ValueError(f"temperature must be non-negative, got {temperature}")
    occ = state.occupied
    n = int(np.count_nonzero(occ))
    if n == 0:
        return
    sigma = thermal_velocity_sigma(temperature, state.mass)
    state.v[occ] = rng.normal(0.0, sigma, size=(n, 3))
    state.zero_momentum()
    if temperature > 0 and n > 1:
        # Rescale to hit the target exactly (finite-sample correction).
        current = state.temperature()
        if current > 0:
            state.v[occ] *= np.sqrt(temperature / current)


def berendsen_rescale(
    state: AtomState,
    target: float,
    dt: float,
    tau: float = 0.1,
) -> float:
    """One Berendsen thermostat application; returns the scale factor.

    ``lambda^2 = 1 + (dt/tau) * (T_target/T - 1)``; velocities of occupied
    rows are scaled by ``lambda``.  A no-op when the system is cold (T=0).
    """
    if target < 0:
        raise ValueError(f"target temperature must be non-negative, got {target}")
    if tau <= 0 or dt <= 0:
        raise ValueError("dt and tau must be positive")
    current = state.temperature()
    if current <= 0:
        return 1.0
    lam = float(np.sqrt(max(1.0 + (dt / tau) * (target / current - 1.0), 0.0)))
    state.v[state.occupied] *= lam
    return lam
