"""Shared fixtures.

Expensive artifacts (potentials, parallel-run results) are session-scoped
so many tests can assert against one computation.
"""

from __future__ import annotations

import functools

import numpy as np
import pytest

from repro.kmc.akmc import ParallelAKMC, place_random_vacancies
from repro.kmc.events import KMCModel, RateParameters
from repro.lattice.bcc import BCCLattice
from repro.lattice.box import Box
from repro.md.state import AtomState
from repro.potential.fe import FeParameters, make_fe_potential
from tests.markers import needs_fork


@pytest.fixture(
    params=[
        # The thread cell keeps the test's own name.
        pytest.param(("thread", None), id=pytest.HIDDEN_PARAM),
        pytest.param(
            ("process", None), id="process",
            marks=[pytest.mark.conformance_full, needs_fork],
        ),
        pytest.param(
            ("overdecomposed", 2), id="overdecomposed-2",
            marks=pytest.mark.conformance_full,
        ),
    ]
)
def world_backend(request):
    """The ``backend=``/``workers=`` keywords of the worlds a test starts:
    thread in tier-1, the process and 2-worker overdecomposed cells under
    ``-m conformance_full``.  A world runs only where its arguments say."""
    backend, workers = request.param
    return {"backend": backend, "workers": workers}


@pytest.fixture()
def forbid_world(monkeypatch):
    """``forbid_world(module)``: creating a ``World`` through ``module``
    fails the test — for errors that must surface before any rank is
    spawned.  ``module`` is where the engine looks the name up: the
    engine module itself when it imports ``World`` at top level
    (``md.parallel_damage``), ``repro.runtime.simmpi`` when it imports
    it where it is constructed (``kmc.akmc.ParallelAKMC``)."""

    def forbid(module) -> None:
        def no_world(*args, **kwargs):
            raise AssertionError("a World was created")

        monkeypatch.setattr(module, "World", no_world)

    return forbid


@pytest.fixture(scope="session")
def potential():
    """The iron-like EAM potential at test-friendly table resolution."""
    return make_fe_potential(n=1000)


@pytest.fixture(scope="session")
def fe_params():
    return FeParameters()


@pytest.fixture(scope="session")
def lattice5():
    """Smallest lattice accepted by the MD neighbor machinery."""
    return BCCLattice(5, 5, 5)


@pytest.fixture(scope="session")
def lattice8():
    """A lattice large enough for 2x2x2 parallel decompositions."""
    return BCCLattice(8, 8, 8)


@pytest.fixture(scope="session")
def box5(lattice5):
    return Box.for_lattice(lattice5)


@pytest.fixture()
def perturbed_state(lattice5):
    """A thermal-amplitude perturbed perfect crystal (fresh per test)."""
    state = AtomState.perfect(lattice5)
    rng = np.random.default_rng(12345)
    state.x = state.x + rng.normal(0.0, 0.05, state.x.shape)
    return state


@pytest.fixture(scope="session")
def rate_params():
    return RateParameters()


@pytest.fixture(scope="session")
def kmc_model8(lattice8, potential, rate_params):
    return KMCModel(lattice8, potential, rate_params)


@pytest.fixture(scope="session")
def kmc_initial_occ(kmc_model8):
    """20 random vacancies on the 8^3 lattice."""
    return place_random_vacancies(kmc_model8, 20, np.random.default_rng(1))


@pytest.fixture(scope="session")
def _parallel_kmc_runs(lattice8, potential, rate_params, kmc_initial_occ):
    @functools.cache
    def run(backend, workers):
        results = {}
        for scheme in ("traditional", "ondemand", "onesided"):
            engine = ParallelAKMC(
                lattice8,
                potential,
                rate_params,
                nranks=8,
                scheme=scheme,
                seed=5,
                backend=backend,
                workers=workers,
            )
            results[scheme] = engine.run(kmc_initial_occ, max_cycles=10)
        return results

    return run


@pytest.fixture()
def parallel_kmc_results(_parallel_kmc_runs, world_backend):
    """One parallel AKMC run per communication scheme, same workload.

    The expensive fixture of the suite: three 8-rank runs per backend,
    run once per session, whose results back all the scheme-equivalence,
    conservation and traffic tests.
    """
    return _parallel_kmc_runs(**world_backend)
