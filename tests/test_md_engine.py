"""MD engine tests: serial behaviour and serial/parallel equivalence."""

import numpy as np
import pytest

from repro.lattice.bcc import BCCLattice
from repro.md.engine import MDConfig, MDEngine
from repro.md.parallel_damage import ParallelDamageMD


class TestConfig:
    def test_defaults(self):
        cfg = MDConfig()
        assert cfg.dt == 0.001
        assert cfg.temperature == 600.0

    def test_validation(self):
        with pytest.raises(ValueError):
            MDConfig(dt=-1.0)
        with pytest.raises(ValueError):
            MDConfig(temperature=-5.0)


class TestSerialEngine:
    def test_run_requires_steps(self, lattice5, potential):
        engine = MDEngine(lattice5, potential)
        engine.initialize()
        with pytest.raises(ValueError, match="nsteps"):
            engine.run(nsteps=0)

    def test_trace_accumulates(self, lattice5, potential):
        engine = MDEngine(lattice5, potential, MDConfig(seed=1))
        engine.initialize()
        engine.run(nsteps=3)
        engine.run(nsteps=2)
        assert [r.step for r in engine.trace] == [0, 1, 2, 3, 4]

    def test_thermostat_holds_temperature(self, lattice5, potential):
        engine = MDEngine(
            lattice5, potential, MDConfig(temperature=600.0, seed=2)
        )
        engine.initialize()
        engine.run(nsteps=80, thermostat_target=600.0)
        assert engine.state.temperature() == pytest.approx(600.0, rel=0.25)

    def test_positions_stay_wrapped(self, lattice5, potential):
        engine = MDEngine(
            lattice5, potential, MDConfig(temperature=900.0, seed=3)
        )
        engine.initialize()
        engine.run(nsteps=20)
        assert np.all(engine.state.x >= 0)
        assert np.all(engine.state.x < engine.box.lengths)

    def test_runaway_detection_disabled_by_default(self, lattice5, potential):
        engine = MDEngine(
            lattice5, potential, MDConfig(temperature=300.0, seed=4)
        )
        engine.initialize()
        engine.run(nsteps=10)
        assert engine.nblist.n_runaways == 0

    def test_table_layout_equivalence(self, lattice5, potential):
        # Same trajectory with traditional and compacted tables.
        finals = []
        for layout in ("traditional", "compacted"):
            engine = MDEngine(
                lattice5,
                potential.with_layout(layout),
                MDConfig(temperature=300.0, seed=5),
            )
            engine.initialize()
            engine.run(nsteps=10)
            finals.append(engine.state.x.copy())
        assert np.allclose(finals[0], finals[1], atol=1e-12)

    def test_deterministic_given_seed(self, lattice5, potential):
        runs = []
        for _ in range(2):
            engine = MDEngine(
                lattice5, potential, MDConfig(temperature=300.0, seed=6)
            )
            engine.initialize()
            engine.run(nsteps=5)
            runs.append(engine.state.x.copy())
        assert np.array_equal(runs[0], runs[1])


class TestParallelMD:
    """The distributed engine on a perfect lattice (no PKA): the paper's
    parallel structure alone, against the serial engine."""

    @pytest.fixture(scope="class")
    def equivalence_pair(self, potential):
        lattice = BCCLattice(8, 8, 8)
        cfg = MDConfig(temperature=600.0, seed=7)
        serial = MDEngine(lattice, potential, cfg)
        serial.initialize()
        serial.run(nsteps=4)
        parallel = ParallelDamageMD(lattice, potential, cfg, nranks=8)
        result = parallel.run(nsteps=4)
        return serial, result

    def test_positions_match_serial(self, equivalence_pair):
        serial, result = equivalence_pair
        assert np.allclose(result.positions, serial.state.x, atol=1e-12)
        assert len(result.vacancy_ranks) == len(result.runaway_ids) == 0

    def test_velocities_match_serial(self, equivalence_pair):
        serial, result = equivalence_pair
        assert np.allclose(result.velocities, serial.state.v, atol=1e-12)

    def test_comm_stats_populated(self, equivalence_pair):
        _serial, result = equivalence_pair
        assert result.comm_stats["total_sent_bytes"] > 0
        assert result.comm_stats["total_messages"] > 0

    def test_rank_count_variations_agree(self, potential):
        lattice = BCCLattice(8, 8, 8)
        cfg = MDConfig(temperature=600.0, seed=8)
        finals = []
        for nranks in (2, 8):
            result = ParallelDamageMD(
                lattice, potential, cfg, nranks=nranks
            ).run(nsteps=2)
            finals.append(result.positions)
        assert np.allclose(finals[0], finals[1], atol=1e-12)

    def test_nsteps_validated(self, lattice8, potential):
        pmd = ParallelDamageMD(lattice8, potential, nranks=2)
        with pytest.raises(ValueError, match="nsteps"):
            pmd.run(nsteps=0)
