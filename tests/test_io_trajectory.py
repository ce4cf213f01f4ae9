"""KMC trajectory recording on the chunked store: what a caller that
records, persists, reloads and exports occupancy frames relies on."""

import json

import numpy as np
import pytest

from repro.io.store import (
    StoreError,
    TrajectoryReader,
    TrajectoryWriter,
    finalize_store,
    seed_store,
)
from repro.io.xyz import read_xyz, write_vacancy_xyz
from repro.lattice.bcc import BCCLattice


@pytest.fixture()
def traj(tmp_path):
    """An open writer holding two frames recorded from one reused buffer."""
    lattice = BCCLattice(4, 4, 4)
    writer = TrajectoryWriter(tmp_path / "traj", lattice, mode="w")
    occ = np.ones(lattice.nsites, dtype=np.int8)
    occ[5] = 0
    writer.append(0.0, occ)
    occ[5] = 1
    occ[7] = 0
    writer.append(1.5, occ)
    return writer


class TestRecording:
    def test_frames_copied(self, traj):
        # The caller's buffer was mutated between the appends; each
        # frame must hold the occupancy as of its own append.
        traj.finalize()
        reader = TrajectoryReader(traj.path)
        assert len(reader) == 2
        assert reader.vacancy_ranks(0).tolist() == [5]
        assert reader.vacancy_ranks(1).tolist() == [7]

    def test_wrong_length_rejected(self, traj):
        with pytest.raises(ValueError, match="sites"):
            traj.append(2.0, np.ones(3, dtype=np.int8))

    def test_time_must_not_decrease(self, traj):
        with pytest.raises(ValueError, match="non-decreasing"):
            traj.append(1.0, np.ones(traj.lattice.nsites, dtype=np.int8))


class TestPersistence:
    def test_save_load_roundtrip(self, traj):
        traj.finalize()
        loaded = TrajectoryReader(traj.path)
        assert loaded.final
        assert len(loaded) == 2
        assert list(loaded.times) == [0.0, 1.5]
        assert loaded.vacancy_ranks(1).tolist() == [7]
        # The lattice is reconstructed from the store's own metadata.
        assert loaded.lattice.nsites == traj.lattice.nsites
        assert loaded.lattice.a == traj.lattice.a

    def test_wrong_format_rejected(self, traj):
        traj.finalize()
        (sidecar,) = traj.path.glob("shard-*.json")
        meta = json.loads(sidecar.read_text())
        meta["format"] = "other"
        sidecar.write_text(json.dumps(meta))
        with pytest.raises(StoreError, match="not a"):
            TrajectoryReader(traj.path)

    def test_xyz_export(self, traj, tmp_path):
        traj.finalize()
        reader = TrajectoryReader(traj.path)
        path = tmp_path / "frame.xyz"
        write_vacancy_xyz(path, reader.lattice, reader.vacancy_ranks(-1))
        symbols, pos = read_xyz(path)
        assert symbols == ["V"]
        assert np.allclose(pos[0], traj.lattice.position_of(7))


class TestIntegrationWithKMC:
    def test_record_serial_run(self, tmp_path, lattice8, potential, rate_params):
        from repro.kmc.akmc import SerialAKMC, place_random_vacancies
        from repro.kmc.events import KMCModel

        model = KMCModel(lattice8, potential, rate_params)
        occ0 = place_random_vacancies(model, 10, np.random.default_rng(0))
        engine = SerialAKMC(lattice8, potential, rate_params, occ0, seed=1)
        seed_store(tmp_path / "run", lattice8, engine.occ)
        for _ in range(3):
            engine.run(
                max_events=engine.events + 10,
                trajectory=tmp_path / "run",
                trajectory_every=10,
            )
        finalize_store(tmp_path / "run")
        reader = TrajectoryReader(tmp_path / "run")
        assert reader.final
        assert len(reader) == 4
        assert reader.time_of(-1) == engine.time
        # Conservation across all recorded frames.
        for k in range(4):
            assert len(reader.vacancy_ranks(k)) == 10
