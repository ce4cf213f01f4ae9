"""I/O tests: XYZ, state dumps, checkpoints."""

import numpy as np
import pytest

from repro.io.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from repro.io.dump import dump_state, load_state
from repro.io.xyz import read_xyz, write_vacancy_xyz, write_xyz
from repro.lattice.bcc import BCCLattice
from repro.md.engine import MDConfig, MDEngine
from repro.md.state import AtomState


class TestXYZ:
    def test_roundtrip(self, tmp_path, lattice5):
        path = tmp_path / "frame.xyz"
        pos = lattice5.all_positions()[:10]
        write_xyz(path, "Fe", pos, comment="test", lengths=lattice5.lengths)
        symbols, read_pos = read_xyz(path)
        assert symbols == ["Fe"] * 10
        assert np.allclose(read_pos, pos)

    def test_per_atom_symbols(self, tmp_path):
        path = tmp_path / "frame.xyz"
        write_xyz(path, ["Fe", "Cu"], np.zeros((2, 3)))
        symbols, _ = read_xyz(path)
        assert symbols == ["Fe", "Cu"]

    def test_symbol_count_mismatch(self, tmp_path):
        with pytest.raises(ValueError, match="symbols"):
            write_xyz(tmp_path / "f.xyz", ["Fe"], np.zeros((2, 3)))

    def test_shape_validation(self, tmp_path):
        with pytest.raises(ValueError, match="positions"):
            write_xyz(tmp_path / "f.xyz", "Fe", np.zeros((3, 2)))

    def test_append_mode(self, tmp_path):
        path = tmp_path / "traj.xyz"
        write_xyz(path, "Fe", np.zeros((1, 3)))
        write_xyz(path, "Fe", np.ones((1, 3)), append=True)
        assert path.read_text().count("Fe ") == 2

    def test_truncated_file_rejected(self, tmp_path):
        path = tmp_path / "bad.xyz"
        path.write_text("5\ncomment\nFe 0 0 0\n")
        with pytest.raises(ValueError, match="truncated"):
            read_xyz(path)

    def test_vacancy_dump(self, tmp_path, lattice5):
        path = tmp_path / "vac.xyz"
        write_vacancy_xyz(path, lattice5, np.array([3, 7, 11]))
        symbols, pos = read_xyz(path)
        assert symbols == ["V"] * 3
        assert np.allclose(pos, lattice5.position_of(np.array([3, 7, 11])))

    def test_vacancy_dump_empty(self, tmp_path, lattice5):
        path = tmp_path / "vac.xyz"
        write_vacancy_xyz(path, lattice5, np.array([], dtype=np.int64))
        _symbols, pos = read_xyz(path)
        assert len(pos) == 0

    def test_bad_atom_count_names_file_and_line(self, tmp_path):
        path = tmp_path / "bad.xyz"
        path.write_text("not-a-number\ncomment\nFe 0 0 0\n")
        with pytest.raises(ValueError, match=r"bad\.xyz:1: expected an atom"):
            read_xyz(path)

    def test_short_atom_line_names_file_and_line(self, tmp_path):
        path = tmp_path / "bad.xyz"
        path.write_text("2\ncomment\nFe 0 0 0\nFe 1 1\n")
        with pytest.raises(ValueError, match=r"bad\.xyz:4: malformed atom"):
            read_xyz(path)

    def test_blank_line_inside_frame_rejected(self, tmp_path):
        path = tmp_path / "bad.xyz"
        path.write_text("2\ncomment\nFe 0 0 0\n\nFe 1 1 1\n")
        with pytest.raises(ValueError, match=r"bad\.xyz:4: malformed atom"):
            read_xyz(path)

    def test_non_numeric_coordinate_names_file_and_line(self, tmp_path):
        path = tmp_path / "bad.xyz"
        path.write_text("1\ncomment\nFe zero 0 0\n")
        with pytest.raises(ValueError, match=r"bad\.xyz:3: non-numeric"):
            read_xyz(path)

    def test_trailing_blank_lines_tolerated(self, tmp_path):
        path = tmp_path / "ok.xyz"
        path.write_text("1\ncomment\nFe 0.5 1.5 2.5\n\n\n")
        symbols, pos = read_xyz(path)
        assert symbols == ["Fe"]
        assert np.allclose(pos[0], [0.5, 1.5, 2.5])


class TestDump:
    def test_state_roundtrip(self, tmp_path, lattice5):
        state = AtomState.perfect(lattice5)
        state.v[:] = 0.5
        state.make_vacancy(3)
        path = tmp_path / "state.npz"
        dump_state(path, state, extra={"step": np.array(42)})
        loaded, extra = load_state(path)
        assert np.array_equal(loaded.ids, state.ids)
        assert np.allclose(loaded.v, state.v)
        assert loaded.mass == state.mass
        assert int(extra["step"]) == 42

    def test_extra_key_collision_rejected(self, tmp_path, lattice5):
        state = AtomState.perfect(lattice5)
        with pytest.raises(ValueError, match="collides"):
            dump_state(tmp_path / "s.npz", state, extra={"ids": np.zeros(1)})

    def test_wrong_format_rejected(self, tmp_path):
        path = tmp_path / "other.npz"
        np.savez(path, format=np.array("something-else"), junk=np.zeros(1))
        with pytest.raises(ValueError, match="not a"):
            load_state(path)


class TestCheckpoint:
    def _engine_with_damage(self, potential):
        lattice = BCCLattice(6, 6, 6)
        engine = MDEngine(lattice, potential, MDConfig(temperature=300.0, seed=3))
        engine.initialize()
        engine.state.x[20] += np.array([1.5, 0.0, 0.0])
        engine.nblist.update_runaways(engine.state, threshold=1.2)
        engine.run(nsteps=3, displacement_threshold=1.2)
        return engine

    def test_roundtrip_restores_everything(self, tmp_path, potential):
        engine = self._engine_with_damage(potential)
        path = tmp_path / "ckpt.npz"
        save_checkpoint(path, engine)

        fresh = MDEngine(
            BCCLattice(6, 6, 6), potential, MDConfig(temperature=300.0, seed=3)
        )
        load_checkpoint(path, fresh)
        assert np.array_equal(fresh.state.ids, engine.state.ids)
        assert np.allclose(fresh.state.x, engine.state.x)
        assert fresh._step == engine._step
        assert fresh.nblist.n_runaways == engine.nblist.n_runaways

    def test_resumed_run_matches_uninterrupted(self, tmp_path, potential):
        # Checkpoint fidelity: resume must continue the same trajectory.
        a = self._engine_with_damage(potential)
        path = tmp_path / "ckpt.npz"
        save_checkpoint(path, a)
        b = MDEngine(
            BCCLattice(6, 6, 6), potential, MDConfig(temperature=300.0, seed=3)
        )
        load_checkpoint(path, b)
        a.run(nsteps=3, displacement_threshold=1.2)
        b.run(nsteps=3, displacement_threshold=1.2)
        assert np.allclose(a.state.x, b.state.x, atol=1e-15)

    @pytest.mark.parametrize(
        "key,corrupt,message",
        [
            ("runaway_v", lambda a: a[:-1], r"runaway_v has shape \(0, 3\), not \(1, 3\)"),
            ("runaway_host", lambda a: a + 10**6, r"runaway_host points outside the 432"),
            ("runaway_ids", lambda a: a * 0 + 21, r"runaway_ids .* also on the lattice"),
            ("runaway_x", lambda a: a * np.nan, r"runaway_x is not finite"),
        ],
    )
    def test_corrupted_runaway_arrays_fail_at_the_boundary(
        self, tmp_path, potential, key, corrupt, message
    ):
        """A bad ``runaway_*`` array is a ``CheckpointError`` naming the
        key and the file, raised before the engine is touched (it used
        to be an ``IndexError`` in the rebuild loop, or a crash at the
        next force call)."""
        engine = self._engine_with_damage(potential)
        assert engine.nblist.n_runaways == 1
        path = tmp_path / "ckpt.npz"
        save_checkpoint(path, engine)
        with np.load(path) as data:
            arrays = {k: data[k] for k in data.files}
        arrays[key] = corrupt(arrays[key])
        np.savez(path, **arrays)
        fresh = MDEngine(
            BCCLattice(6, 6, 6), potential, MDConfig(temperature=300.0, seed=3)
        )
        state, runs = fresh.state, fresh.nblist.runaways
        with pytest.raises(CheckpointError, match=message) as err:
            load_checkpoint(path, fresh)
        assert str(path) in str(err.value)
        assert fresh.state is state and fresh.nblist.runaways is runs
        assert fresh._step == 0

    def test_lattice_mismatch_rejected(self, tmp_path, potential, lattice5):
        engine = self._engine_with_damage(potential)
        path = tmp_path / "ckpt.npz"
        save_checkpoint(path, engine)
        other = MDEngine(lattice5, potential)
        with pytest.raises(CheckpointError, match="lattice mismatch"):
            load_checkpoint(path, other)


class TestKMCCheckpoint:
    def _occ(self, n=128):
        rng = np.random.default_rng(4)
        occ = np.zeros(n, dtype=np.int8)
        occ[rng.choice(n, size=9, replace=False)] = 1
        return occ

    def test_roundtrip(self, tmp_path):
        from repro.io.checkpoint import (
            load_kmc_checkpoint,
            save_kmc_checkpoint,
        )

        occ = self._occ()
        path = tmp_path / "kmc.npz"
        save_kmc_checkpoint(
            path, occ, time=1.5, cycle=7, events=42, rng_state=None
        )
        ckpt = load_kmc_checkpoint(path)
        np.testing.assert_array_equal(ckpt.occupancy, occ)
        assert (ckpt.time, ckpt.cycle, ckpt.events) == (1.5, 7, 42)
        assert ckpt.rng_state is None
        # Atomic write: no .tmp sibling left behind.
        assert not list(tmp_path.glob("*.tmp.npz"))

    def test_wrong_format_rejected(self, tmp_path):
        from repro.io.checkpoint import load_kmc_checkpoint

        path = tmp_path / "bogus.npz"
        np.savez(path, format="something-else", occupancy=self._occ())
        with pytest.raises(CheckpointError):
            load_kmc_checkpoint(path)

    @pytest.mark.parametrize("field,change,named", [
        ("rng_state", None, "no rng_state field"),
        ("events", None, "no events field"),
        ("occupancy", np.zeros((4, 32), dtype=np.int8),
         r"occupancy has shape \(4, 32\)"),
        ("time", np.array(float("nan")), "time nan is not finite"),
        ("time", np.array(float("inf")), "time inf is not finite"),
        ("cycle", np.array(-1), "cycle -1 is negative"),
        ("events", np.array(-3), "events -3 is negative"),
    ])
    def test_bad_field_rejected_naming_file_and_field(
        self, tmp_path, field, change, named
    ):
        from repro.io.checkpoint import (
            load_kmc_checkpoint,
            save_kmc_checkpoint,
        )

        good = tmp_path / "good.npz"
        save_kmc_checkpoint(good, self._occ(), time=1.5, cycle=7, events=42)
        with np.load(good) as data:
            arrays = dict(data)
        if change is None:
            del arrays[field]
        else:
            arrays[field] = change
        path = tmp_path / "bad.npz"
        np.savez(path, **arrays)
        with pytest.raises(CheckpointError, match=named) as exc_info:
            load_kmc_checkpoint(path)
        assert str(path) in str(exc_info.value)

    @pytest.mark.parametrize("content", [
        b"", b"not an archive at all", b"PK\x03\x04torn", "npy",
    ])
    def test_non_npz_file_rejected(self, tmp_path, content):
        from repro.io.checkpoint import load_kmc_checkpoint

        path = tmp_path / "junk.npz"
        if content == "npy":
            with open(path, "wb") as fh:
                np.save(fh, self._occ())
        else:
            path.write_bytes(content)
        with pytest.raises(CheckpointError, match="is not an npz archive") as exc_info:
            load_kmc_checkpoint(path)
        assert str(path) in str(exc_info.value)

    def test_md_checkpoint_is_not_a_kmc_checkpoint(self, tmp_path, potential):
        from repro.io.checkpoint import load_kmc_checkpoint

        engine = MDEngine(
            BCCLattice(5, 5, 5), potential, MDConfig(temperature=300.0, seed=1)
        )
        engine.initialize()
        path = tmp_path / "md.npz"
        save_checkpoint(path, engine)
        with pytest.raises(CheckpointError):
            load_kmc_checkpoint(path)

    def test_rng_state_roundtrip(self, tmp_path):
        from repro.io.checkpoint import (
            load_kmc_checkpoint,
            restore_rng_state,
            rng_state_json,
            save_kmc_checkpoint,
        )

        rng = np.random.default_rng(77)
        rng.random(13)  # advance past the seed point
        path = tmp_path / "rng.npz"
        save_kmc_checkpoint(
            path, self._occ(), time=0.0, rng_state=rng_state_json(rng)
        )
        expected = rng.random(5)

        fresh = np.random.default_rng(0)
        restore_rng_state(fresh, load_kmc_checkpoint(path).rng_state)
        np.testing.assert_array_equal(fresh.random(5), expected)

    def test_bad_rng_state_rejected(self):
        from repro.io.checkpoint import restore_rng_state

        with pytest.raises(CheckpointError):
            restore_rng_state(np.random.default_rng(0), "not json at all")


class TestAtomicWrites:
    """Crash-mid-write and concurrency behavior of the shared write path."""

    def _occ(self, fill, n=64):
        occ = np.full(n, 1, dtype=np.int8)
        occ[:fill] = 0
        return occ

    def test_atomic_write_failure_keeps_original_and_cleans_temp(
        self, tmp_path
    ):
        from repro.io.atomic import atomic_write

        path = tmp_path / "data.bin"
        path.write_bytes(b"good")
        with pytest.raises(RuntimeError, match="mid-write"):
            with atomic_write(path) as fh:
                fh.write(b"half-written")
                raise RuntimeError("crash mid-write")
        assert path.read_bytes() == b"good"
        assert not list(tmp_path.glob("*.tmp"))

    def test_crash_mid_md_checkpoint_preserves_previous(
        self, tmp_path, potential, monkeypatch
    ):
        from repro.io.checkpoint import load_checkpoint, save_checkpoint

        lattice = BCCLattice(5, 5, 5)
        engine = MDEngine(
            lattice, potential, MDConfig(temperature=300.0, seed=1)
        )
        engine.initialize()
        path = tmp_path / "md.npz"
        save_checkpoint(path, engine)
        good = path.read_bytes()

        real = np.savez_compressed

        def torn(fh, **kw):
            fh.write(b"partial checkpoint bytes")
            raise OSError("disk gone mid-write")

        engine.run(nsteps=2)
        monkeypatch.setattr(np, "savez_compressed", torn)
        with pytest.raises(OSError, match="disk gone"):
            save_checkpoint(path, engine)
        monkeypatch.setattr(np, "savez_compressed", real)
        # The previous checkpoint is intact and still loads.
        assert path.read_bytes() == good
        fresh = MDEngine(
            lattice, potential, MDConfig(temperature=300.0, seed=1)
        )
        load_checkpoint(path, fresh)
        assert fresh._step == 0
        assert not list(tmp_path.glob("*.tmp"))

    def test_crash_mid_kmc_checkpoint_preserves_previous(
        self, tmp_path, monkeypatch
    ):
        from repro.io.checkpoint import (
            load_kmc_checkpoint,
            save_kmc_checkpoint,
        )

        path = tmp_path / "kmc.npz"
        save_kmc_checkpoint(path, self._occ(5), time=1.0, cycle=3)

        def torn(fh, **kw):
            fh.write(b"partial")
            raise OSError("power loss")

        monkeypatch.setattr(np, "savez_compressed", torn)
        with pytest.raises(OSError, match="power loss"):
            save_kmc_checkpoint(path, self._occ(9), time=2.0, cycle=6)
        monkeypatch.undo()
        ckpt = load_kmc_checkpoint(path)
        assert ckpt.cycle == 3
        np.testing.assert_array_equal(ckpt.occupancy, self._occ(5))
        assert not list(tmp_path.glob("*.tmp"))

    def test_concurrent_kmc_checkpointers_never_corrupt(self, tmp_path):
        # Many writers race on one path (a recovery supervisor re-running
        # next to a straggling first attempt): the survivor must be one
        # complete snapshot, never a mixture, with no temp debris.
        import threading

        from repro.io.checkpoint import (
            load_kmc_checkpoint,
            save_kmc_checkpoint,
        )

        path = tmp_path / "shared.npz"
        errors = []

        def writer(k):
            try:
                for _ in range(5):
                    save_kmc_checkpoint(
                        path, self._occ(k), time=float(k), cycle=k
                    )
            except Exception as exc:  # pragma: no cover - failure detail
                errors.append(exc)

        threads = [
            threading.Thread(target=writer, args=(k,)) for k in range(1, 5)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        ckpt = load_kmc_checkpoint(path)
        assert ckpt.cycle in (1, 2, 3, 4)
        np.testing.assert_array_equal(ckpt.occupancy, self._occ(ckpt.cycle))
        assert not list(tmp_path.glob("*.tmp"))
