"""Streaming chunked trajectory store (:mod:`repro.io.store`).

Covers the on-disk format round trip and its pinned bytes, out-of-core
random access, crash safety (torn tails, CRC corruption), the
rejection of sidecars this format does not hold, the engine/coupling
wiring, and the acceptance criteria of the trajectory
store issue: the reader reproduces the recorded frame list bit-exactly
and a fault-injected coupled run leaves the same store as a fault-free
one.
"""

import functools
import hashlib
import json

import numpy as np
import pytest

from repro import observe as obs
from repro.io.store import (
    StoreError,
    TornTailWarning,
    TrajectoryReader,
    TrajectoryWriter,
    finalize_store,
)
from repro.lattice.bcc import BCCLattice


@pytest.fixture()
def lattice4():
    return BCCLattice(4, 4, 4)


def _hop_frames(lattice, n, nvac=6, seed=0):
    """A synthetic trajectory: a few sites change per frame."""
    rng = np.random.default_rng(seed)
    occ = np.ones(lattice.nsites, dtype=np.int8)
    occ[rng.choice(lattice.nsites, nvac, replace=False)] = 0
    times, frames = [0.0], [occ.copy()]
    t = 0.0
    for _ in range(n - 1):
        src = rng.choice(np.flatnonzero(occ == 0))
        dst = rng.choice(np.flatnonzero(occ == 1))
        occ[src], occ[dst] = occ[dst], occ[src]
        t += float(rng.exponential(0.1))
        times.append(t)
        frames.append(occ.copy())
    return times, frames


def _write(path, lattice, times, frames, **kw):
    writer = TrajectoryWriter(path, lattice, mode="w", **kw)
    for t, f in zip(times, frames, strict=True):
        writer.append(t, f)
    writer.finalize()
    return path


class TestRoundTrip:
    def test_bit_exact_roundtrip(self, tmp_path, lattice4):
        times, frames = _hop_frames(lattice4, 11)
        store = _write(tmp_path / "s", lattice4, times, frames, chunk_frames=4)
        reader = TrajectoryReader(store)
        assert len(reader) == 11
        assert reader.final
        for i, (t, f) in enumerate(zip(times, frames, strict=True)):
            assert reader.time_of(i) == t
            np.testing.assert_array_equal(reader.frame(i), f)

    def test_iteration_matches_frames(self, tmp_path, lattice4):
        times, frames = _hop_frames(lattice4, 7)
        store = _write(tmp_path / "s", lattice4, times, frames, chunk_frames=3)
        seen = list(TrajectoryReader(store))
        assert [t for t, _ in seen] == times
        for (_, got), want in zip(seen, frames, strict=True):
            np.testing.assert_array_equal(got, want)

    def test_empty_vacancy_frames(self, tmp_path, lattice4):
        # All-atom frames (no vacancies at all) are a legal trajectory.
        occ = np.ones(lattice4.nsites, dtype=np.int8)
        store = _write(
            tmp_path / "s", lattice4, [0.0, 1.0, 2.0], [occ, occ, occ]
        )
        reader = TrajectoryReader(store)
        assert len(reader) == 3
        for i in range(3):
            assert len(reader.vacancy_ranks(i)) == 0

    def test_single_frame_store(self, tmp_path, lattice4):
        times, frames = _hop_frames(lattice4, 1)
        store = _write(tmp_path / "s", lattice4, times, frames)
        reader = TrajectoryReader(store)
        assert len(reader) == 1
        np.testing.assert_array_equal(reader.frame(0), frames[0])
        np.testing.assert_array_equal(reader.frame(-1), frames[0])

    def test_matches_kmc_trajectory_frames(self, tmp_path, lattice4):
        # Acceptance: the store reproduces the in-memory frame list
        # (what the .npz KMCTrajectory used to hold) bit-exactly.
        times, frames = _hop_frames(lattice4, 9)
        store = _write(tmp_path / "s", lattice4, times, frames, chunk_frames=4)
        reader = TrajectoryReader(store)
        assert len(reader) == len(frames)
        for i in range(len(frames)):
            np.testing.assert_array_equal(reader.frame(i), frames[i])
            assert reader.time_of(i) == times[i]

    def test_format_bytes_are_pinned(self, tmp_path, lattice4):
        # The on-disk format is frozen: a fixed 40-frame hop sequence
        # writes these exact .bin and .json bytes, so stores written
        # now and stores written before the format was narrowed to one
        # zlib shard are interchangeable.
        times, frames = _hop_frames(lattice4, 40)
        store = _write(tmp_path / "s", lattice4, times, frames)
        digests = {
            p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in store.iterdir()
        }
        assert digests == {
            "shard-00000.bin": (
                "eb19f20e089b63f27ce69e2c77a44372"
                "bb0a74d67355a783f60c82f4221c6973"
            ),
            "shard-00000.json": (
                "01da37bd8104e7ddbc291baab91fd112"
                "abd607e99ca387226625ac999cec4a7b"
            ),
        }

    def test_compression_floor(self, tmp_path):
        # Delta + zlib must beat the raw frame stack by a wide margin.
        lattice = BCCLattice(12, 12, 12)
        times, frames = _hop_frames(lattice, 64, nvac=48)
        store = _write(tmp_path / "s", lattice, times, frames)
        raw = len(frames) * lattice.nsites
        disk = (store / "shard-00000.bin").stat().st_size
        assert disk < raw / 4


class TestRandomAccess:
    def test_frame_at_time(self, tmp_path, lattice4):
        times, frames = _hop_frames(lattice4, 10)
        store = _write(tmp_path / "s", lattice4, times, frames, chunk_frames=3)
        reader = TrajectoryReader(store)
        # Exactly at a timestamp -> that frame; between -> the earlier.
        assert reader.frame_index_at(times[4]) == 4
        mid = (times[4] + times[5]) / 2
        assert reader.frame_index_at(mid) == 4
        np.testing.assert_array_equal(
            reader.frame(reader.frame_index_at(mid)), frames[4]
        )
        assert reader.frame_index_at(times[-1] + 1e9) == 9

    def test_before_first_frame_rejected(self, tmp_path, lattice4):
        times, frames = _hop_frames(lattice4, 3)
        store = _write(
            tmp_path / "s", lattice4, [t + 1.0 for t in times], frames
        )
        with pytest.raises(ValueError, match="no frame"):
            TrajectoryReader(store).frame_index_at(0.5)

    def test_out_of_range_rejected(self, tmp_path, lattice4):
        times, frames = _hop_frames(lattice4, 3)
        store = _write(tmp_path / "s", lattice4, times, frames)
        with pytest.raises(IndexError):
            TrajectoryReader(store).frame(3)


class TestWriterContract:
    def test_time_must_not_decrease(self, tmp_path, lattice4):
        writer = TrajectoryWriter(tmp_path / "s", lattice4)
        occ = np.ones(lattice4.nsites, dtype=np.int8)
        writer.append(1.0, occ)
        with pytest.raises(ValueError, match="non-decreasing"):
            writer.append(0.5, occ)

    def test_wrong_length_rejected(self, tmp_path, lattice4):
        writer = TrajectoryWriter(tmp_path / "s", lattice4)
        with pytest.raises(ValueError, match="sites"):
            writer.append(0.0, np.ones(3, dtype=np.int8))

    def test_closed_writer_rejects_appends(self, tmp_path, lattice4):
        writer = TrajectoryWriter(tmp_path / "s", lattice4)
        writer.close()
        with pytest.raises(StoreError, match="closed"):
            writer.append(0.0, np.ones(lattice4.nsites, dtype=np.int8))

    def test_memory_stays_bounded(self, tmp_path, lattice4):
        # The writer may hold at most chunk_frames pending records:
        # appends beyond that commit to disk instead of accumulating.
        times, frames = _hop_frames(lattice4, 40)
        writer = TrajectoryWriter(
            tmp_path / "s", lattice4, mode="w", chunk_frames=4
        )
        for t, f in zip(times, frames, strict=True):
            writer.append(t, f)
            assert len(writer._pending) < 4
        writer.finalize()
        assert len(TrajectoryReader(tmp_path / "s")) == 40


class TestCrashSafety:
    def test_reopen_appends_after_clean_close(self, tmp_path, lattice4):
        times, frames = _hop_frames(lattice4, 8)
        writer = TrajectoryWriter(
            tmp_path / "s", lattice4, mode="w", chunk_frames=3
        )
        for t, f in zip(times[:5], frames[:5], strict=True):
            writer.append(t, f)
        writer.close(final=False)
        writer = TrajectoryWriter(tmp_path / "s")
        assert writer.nframes == 5
        assert writer.last_time == times[4]
        for t, f in zip(times[5:], frames[5:], strict=True):
            writer.append(t, f)
        writer.finalize()
        reader = TrajectoryReader(tmp_path / "s")
        assert len(reader) == 8
        for i, f in enumerate(frames):
            np.testing.assert_array_equal(reader.frame(i), f)

    def test_torn_tail_is_truncated_on_reopen(self, tmp_path, lattice4):
        # A crash can leave shard bytes past the last indexed chunk
        # (the index is only published after a durable chunk write).
        times, frames = _hop_frames(lattice4, 6)
        writer = TrajectoryWriter(
            tmp_path / "s", lattice4, mode="w", chunk_frames=3
        )
        for t, f in zip(times, frames, strict=True):
            writer.append(t, f)
        writer.close(final=False)
        bin_path = tmp_path / "s" / "shard-00000.bin"
        good = bin_path.stat().st_size
        with open(bin_path, "ab") as fh:
            fh.write(b"\x13" * 37)  # torn, unindexed garbage
        reader = TrajectoryReader(tmp_path / "s")
        assert len(reader) == 6
        np.testing.assert_array_equal(reader.frame(-1), frames[-1])
        # The drop is no longer silent: the resume warns (naming the
        # shard) and records an observe counter.
        registry = obs.enable(trace=False)
        try:
            with pytest.warns(TornTailWarning, match="shard-00000.bin"):
                writer = TrajectoryWriter(tmp_path / "s")
        finally:
            obs.disable()
        assert registry.counters["io.trajectory.torn_tail"] == 1
        assert bin_path.stat().st_size == good  # tail dropped
        writer.append(times[-1] + 1.0, frames[0])
        writer.finalize()
        np.testing.assert_array_equal(
            TrajectoryReader(tmp_path / "s").frame(-1), frames[0]
        )

    def test_clean_resume_does_not_warn(self, tmp_path, lattice4):
        import warnings

        times, frames = _hop_frames(lattice4, 6)
        writer = TrajectoryWriter(
            tmp_path / "s", lattice4, mode="w", chunk_frames=3
        )
        for t, f in zip(times, frames, strict=True):
            writer.append(t, f)
        writer.close(final=False)
        with warnings.catch_warnings():
            warnings.simplefilter("error", TornTailWarning)
            writer = TrajectoryWriter(tmp_path / "s")
        writer.close(final=False)

    def test_unflushed_frames_lost_indexed_frames_survive(
        self, tmp_path, lattice4
    ):
        # Simulated crash: the writer dies without close(); only chunks
        # the index describes are readable.
        times, frames = _hop_frames(lattice4, 7)
        writer = TrajectoryWriter(
            tmp_path / "s", lattice4, mode="w", chunk_frames=3
        )
        for t, f in zip(times, frames, strict=True):
            writer.append(t, f)
        # 7 appends, chunk_frames=3: chunks [0..2] and [3..5] are
        # committed, frame 6 is pending in memory only.
        reader = TrajectoryReader(tmp_path / "s")
        assert len(reader) == 6
        np.testing.assert_array_equal(reader.frame(5), frames[5])

    def test_crc_corruption_detected(self, tmp_path, lattice4):
        times, frames = _hop_frames(lattice4, 4)
        store = _write(
            tmp_path / "s", lattice4, times, frames, chunk_frames=2
        )
        idx = json.loads((store / "shard-00000.json").read_text())
        chunk = idx["chunks"][1]
        bin_path = store / "shard-00000.bin"
        raw = bytearray(bin_path.read_bytes())
        raw[chunk["offset"] + 1] ^= 0xFF
        bin_path.write_bytes(bytes(raw))
        reader = TrajectoryReader(store)
        np.testing.assert_array_equal(reader.frame(0), frames[0])  # chunk 0 OK
        with pytest.raises(StoreError, match="CRC"):
            reader.frame(2)

    def test_finalize_store_helper(self, tmp_path, lattice4):
        times, frames = _hop_frames(lattice4, 3)
        writer = TrajectoryWriter(tmp_path / "s", lattice4, mode="w")
        for t, f in zip(times, frames, strict=True):
            writer.append(t, f)
        writer.close(final=False)
        assert not TrajectoryReader(tmp_path / "s").final
        finalize_store(tmp_path / "s")
        assert TrajectoryReader(tmp_path / "s").final

    def test_finalize_store_without_shards_rejected(self, tmp_path):
        (tmp_path / "empty").mkdir()
        with pytest.raises(StoreError, match="no shard"):
            finalize_store(tmp_path / "empty")


def _edit_sidecar(store, edit):
    sidecar = store / "shard-00000.json"
    meta = json.loads(sidecar.read_text())
    edit(meta)
    sidecar.write_text(json.dumps(meta))


class TestSidecarBoundary:
    """Sidecars this format does not hold fail when the store opens."""

    @pytest.fixture()
    def store(self, tmp_path, lattice4):
        times, frames = _hop_frames(lattice4, 5)
        return _write(tmp_path / "s", lattice4, times, frames, chunk_frames=2)

    @staticmethod
    def _rejected(store, match):
        with pytest.raises(StoreError, match=match):
            TrajectoryReader(store)
        with pytest.raises(StoreError, match=match):
            TrajectoryWriter(store)

    @pytest.mark.parametrize(
        "key", ["chunks", "nframes", "nsites", "dims", "chunk_frames"]
    )
    def test_missing_key_rejected(self, store, key):
        _edit_sidecar(store, lambda meta: meta.pop(key))
        self._rejected(store, rf"shard-00000\.json.*'{key}'")

    def test_non_list_chunks_rejected(self, store):
        _edit_sidecar(store, lambda meta: meta.update(chunks={"0": 1}))
        self._rejected(store, r"shard-00000\.json.*'chunks'")

    @pytest.mark.parametrize("codec", ["zstd", "none"])
    def test_foreign_codec_rejected(self, store, codec):
        _edit_sidecar(store, lambda meta: meta.update(compression=codec))
        self._rejected(store, r"shard-00000\.json.*compression")

    def test_subset_shard_rejected(self, store):
        _edit_sidecar(store, lambda meta: meta.update(sites_length=64))
        self._rejected(store, r"shard-00000\.json.*sites_length")

    def test_second_shard_rejected(self, store):
        for suffix in (".bin", ".json"):
            (store / ("shard-00001" + suffix)).write_bytes(
                (store / ("shard-00000" + suffix)).read_bytes()
            )
        self._rejected(store, r"shard-00001\.json.*second shard")
        with pytest.raises(StoreError, match="second shard"):
            finalize_store(store)


class TestEngineWiring:
    def test_serial_run_streams_frames(
        self, tmp_path, lattice8, potential, rate_params, kmc_initial_occ
    ):
        from repro.kmc.akmc import SerialAKMC

        store = tmp_path / "traj"
        result = SerialAKMC(
            lattice8, potential, rate_params, kmc_initial_occ, seed=9
        ).run(max_events=30, trajectory=store)
        finalize_store(store)
        reader = TrajectoryReader(store)
        # One frame per event at trajectory_every=1.
        assert len(reader) == 30
        np.testing.assert_array_equal(reader.frame(-1), result.occupancy)
        assert reader.time_of(-1) == result.time
        times = [reader.time_of(i) for i in range(len(reader))]
        assert times == sorted(times)

    def test_serial_frames_match_stepwise_reference(
        self, tmp_path, lattice8, potential, rate_params, kmc_initial_occ
    ):
        from repro.kmc.akmc import SerialAKMC

        store = tmp_path / "traj"
        SerialAKMC(
            lattice8, potential, rate_params, kmc_initial_occ, seed=9
        ).run(max_events=20, trajectory=store)
        ref = SerialAKMC(
            lattice8, potential, rate_params, kmc_initial_occ, seed=9
        )
        reader = TrajectoryReader(store)
        for i in range(20):
            ref.step()
            np.testing.assert_array_equal(reader.frame(i), ref.occ)
            assert reader.time_of(i) == ref.time

    def test_trajectory_every_thins_frames(
        self, tmp_path, lattice8, potential, rate_params, kmc_initial_occ
    ):
        from repro.kmc.akmc import SerialAKMC

        store = tmp_path / "traj"
        SerialAKMC(
            lattice8, potential, rate_params, kmc_initial_occ, seed=9
        ).run(max_events=30, trajectory=store, trajectory_every=10)
        assert len(TrajectoryReader(store)) == 3

    def test_recording_does_not_perturb_the_run(
        self, tmp_path, lattice8, potential, rate_params, kmc_initial_occ
    ):
        from repro.kmc.akmc import SerialAKMC

        plain = SerialAKMC(
            lattice8, potential, rate_params, kmc_initial_occ, seed=9
        ).run(max_events=40)
        recorded = SerialAKMC(
            lattice8, potential, rate_params, kmc_initial_occ, seed=9
        ).run(max_events=40, trajectory=tmp_path / "traj")
        assert recorded.time == plain.time
        np.testing.assert_array_equal(recorded.occupancy, plain.occupancy)

    def test_store_fed_reports_match_in_memory(
        self, tmp_path, lattice8, potential, rate_params, kmc_initial_occ
    ):
        # Clustering read out of core from a run's store equals the
        # in-memory report, at the seeded first frame and at the last.
        from repro.core.clusters import (
            clustering_report,
            clustering_report_from_store,
        )
        from repro.io.store import seed_store
        from repro.kmc.akmc import SerialAKMC
        from repro.kmc.events import VACANCY

        store = tmp_path / "traj"
        seed_store(store, lattice8, kmc_initial_occ)
        result = SerialAKMC(
            lattice8, potential, rate_params, kmc_initial_occ, seed=1
        ).run(max_events=40, trajectory=store)
        finalize_store(store)
        reader = TrajectoryReader(store)
        assert reader.final
        before = np.flatnonzero(kmc_initial_occ == VACANCY)
        assert clustering_report_from_store(reader, 0) == clustering_report(
            lattice8, before
        )
        assert clustering_report_from_store(reader, -1) == clustering_report(
            lattice8, result.vacancy_ranks
        )
        np.testing.assert_array_equal(
            reader.vacancy_ranks(len(reader) - 1), result.vacancy_ranks
        )

    def test_trajectory_every_requires_trajectory(
        self, lattice8, potential, rate_params, kmc_initial_occ
    ):
        from repro.kmc.akmc import SerialAKMC

        engine = SerialAKMC(
            lattice8, potential, rate_params, kmc_initial_occ, seed=9
        )
        with pytest.raises(ValueError, match="requires trajectory"):
            engine.run(max_events=5, trajectory_every=2)

    @pytest.mark.parametrize(
        "outputs", [{"trajectory_every": 0}, {"checkpoint_every": 0}]
    )
    def test_cadence_must_be_positive(
        self, tmp_path, lattice8, potential, rate_params, kmc_initial_occ,
        outputs,
    ):
        from repro.kmc.akmc import SerialAKMC

        engine = SerialAKMC(
            lattice8, potential, rate_params, kmc_initial_occ, seed=5
        )
        with pytest.raises(ValueError, match="_every must be >= 1, got 0"):
            engine.run(max_events=5, trajectory=tmp_path / "traj",
                       checkpoint_path=tmp_path / "ckpt.npz", **outputs)
        assert engine.events == 0

    def test_parallel_rejects_writer_objects(
        self, tmp_path, lattice8, potential, rate_params, kmc_initial_occ
    ):
        from repro.kmc.akmc import ParallelAKMC

        writer = TrajectoryWriter(tmp_path / "traj", lattice8)
        engine = ParallelAKMC(
            lattice8, potential, rate_params, nranks=2, seed=5
        )
        with pytest.raises(TypeError, match="PathLike"):
            engine.run(kmc_initial_occ, max_cycles=2, trajectory=writer)

    def test_parallel_run_records_global_frames(
        self, tmp_path, lattice8, potential, rate_params, kmc_initial_occ,
        world_backend,
    ):
        from repro.kmc.akmc import ParallelAKMC

        store = tmp_path / "traj"
        result = ParallelAKMC(
            lattice8, potential, rate_params, nranks=4, seed=5, **world_backend
        ).run(kmc_initial_occ, max_cycles=6, trajectory=store)
        finalize_store(store)
        reader = TrajectoryReader(store)
        assert len(reader) == 6  # one frame per cycle
        np.testing.assert_array_equal(reader.frame(-1), result.occupancy)
        assert reader.time_of(-1) == result.time
        # Conservation in every recorded frame.
        nvac = int((kmc_initial_occ == 0).sum())
        for i in range(len(reader)):
            assert len(reader.vacancy_ranks(i)) == nvac


    def test_parallel_fence_cycle_gathers_once(
        self, tmp_path, lattice8, potential, rate_params, kmc_model8,
        world_backend,
    ):
        """A cycle that is both a frame and a checkpoint fence gathers
        the global state once: frames plus checkpoints cost what frames
        alone cost, the store holds the frames it holds when they are
        the only output, and the checkpoint the bytes it holds when it
        is."""
        from repro.kmc.akmc import ParallelAKMC, place_random_vacancies

        occ = place_random_vacancies(kmc_model8, 10, np.random.default_rng(2))

        def collectives(**outputs):
            result = ParallelAKMC(
                lattice8, potential, rate_params, nranks=2, seed=5,
                **world_backend,
            ).run(occ, max_cycles=8, **outputs)
            return result.comm_stats["total_collectives"]

        both = collectives(
            trajectory=tmp_path / "both", trajectory_every=1,
            checkpoint_every=4, checkpoint_path=tmp_path / "both.npz",
        )
        frames = collectives(trajectory=tmp_path / "frames", trajectory_every=1)
        collectives(checkpoint_every=4, checkpoint_path=tmp_path / "ckpt.npz")
        assert both == frames
        stores = {}
        for name in ("both", "frames"):
            finalize_store(tmp_path / name)
            frames = list(TrajectoryReader(tmp_path / name).iter_frames())
            sidecar = json.loads((tmp_path / name / "shard-00000.json").read_text())
            ends = [c["frame0"] + c["nframes"] for c in sidecar["chunks"]]
            stores[name] = frames, ends
        assert len(stores["both"][0]) == len(stores["frames"][0]) == 8
        for (t_a, f_a), (t_b, f_b) in zip(stores["both"][0], stores["frames"][0]):
            assert t_a == t_b
            np.testing.assert_array_equal(f_a, f_b)
        # The durability fence flushes the store before each checkpoint
        # publishes, so only there do the two stores' chunks differ.
        assert (stores["both"][1], stores["frames"][1]) == ([4, 8], [8])
        with np.load(tmp_path / "both.npz") as a, np.load(
            tmp_path / "ckpt.npz"
        ) as b:
            assert a.files == b.files
            for key in b.files:
                np.testing.assert_array_equal(a[key], b[key])


def _coupled_config(trajectory=None, checkpoint_dir=None, **overrides):
    from repro.service.spec import ScenarioSpec

    base = dict(
        cells=8,
        seed=3,
        md_steps=60,
        pka_energy=120.0,
        kmc_nranks=2,
        kmc_max_cycles=8,
        table_points=500,
    )
    return ScenarioSpec(**(base | overrides)).to_coupled_config(
        trajectory=trajectory, checkpoint_dir=checkpoint_dir
    )


class TestCoupledStore:
    """The coupled pipeline streams its trajectory and survives faults."""

    @pytest.fixture(scope="class")
    def fault_free_runs(self, tmp_path_factory):
        from repro.core.coupling import CoupledSimulation

        @functools.cache
        def run(backend, workers):
            store = tmp_path_factory.mktemp("coupled") / "traj"
            result = CoupledSimulation(
                _coupled_config(
                    trajectory=str(store), backend=backend, workers=workers
                )
            ).run()
            return result, store

        return run

    @pytest.fixture()
    def fault_free(self, fault_free_runs, world_backend):
        return fault_free_runs(**world_backend)

    def test_store_brackets_the_run(self, fault_free):
        result, store = fault_free
        reader = TrajectoryReader(store)
        assert reader.final
        assert result.trajectory_frames == len(reader)
        # Frame 0 is the post-MD damage state; the last frame is the
        # final KMC state — exactly the two panels of Figure 17.
        np.testing.assert_array_equal(
            reader.vacancy_ranks(0), result.vacancies_after_md
        )
        np.testing.assert_array_equal(
            reader.vacancy_ranks(len(reader) - 1),
            result.vacancies_after_kmc,
        )
        assert reader.time_of(0) == 0.0
        assert reader.time_of(-1) == result.kmc_time
        times = [reader.time_of(i) for i in range(len(reader))]
        assert times == sorted(times)

    def test_faulted_run_leaves_identical_store(
        self, fault_free, tmp_path, world_backend
    ):
        # Acceptance: crash -> checkpoint recovery -> the store ends
        # bit-identical to a fault-free run's store.
        from repro.core.coupling import CoupledSimulation

        _, ref_store = fault_free
        store = tmp_path / "traj"
        result = CoupledSimulation(
            _coupled_config(
                trajectory=str(store),
                faults="crash:rank=1,cycle=5",
                checkpoint_every=2,
                checkpoint_dir=str(tmp_path),
                **world_backend,
            )
        ).run()
        assert result.recoveries == 1
        ref = TrajectoryReader(ref_store)
        got = TrajectoryReader(store)
        assert len(got) == len(ref)
        np.testing.assert_array_equal(got.times, ref.times)
        for i in range(len(ref)):
            np.testing.assert_array_equal(got.frame(i), ref.frame(i))

    def test_clustering_report_from_store(self, fault_free):
        from repro.core.clusters import (
            clustering_report,
            clustering_report_from_store,
        )

        result, store = fault_free
        reader = TrajectoryReader(store)
        direct = clustering_report(
            reader.lattice, result.vacancies_after_kmc
        )
        assert clustering_report_from_store(reader, -1) == direct
        assert clustering_report_from_store(store, -1) == direct

    def test_clustering_report_from_store_frame_bounds(self, fault_free):
        # Regression: -(n+1) used to be shifted to -1 and silently
        # analyse the last frame.
        from repro.core.clusters import (
            clustering_report,
            clustering_report_from_store,
        )

        result, store = fault_free
        reader = TrajectoryReader(store)
        n = len(reader)
        assert n >= 2
        first = clustering_report(reader.lattice, result.vacancies_after_md)
        assert clustering_report_from_store(reader, -n) == first
        assert clustering_report_from_store(reader, 0) == first
        for bad in (-(n + 1), n):
            with pytest.raises(IndexError):
                clustering_report_from_store(reader, bad)


#: A parallel and a serial KMC stage long enough to commit several
#: 16-frame chunks (``DEFAULT_CHUNK_FRAMES``) on each side of a fence.
_PARALLEL = dict(kmc_max_cycles=50)
_SERIAL = dict(kmc_nranks=None, kmc_max_events=100)

#: Crashes whose recovered store must equal the fault-free run's byte for
#: byte: (stage, fault plan, checkpoint cadence).  A crash at cycle (or
#: event) N fires before cycle N runs, after the checkpoint taken with N
#: cycles complete, so at cycle 40 it would resume from 40.  At cycle 39
#: the attempt resumes from cycle 20, and the chunk of frames 21..36
#: it committed meanwhile is already in the store; cadence 45 means no
#: checkpoint precedes the crash, so the attempt replays from the start
#: over two committed chunks; the serial crash at event 70 has a partial
#: chunk (61..70) buffered.
RECOVERED_STORES = {
    "parallel-rank1": (_PARALLEL, "crash:rank=1,cycle=39", 20),
    "parallel-rank0": (_PARALLEL, "crash:rank=0,cycle=39", 20),
    "parallel-replay": (_PARALLEL, "crash:rank=1,cycle=40", 45),
    "serial-replay": (_SERIAL, "crash:rank=0,event=40", 45),
    "serial-partial": (_SERIAL, "crash:rank=0,event=70", 20),
    "parallel-every3": (
        _PARALLEL | dict(trajectory_every=3), "crash:rank=1,cycle=39", 20,
    ),
    "serial-every3": (
        _SERIAL | dict(trajectory_every=3), "crash:rank=0,event=70", 20,
    ),
}


class TestRecoveredStoreBytes:
    """Recovery only appends: the writer's frame fence skips what the
    store holds, and the resumed attempt's next chunk starts where the
    fault-free run's does, so both shard files match byte for byte."""

    @pytest.fixture(scope="class")
    def fault_free(self, tmp_path_factory):
        """The fault-free store's (bin, json) bytes, once per stage and
        backend."""
        from repro.core.coupling import CoupledSimulation

        cache = {}

        def run(stage, checkpoint_every, world):
            key = (tuple(sorted((stage | world).items())), checkpoint_every)
            if key not in cache:
                store = tmp_path_factory.mktemp("fault-free") / "traj"
                CoupledSimulation(
                    _coupled_config(
                        trajectory=str(store),
                        checkpoint_every=checkpoint_every,
                        **stage,
                        **world,
                    )
                ).run()
                cache[key] = _shard_bytes(store)
            return cache[key]

        return run

    @pytest.mark.parametrize("case", RECOVERED_STORES)
    def test_recovered_store_is_byte_identical(
        self, case, fault_free, tmp_path, world_backend
    ):
        from repro.core.coupling import CoupledSimulation

        stage, faults, every = RECOVERED_STORES[case]
        if case.startswith("serial") and world_backend["backend"] != "thread":
            pytest.skip("the serial KMC engine starts no world")
        store = tmp_path / "traj"
        result = CoupledSimulation(
            _coupled_config(
                trajectory=str(store),
                faults=faults,
                checkpoint_every=every,
                **stage,
                **world_backend,
            )
        ).run()
        assert result.recoveries == 1
        assert _shard_bytes(store) == fault_free(stage, every, world_backend)


def _shard_bytes(store):
    return tuple(
        (store / f"shard-00000.{ext}").read_bytes() for ext in ("bin", "json")
    )
