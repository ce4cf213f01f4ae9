"""Service-layer acceptance tests: dedup, cache hits, worker death.

The cache-hit contract, end to end:

* identical specs in one batch execute **once** and publish
  bit-identical deterministic artifacts;
* a spec differing only in its seed misses the cache;
* a warm call only looks its keys up;
* a worker that dies fails its jobs and publishes nothing, and the next
  call re-executes the key bit-identically to a fault-free run.
"""

import json
import multiprocessing
import os
from pathlib import Path

import pytest

from repro.service import (
    DONE,
    FAILED,
    JobQueue,
    ResultCache,
    ScenarioSpec,
    ServiceError,
    run_service,
)
from repro.service import worker as worker_mod
from repro.service.cache import MANIFEST_NAME

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="a patched worker reaches the child through fork only",
)


def _spec(**kw):
    """A sub-second scenario (serial KMC on the smallest MD-legal box)."""
    base = dict(
        cells=5, md_steps=30, kmc_max_events=25, seed=7,
        table_points=500, trajectory_every=1,
    )
    base.update(kw)
    return ScenarioSpec(**base)


def _det_artifacts(entry):
    """rel path -> raw bytes of every deterministic artifact of an entry."""
    manifest = json.loads((entry / MANIFEST_NAME).read_text())
    return {
        rel: (entry / rel).read_bytes()
        for rel, meta in sorted(manifest["artifacts"].items())
        if meta["deterministic"]
    }


def _listing(root):
    return sorted(str(p.relative_to(root)) for p in root.rglob("*"))


class TestDedupAndCache:
    def test_identical_specs_execute_once_bit_identical(self, tmp_path):
        spec = _spec()
        root_a = tmp_path / "a"
        records = run_service(root_a, [spec, spec], workers=2)
        assert [r.state for r in records] == [DONE, DONE]
        assert [r.mode for r in records] == ["executed", "attached"]
        assert records[0].key == records[1].key == spec.key()
        assert all(r.error is None for r in records)
        entry_a = ResultCache(root_a).lookup(spec.key())
        assert entry_a is not None
        # An independent root reproduces them bit-exactly.
        root_b = tmp_path / "b"
        run_service(root_b, [spec], workers=1)
        entry_b = ResultCache(root_b).lookup(spec.key())
        arts_a, arts_b = _det_artifacts(entry_a), _det_artifacts(entry_b)
        assert set(arts_a) == set(arts_b)
        assert arts_a == arts_b
        # The contract covers the real payloads, not a stray file.
        assert "result.json" in arts_a
        assert "vacancies_after_kmc.npy" in arts_a
        assert any(rel.startswith("trajectory/") for rel in arts_a)

    def test_seed_only_differs_misses_cache(self, tmp_path):
        specs = [_spec(seed=7), _spec(seed=8)]
        assert specs[0].key() != specs[1].key()
        records = run_service(tmp_path, specs, workers=2)
        assert [r.mode for r in records] == ["executed", "executed"]
        cache = ResultCache(tmp_path)
        assert cache.lookup(specs[0].key()) is not None
        assert cache.lookup(specs[1].key()) is not None

    def test_resubmission_is_a_cache_hit(self, tmp_path):
        spec = _spec()
        run_service(tmp_path, [spec], workers=1)
        records = run_service(tmp_path, [spec], workers=1)
        assert records[0].state == DONE
        assert records[0].mode == "cached"

    @needs_fork
    def test_warm_call_is_only_a_lookup(self, tmp_path, monkeypatch):
        spec = _spec()
        run_service(tmp_path, [spec], workers=1)
        before = _listing(tmp_path)

        def no_fork(*args, **kwargs):
            raise AssertionError("a warm call started a process")

        monkeypatch.setattr(
            multiprocessing.get_context("fork"), "Process", no_fork
        )
        records = run_service(tmp_path, [spec] * 3, workers=2)
        assert [(r.state, r.mode) for r in records] == [(DONE, "cached")] * 3
        # Nothing under the root was written.
        assert _listing(tmp_path) == before


class TestCrashRetry:
    @staticmethod
    def _die_in_worker(monkeypatch, deaths):
        def die(spec, workdir):
            # Leave a partial staging dir behind, then die without
            # notice: the harshest crash run_service must absorb.
            with open(deaths, "a") as fh:
                fh.write("died\n")
            (Path(workdir) / "partial.bin").write_bytes(b"\x00" * 64)
            os._exit(17)

        # The forked worker inherits the patched module attribute.
        monkeypatch.setattr(worker_mod, "execute_spec", die)

    @needs_fork
    def test_attempts_are_bounded(self, tmp_path, monkeypatch):
        # A worker that dies fails every job on its key after one
        # attempt: no retry, no cache entry, no staging left behind.
        spec = _spec()
        root = tmp_path / "crashy"
        deaths = tmp_path / "deaths"
        self._die_in_worker(monkeypatch, deaths)
        records = run_service(root, [spec, spec], workers=1)
        assert [(r.state, r.mode) for r in records] == [
            (FAILED, "executed"), (FAILED, "attached"),
        ]
        assert all("exit code 17" in r.error for r in records)
        # One execution for both jobs, and no retry of it.
        assert deaths.read_text() == "died\n"
        assert ResultCache(root).lookup(spec.key()) is None
        assert list((root / "tmp").iterdir()) == []

    @needs_fork
    def test_crash_mid_job_retried_bit_identical(self, tmp_path, monkeypatch):
        # The retry is the next call: it re-executes the miss and
        # publishes what a fault-free root publishes, byte for byte.
        spec = _spec()
        root = tmp_path / "crashy"
        self._die_in_worker(monkeypatch, tmp_path / "deaths")
        (failed,) = run_service(root, [spec], workers=1)
        assert failed.state == FAILED

        monkeypatch.undo()
        (record,) = run_service(root, [spec], workers=1)
        assert (record.state, record.mode) == (DONE, "executed")
        clean_root = tmp_path / "clean"
        run_service(clean_root, [spec], workers=1)
        assert _det_artifacts(
            ResultCache(root).lookup(spec.key())
        ) == _det_artifacts(ResultCache(clean_root).lookup(spec.key()))

    @needs_fork
    def test_reported_error_names_the_exception(self, tmp_path, monkeypatch):
        def fail(spec, workdir):
            raise RuntimeError("no potential for unobtainium")

        monkeypatch.setattr(worker_mod, "execute_spec", fail)
        (record,) = run_service(tmp_path, [_spec()], workers=1)
        assert record.state == FAILED
        assert record.error == "RuntimeError: no potential for unobtainium"
        assert list((tmp_path / "tmp").iterdir()) == []

    def test_orphaned_staging_swept_on_next_scheduler(self, tmp_path):
        cache = ResultCache(tmp_path)
        leftover = cache.open_staging("deadbeef" * 8)
        (leftover / "junk.bin").write_bytes(b"\xff" * 32)
        # A call that executes sweeps tmp/ before it forks.
        run_service(tmp_path, [_spec(md_steps=5, kmc_max_events=5)], workers=1)
        assert not leftover.exists()


class TestExecutionFieldNeutrality:
    def test_fault_plan_publishes_bit_identical_to_fault_free(self, tmp_path):
        # Fault plan + recovery are execution concerns: same key, same
        # deterministic bytes.  Parallel KMC (2 ranks) with a mid-run
        # rank crash recovered from checkpoint.
        base = dict(
            cells=8, md_steps=30, seed=3, table_points=500,
            trajectory_every=1, kmc_nranks=2, kmc_max_cycles=4,
            checkpoint_every=1,
        )
        faulted = ScenarioSpec(**base, faults="crash:rank=1,cycle=2")
        clean = ScenarioSpec(**base)
        assert faulted.key() == clean.key()
        root_f, root_c = tmp_path / "faulted", tmp_path / "clean"
        records = run_service(root_f, [faulted], workers=1)
        assert records[0].state == DONE
        run_service(root_c, [clean], workers=1)
        entry_f = ResultCache(root_f).lookup(faulted.key())
        entry_c = ResultCache(root_c).lookup(clean.key())
        assert _det_artifacts(entry_f) == _det_artifacts(entry_c)
        # The faulted run really did crash and recover.
        run_meta = json.loads((entry_f / "run.json").read_text())
        assert run_meta["recoveries"] == 1


class TestClient:
    def test_pool_validation(self, tmp_path):
        with pytest.raises(ValueError, match="workers"):
            run_service(tmp_path, [_spec()], workers=0)

    def test_missing_artifact_raises(self, tmp_path):
        spec = _spec()
        run_service(tmp_path, [spec], workers=1)
        cache = ResultCache(tmp_path)
        assert "result.json" in cache.manifest(spec.key())["artifacts"]
        with pytest.raises(ServiceError, match="unobtainium"):
            cache.manifest("unobtainium")

    def test_queue_visible_across_handles(self, tmp_path):
        # Submission from two handles: the disk is the only shared state.
        JobQueue(tmp_path).submit(_spec())
        assert JobQueue(tmp_path).submit(_spec()) == "job-000002"
