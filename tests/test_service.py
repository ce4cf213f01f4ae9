"""Service-layer acceptance tests: dedup, cache hits, crash retries.

The cache-hit contract of the issue, end to end:

* identical specs submitted concurrently execute **once** and publish
  bit-identical deterministic artifacts;
* a spec differing only in its seed misses the cache;
* a worker crash mid-job is retried (bounded attempts) and the final
  published store is bit-identical to a fault-free run's.
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
    ServiceClient,
    ServiceError,
    ServicePool,
    run_service,
)
from repro.service import worker as worker_mod
from repro.service.cache import MANIFEST_NAME
from repro.service.scheduler import summarize

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="crash-injection targets require the fork start method",
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


# Module-level so the fork-context Process can target them.
def _crash_first_attempt(spec_dict, staging, root, obs_path=None, attempt=1):
    if attempt == 1:
        # Leave a partial staging dir behind, then die without notice —
        # the harshest crash the scheduler must absorb.
        (Path(staging) / "partial.bin").write_bytes(b"\x00" * 64)
        os._exit(17)
    worker_mod.run_job(spec_dict, staging, root, obs_path, attempt)


def _always_crash(spec_dict, staging, root, obs_path=None, attempt=1):
    os._exit(23)


class TestDedupAndCache:
    def test_identical_specs_execute_once_bit_identical(self, tmp_path):
        spec = _spec()
        root_a = tmp_path / "a"
        records = run_service(root_a, [spec, spec], workers=2)
        assert [r.state for r in records] == [DONE, DONE]
        assert records[0].mode == "executed"
        assert records[1].mode in ("attached", "cached")
        stats = summarize(records)
        assert stats["executions"] == 1
        assert stats["deduplicated"] == 1
        entry_a = ResultCache(root_a).lookup(spec.key())
        assert entry_a is not None
        # Both jobs resolve to the same artifacts.
        client = ServiceClient(root_a)
        results = [client.result(r.job_id) for r in records]
        assert results[0].path == results[1].path
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
        stats = summarize(records)
        assert stats["executions"] == 2
        assert stats["deduplicated"] == 0
        cache = ResultCache(tmp_path)
        assert cache.lookup(specs[0].key()) is not None
        assert cache.lookup(specs[1].key()) is not None

    def test_resubmission_is_a_cache_hit(self, tmp_path):
        spec = _spec()
        run_service(tmp_path, [spec], workers=1)
        records = run_service(tmp_path, [spec], workers=1)
        assert records[0].state == DONE
        assert records[0].mode == "cached"
        # Exactly one entry ever existed: nothing re-executed.
        stats = summarize(records)
        assert stats["executions"] == 0

    def test_observe_snapshot_streams_to_done(self, tmp_path):
        spec = _spec()
        records = run_service(tmp_path, [spec], workers=1)
        snapshot = ServiceClient(tmp_path).observe_snapshot(
            records[0].job_id
        )
        assert snapshot is not None
        assert snapshot["stage"] == "done"
        assert "counters" in snapshot or "phases" in snapshot


class TestCrashRetry:
    @needs_fork
    def test_crash_mid_job_retried_bit_identical(self, tmp_path):
        spec = _spec()
        crashy_root = tmp_path / "crashy"
        records = run_service(
            crashy_root, [spec], workers=1, target=_crash_first_attempt
        )
        assert records[0].state == DONE
        assert records[0].attempts == 2  # one crash, one success
        assert summarize(records)["retries"] == 1
        # The crashed attempt's staging dir was discarded, not published.
        assert list((crashy_root / "tmp").iterdir()) == []
        clean_root = tmp_path / "clean"
        run_service(clean_root, [spec], workers=1)
        assert _det_artifacts(
            ResultCache(crashy_root).lookup(spec.key())
        ) == _det_artifacts(ResultCache(clean_root).lookup(spec.key()))

    @needs_fork
    def test_attempts_are_bounded(self, tmp_path):
        spec = _spec()
        records = run_service(
            tmp_path, [spec, spec], workers=1,
            max_attempts=2, target=_always_crash,
        )
        assert [r.state for r in records] == [FAILED, FAILED]
        assert all(r.attempts == 2 for r in records)
        assert "exit code 23" in records[0].error
        assert ResultCache(tmp_path).lookup(spec.key()) is None
        with pytest.raises(ServiceError, match="failed"):
            ServiceClient(tmp_path).result(records[0].job_id)

    @needs_fork
    def test_orphaned_staging_swept_on_next_scheduler(self, tmp_path):
        cache = ResultCache(tmp_path)
        leftover = cache.open_staging("deadbeef" * 8)
        (leftover / "junk.bin").write_bytes(b"\xff" * 32)
        ServicePool(tmp_path, workers=1)  # init sweeps tmp/
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
    def test_wait_times_out_without_scheduler(self, tmp_path):
        client = ServiceClient(tmp_path)
        record = client.submit(_spec())
        with pytest.raises(ServiceError, match=record.job_id):
            client.wait(timeout=0.2, poll=0.05)

    def test_result_of_pending_job_raises(self, tmp_path):
        client = ServiceClient(tmp_path)
        record = client.submit(_spec())
        with pytest.raises(ServiceError, match="pending"):
            client.result(record.job_id)

    def test_missing_artifact_raises(self, tmp_path):
        spec = _spec()
        records = run_service(tmp_path, [spec], workers=1)
        result = ServiceClient(tmp_path).result(records[0].job_id)
        assert result.artifact("result.json").is_file()
        with pytest.raises(ServiceError, match="unobtainium"):
            result.artifact("unobtainium.npy")

    def test_pool_validation(self, tmp_path):
        with pytest.raises(ValueError, match="workers"):
            ServicePool(tmp_path, workers=0)
        with pytest.raises(ValueError, match="max_attempts"):
            ServicePool(tmp_path, max_attempts=0)

    def test_queue_visible_across_handles(self, tmp_path):
        # Submission from one handle, scheduling from another: the disk
        # is the only shared state.
        ServiceClient(tmp_path).submit(_spec())
        assert JobQueue(tmp_path).counts()["pending"] == 1
