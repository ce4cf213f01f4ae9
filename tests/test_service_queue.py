"""Durable job submission: unique ids, complete records, no leftovers."""

import json
import threading

from repro.service.queue import JobQueue
from repro.service.spec import ScenarioSpec


def _payload(root, job_id):
    return json.loads((root / "queue" / f"{job_id}.json").read_text())


class TestSubmit:
    def test_submit_is_durable_and_reloadable(self, tmp_path):
        spec = ScenarioSpec(cells=6, seed=7)
        job_id = JobQueue(tmp_path).submit(spec)
        assert job_id == "job-000001"
        # The record on disk holds the full spec and its key.
        payload = _payload(tmp_path, job_id)
        assert ScenarioSpec.from_dict(payload["spec"]) == spec
        assert payload["key"] == spec.key()

    def test_ids_are_sequential(self, tmp_path):
        queue = JobQueue(tmp_path)
        ids = [queue.submit(ScenarioSpec(seed=s)) for s in (1, 2, 3)]
        assert ids == ["job-000001", "job-000002", "job-000003"]

    def test_identical_specs_get_distinct_jobs(self, tmp_path):
        queue = JobQueue(tmp_path)
        spec = ScenarioSpec(seed=7)
        a = queue.submit(spec)
        b = queue.submit(spec)
        assert a != b
        assert _payload(tmp_path, a) == _payload(tmp_path, b)

    def test_concurrent_submitters_never_collide(self, tmp_path):
        ids, errors = [], []
        lock = threading.Lock()

        def submitter(seed):
            try:
                job_id = JobQueue(tmp_path).submit(ScenarioSpec(seed=seed))
                with lock:
                    ids.append(job_id)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=submitter, args=(s,)) for s in range(16)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert len(set(ids)) == 16
        on_disk = sorted(p.stem for p in (tmp_path / "queue").iterdir())
        assert on_disk == sorted(ids)
        seeds = {_payload(tmp_path, job_id)["spec"]["seed"] for job_id in ids}
        assert seeds == set(range(16))

    def test_no_temp_files_left_behind(self, tmp_path):
        JobQueue(tmp_path).submit(ScenarioSpec())
        leftovers = [
            p.name for p in (tmp_path / "queue").iterdir()
            if not p.name.startswith("job-")
        ]
        assert leftovers == []

    def test_payload_carries_no_id(self, tmp_path):
        # The slot name IS the id; the payload must not duplicate it.
        job_id = JobQueue(tmp_path).submit(ScenarioSpec())
        payload = _payload(tmp_path, job_id)
        assert "job_id" not in payload
        assert "id" not in payload


class TestReadUpdate:
    def test_jobs_in_submission_order(self, tmp_path):
        queue = JobQueue(tmp_path)
        for seed in (5, 3, 9):
            queue.submit(ScenarioSpec(seed=seed))
        names = sorted(p.stem for p in (tmp_path / "queue").iterdir())
        seeds = [_payload(tmp_path, name)["spec"]["seed"] for name in names]
        assert seeds == [5, 3, 9]
