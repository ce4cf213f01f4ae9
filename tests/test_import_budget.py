"""What a fresh interpreter pays: the import graph stays NumPy-only.

Every check runs in a new subprocess — inside the pytest process
everything is already imported, so nothing could be observed.
"""

import json
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

_SRC = str(Path(repro.__file__).resolve().parents[1])

_IMPORT_PROBE = """
import json, sys
before = set(sys.modules)
import {module}
new = set(sys.modules) - before
tops = {{name.partition(".")[0] for name in new}}
# multiprocessing registers __main__ a second time as __mp_main__.
third_party = sorted(
    t for t in tops
    if t not in sys.stdlib_module_names and t not in ("repro", "__mp_main__")
)
print(json.dumps({{
    "third_party": third_party,
    "metadata": "importlib.metadata" in sys.modules,
}}))
"""

_FORK_PROBE = """
import json, sys, tempfile
import repro.service
from repro.service import ScenarioSpec, run_service, worker

at_service_import = "repro.core.coupling" in sys.modules

def target(spec_dict, staging, root, obs_path=None, attempt=1):
    with open(root + "/on_entry.json", "w") as fh:
        json.dump("repro.core.coupling" in sys.modules, fh)
    worker.run_job(spec_dict, staging, root, obs_path, attempt)

spec = ScenarioSpec(cells=5, md_steps=5, kmc_max_events=5, table_points=300)
with tempfile.TemporaryDirectory() as root:
    (record,) = run_service(root, [spec], workers=1, target=target)
    with open(root + "/on_entry.json") as fh:
        on_worker_entry = json.load(fh)
print(json.dumps({
    "at_service_import": at_service_import,
    "on_worker_entry": on_worker_entry,
    "state": record.state,
    "mode": record.mode,
}))
"""


def _run(code: str) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = _SRC
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize(
    "module",
    [
        "repro.core",
        "repro.service",
        "repro.kmc.akmc",
        "repro.md.engine",
        "repro.io.store",
    ],
)
def test_entry_point_imports_only_numpy(module):
    seen = _run(_IMPORT_PROBE.format(module=module))
    # numba is the one optional accelerator; it brings llvmlite along.
    extra = set(seen["third_party"]) - {"numpy", "numba", "llvmlite"}
    assert not extra, f"import {module} pulled in {sorted(extra)}"
    if "numba" not in seen["third_party"]:
        # Entry-point scanning (what made the graph library slow to
        # import) lives here; nothing of ours may need it at import.
        assert not seen["metadata"]


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="module inheritance is a property of the fork start method",
)
def test_forked_worker_inherits_the_execution_stack():
    seen = _run(_FORK_PROBE)
    assert seen["state"] == "done" and seen["mode"] == "executed"
    # status/submit/result never run a job, so importing the service
    # stays cheap; the scheduler pays the import once, before forking.
    assert seen["at_service_import"] is False
    assert seen["on_worker_entry"] is True
