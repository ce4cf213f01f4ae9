"""What a fresh interpreter pays: the import graph stays NumPy-only,
and a run loads only the modules it executes.

Every check runs in a new subprocess — inside the pytest process
everything is already imported, so nothing could be observed.  The
budgets are exact ``sys.modules`` sets, not timings.
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
run_job = worker.run_job

def on_entry(spec_dict, staging, root):
    with open(root + "/on_entry.json", "w") as fh:
        json.dump("repro.core.coupling" in sys.modules, fh)
    run_job(spec_dict, staging, root)

# run_service forks the module attribute, so the forked child runs this.
worker.run_job = on_entry
spec = ScenarioSpec(cells=5, md_steps=5, kmc_max_events=5, table_points=300)
with tempfile.TemporaryDirectory() as root:
    (record,) = run_service(root, [spec], workers=1)
    with open(root + "/on_entry.json") as fh:
        on_worker_entry = json.load(fh)
print(json.dumps({
    "at_service_import": at_service_import,
    "on_worker_entry": on_worker_entry,
    "state": record.state,
    "mode": record.mode,
}))
"""


#: Every probe below ends by printing the ``repro`` modules it loaded.
_LOADED = """
def loaded():
    return sorted(m for m in sys.modules if m == "repro" or m.startswith("repro."))
"""

_STREAM_PROBE = _LOADED + """
import json, sys, tempfile
import numpy as np
from repro.core.clusters import clustering_report_from_store
from repro.io.store import TrajectoryReader, finalize_store
from repro.kmc.akmc import SerialAKMC
from repro.kmc.events import VACANCY
from repro.lattice.bcc import BCCLattice
from repro.potential.fe import make_fe_potential

lattice = BCCLattice(6, 6, 6)
occ = np.ones(lattice.nsites, dtype=np.int8)
occ[::29] = VACANCY
engine = SerialAKMC(lattice, make_fe_potential(n=300), occupancy=occ, seed=3)
constructed = loaded()
with tempfile.TemporaryDirectory() as tmp:
    result = engine.run(
        max_events=60, trajectory=tmp + "/traj", trajectory_every=1,
        checkpoint_every=20, checkpoint_path=tmp + "/kmc.npz",
    )
    finalize_store(tmp + "/traj")
    reader = TrajectoryReader(tmp + "/traj")
    frames = sum(1 for _ in reader.iter_frames())
    report = clustering_report_from_store(reader)
print(json.dumps({
    "constructed": constructed, "ran": loaded(), "frames": frames,
    "events": result.events, "vacancies": report.n_vacancies,
    "multiprocessing": "multiprocessing" in sys.modules,
}))
"""

_CASCADE_PROBE = _LOADED + """
import json, sys
import repro.md.engine
from repro.lattice.bcc import BCCLattice
from repro.md.cascade import CascadeConfig, run_cascade
from repro.md.engine import MDConfig, MDEngine
from repro.potential.fe import make_fe_potential

engine = MDEngine(BCCLattice(5, 5, 5), make_fe_potential(n=300),
                  MDConfig(temperature=300.0, seed=1))
result = run_cascade(engine, CascadeConfig(pka_energy=200.0, nsteps=5))
print(json.dumps({"ran": loaded(), "steps": len(result.energy_trace)}))
"""

_CASCADE_COMMAND_PROBE = _LOADED + """
import contextlib, io, json, sys
from repro.cli import main

out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = main(["cascade", "--cells", "5", "--steps", "5"])
print(json.dumps({"ran": loaded(), "code": code, "out": out.getvalue()}))
"""

_COUPLED_PROBE = _LOADED + """
import json, sys
from repro.core.coupling import CoupledSimulation
from repro.service.spec import ScenarioSpec

spec = ScenarioSpec(cells=5, md_steps=20, kmc_max_events=5, table_points=300)
result = CoupledSimulation(spec.to_coupled_config()).run()
print(json.dumps({"ran": loaded(), "events": result.kmc_events}))
"""

_SPEC_PROBE = _LOADED + """
import json, sys
from repro.service.spec import ScenarioSpec
ScenarioSpec(cells=5, md_steps=5, kmc_max_events=5).key()
print(json.dumps({"ran": loaded(),
                  "multiprocessing": "multiprocessing" in sys.modules}))
"""

_MACHINE_PROBE = _LOADED + """
import json, sys
from repro.perfmodel.machine import TAIHULIGHT
print(json.dumps({"ran": loaded(), "cores": TAIHULIGHT.total_cores}))
"""

_WORLD_PROBE = _LOADED + """
import json, sys
from repro.runtime.simmpi import World
total = World(2, backend="{backend}").run(
    lambda comm: comm.allreduce(comm.rank + 1))
mp = sorted(m for m in sys.modules if m.startswith("multiprocessing."))
print(json.dumps({{"ran": loaded(), "total": total, "multiprocessing": mp}}))
"""


def _under(modules: list[str], *prefixes: str) -> list[str]:
    """The loaded modules at or below any of the dotted ``prefixes``."""
    return [
        m for m in modules
        if any(m == p or m.startswith(p + ".") for p in prefixes)
    ]


#: What a run does not configure it does not load: the registry, report
#: and trace behind ``repro.observe`` (observation is off).
_NOT_CONFIGURED = (
    ("repro.observe.registry", "repro.observe.report", "repro.observe.trace"),
)


def _run(code: str) -> dict:
    env = dict(os.environ, PYTHONPATH=_SRC)
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
    extra = set(seen["third_party"]) - {"numpy"}
    assert not extra, f"import {module} pulled in {sorted(extra)}"
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
    # A warm call runs no job, so importing the service stays cheap;
    # run_service pays the import once, before forking.
    assert seen["at_service_import"] is False
    assert seen["on_worker_entry"] is True


def test_serial_kmc_with_store_and_checkpoints_loads_no_parallel_stack():
    """The ``stream_io`` shape: serial KMC streaming into the store with
    checkpoints, then the out-of-core read-back and clustering report."""
    seen = _run(_STREAM_PROBE)
    assert seen["events"] == 60 and seen["frames"] == 60
    assert seen["vacancies"] > 0
    assert not _under(
        seen["ran"],
        "repro.md", "repro.runtime", "repro.service", "repro.core.coupling",
        "repro.kmc.comm", "repro.kmc.ondemand", "repro.kmc.onesided",
        "repro.kmc.sublattice", "repro.lattice.domain", "repro.kernels",
    )
    assert not seen["multiprocessing"]
    assert "repro.observe.api" in seen["ran"]
    for unconfigured in _NOT_CONFIGURED:
        assert not _under(seen["ran"], *unconfigured)
    # Removal, not deferral: the run itself imports nothing.
    assert seen["ran"] == seen["constructed"]


def test_serial_cascade_loads_no_comparator_or_parallel_md():
    seen = _run(_CASCADE_PROBE)
    assert seen["steps"] > 0
    assert not _under(
        seen["ran"],
        "repro.md.neighbors.verlet_list", "repro.md.neighbors.linked_cell",
        "repro.md.neighbors.memory", "repro.md.parallel_damage",
        "repro.runtime", "repro.kmc", "repro.io", "repro.kernels",
    )
    assert "repro.observe.api" in seen["ran"]
    for unconfigured in _NOT_CONFIGURED:
        assert not _under(seen["ran"], *unconfigured)


def test_cascade_command_loads_the_md_stack_only():
    """``repro cascade`` runs the MD stage of its spec and nothing else:
    no coupled pipeline, KMC engine, store or message runtime."""
    seen = _run(_CASCADE_COMMAND_PROBE)
    assert seen["code"] == 0 and "vacancies" in seen["out"]
    assert "repro.md.cascade" in seen["ran"]
    assert not _under(
        seen["ran"],
        "repro.core.coupling", "repro.kmc", "repro.io", "repro.runtime",
    )


def test_serial_coupled_run_loads_no_message_runtime():
    seen = _run(_COUPLED_PROBE)
    assert seen["events"] == 5
    assert _under(seen["ran"], "repro.runtime") == [
        "repro.runtime", "repro.runtime.faults",
    ]


def test_scenario_spec_loads_no_scheduler():
    seen = _run(_SPEC_PROBE)
    assert _under(seen["ran"], "repro.service") == [
        "repro.service", "repro.service.spec",
    ]
    assert not seen["multiprocessing"]


def test_machine_model_loads_no_engine():
    """What ``repro info`` imports: the machine description only — the
    package facades re-export nothing, so no engine or runtime loads."""
    seen = _run(_MACHINE_PROBE)
    assert seen["cores"] > 0
    assert set(seen["ran"]) <= {
        "repro", "repro.constants", "repro.perfmodel",
        "repro.perfmodel.machine", "repro.sunway", "repro.sunway.arch",
    }


def test_thread_world_loads_no_process_backend():
    seen = _run(_WORLD_PROBE.format(backend="thread"))
    assert seen["total"] == [3, 3]
    assert not _under(seen["ran"], "repro.runtime.procbackend", "repro.kernels")
    # Forked ranks exchange bytes through their queues only: no
    # shared-memory segment, so no resource-tracker interpreter.
    forked = _run(_WORLD_PROBE.format(backend="process"))
    assert forked["total"] == [3, 3]
    assert "multiprocessing.resource_tracker" not in forked["multiprocessing"]
