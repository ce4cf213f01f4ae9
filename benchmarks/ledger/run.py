"""The benchmark ledger command.

    python benchmarks/ledger/run.py [--workload NAME] [--seed N]
        [--seconds S] [--trace [0|1]] [--quick] [--out FILE]

Runs the six pinned workloads (or one), each in a fresh child
interpreter (``child.py``), prints every metric by name with its unit,
checks the outputs, and exits non-zero on a correctness failure.  With
``--workload`` the last line of standard output is the driver's JSON
object: the bounded end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  See ``README.md`` beside this
file for the protocol and the metric tables.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

import metrics as M  # noqa: E402

#: Fresh interpreters set up per run, half of them before the measuring
#: child and half after it; ``setup_s`` is their median.
SETUP_SAMPLES = 9
#: A driver run must end within 180 s; leave room to report.
CHILD_TIMEOUT_S = 170.0
SCHEMA = 1


def child_env(workdir: Path) -> dict:
    """The child's environment: hermetic with respect to ``REPRO_*``.

    Every ``REPRO_*`` variable (backend, workers, kernels, shm, sanitize,
    bench phases, ...) is scrubbed so ambient settings cannot change
    what is measured, and ``TMPDIR`` points into the work directory so
    the program's own temporary files stay inside it.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    src = str(ROOT / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    tmp = workdir / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env["TMPDIR"] = str(tmp)
    return env


def run_child(workload: str, args, workdir: Path, env: dict, *,
              setup_only: bool, deadline: float) -> dict:
    """One fresh interpreter; returns its result dict."""
    scratch = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=workdir))
    result = scratch / "result.json"
    cmd = [
        sys.executable, str(HERE / "child.py"),
        "--workload", workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--quick", str(int(args.quick)), "--workdir", str(scratch),
        "--result", str(result), "--setup-only", str(int(setup_only)),
        "--corrupt-digest", str(int(args.corrupt_digest == workload)),
        "--t0", repr(time.perf_counter()),
    ]
    # The child's stdout is the program's chatter; ours is the report.
    # Its own session, so that on a timeout every rank process and
    # service worker it started can be stopped with it.
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=sys.stderr,
                            start_new_session=True)
    try:
        code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        if code != 0 or not result.exists():
            return {"error": f"child exited with code {code}"}
        return json.loads(result.read_text())
    except subprocess.TimeoutExpired:
        return {"error": "child timed out"}
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        shutil.rmtree(scratch, ignore_errors=True)


def run_workload(workload: str, args, workdir: Path, env: dict) -> dict:
    """Set-up samples around the measuring child; returns the ledger entry."""
    deadline = time.monotonic() + CHILD_TIMEOUT_S
    load = os.getloadavg()[0]
    extra = 0 if args.quick else SETUP_SAMPLES - 1
    setups = []
    res = None
    for i in range(extra + 1):
        measuring = i == extra // 2
        child = run_child(workload, args, workdir, env,
                          setup_only=not measuring, deadline=deadline)
        if "error" in child:
            return child
        setups.append(child.pop("setup_s"))
        if measuring:
            res = child
    res["loadavg_1m"] = load
    res["setup_samples_s"] = setups
    e2e = res["end_to_end"]
    e2e["setup_s"] = statistics.median(setups)
    e2e["peak_rss_mb"] = res.pop("peak_rss_mb")
    res["end_to_end"] = {
        name: {"value": value, "unit": M.E2E[name].unit}
        for name, value in e2e.items()
    }
    if "per_layer" in res:
        units = {m.name: m.unit for m in (*M.PER_LAYER, *M.OPTIONAL_PROBES)}
        res["per_layer"] = {
            name: {"value": value, "unit": units[name]}
            for name, value in res["per_layer"].items()
        }
    return res


def host_env(children: dict) -> dict:
    """What the numbers were measured on."""
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = None
    model = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    env = {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "git_commit": commit,
    }
    env.update(children)
    return env


def driver_line(workload: str, entry: dict, trace: int) -> str:
    """The protocol's last line for one workload.

    The driver wants every manifest metric on every workload; a row
    not declared for this workload (``metrics.py``) is code the pass
    never enters, and is reported as an explicit 0.  A declared row
    the entry lacks is a bug and raises.
    """
    if trace:
        source = {**entry["end_to_end"], **entry["per_layer"]}
        metrics = {}
        for row in M.manifest()["per_layer"]:
            table = M.LAYER.get(row["name"]) or M.E2E[row["name"]]
            value = (source[table.name]["value"]
                     if workload in table.workloads else 0.0)
            metrics[table.name] = {"value": value, "unit": table.unit}
    else:
        metrics = {row["name"]: entry["end_to_end"][row["name"]]
                   for row in M.manifest()["end_to_end"]}
    return json.dumps({
        "correct": entry["failed"] == 0,
        "attempted": entry["attempted"],
        "failed": entry["failed"],
        "metrics": metrics,
    })


def report(name: str, entry: dict) -> None:
    print(f"== {name}: {entry['passes']} timed passes, "
          f"{len(entry['setup_samples_s'])} set-ups, "
          f"failed {entry['failed']}/{entry['attempted']}")
    for section in ("end_to_end", "per_layer"):
        for metric, cell in entry.get(section, {}).items():
            value = cell["value"]
            shown = "null" if value is None else f"{value:.6g}"
            print(f"{name:18s} {metric:40s} {shown:>14s} {cell['unit']}")
    for check, ok in entry["checks"].items():
        if not ok:
            print(f"{name:18s} CHECK FAILED: {check}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=list(M.WORKLOADS))
    ap.add_argument("--seed", type=int, default=2018)
    ap.add_argument("--seconds", type=float,
                    default=M.manifest()["run_seconds"])
    ap.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                    choices=(0, 1))
    ap.add_argument("--quick", action="store_true",
                    help="tiny sizes, one timed pass: for the self-test only")
    ap.add_argument("--out", help="ledger file; a run is appended to it")
    ap.add_argument("--workdir", help="parent of the run's scratch directory "
                    "(default: .ledger_work in the checkout)")
    ap.add_argument("--corrupt-digest", metavar="WORKLOAD",
                    help="self-test: corrupt one digest of this workload")
    args = ap.parse_args(argv)
    if args.quick:
        args.seconds = 0.0
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"ledger: no src/repro under {ROOT}; nothing to measure",
              file=sys.stderr)
        return 2

    base = Path(args.workdir) if args.workdir else ROOT / ".ledger_work"
    base.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=base))
    load = os.getloadavg()
    names = [args.workload] if args.workload else list(M.WORKLOADS)
    entries: dict[str, dict] = {}
    try:
        env = child_env(workdir)
        for name in names:
            entries[name] = run_workload(name, args, workdir, env)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if not args.workdir and not any(base.iterdir()):
            base.rmdir()

    status = 0
    children = {}
    for name, entry in entries.items():
        if "error" in entry:
            print(f"== {name}: ERROR\n{entry['error']}", file=sys.stderr)
            status = 1
            continue
        children = entry.pop("env")
        report(name, entry)
        if entry["failed"]:
            status = 1
    if args.out:
        run = {
            "env": {**host_env(children), "loadavg_at_start": load},
            "seed": args.seed, "run_seconds": args.seconds,
            "quick": args.quick, "trace": args.trace,
            "workloads": entries,
        }
        out = Path(args.out)
        ledger = {"schema": SCHEMA, "runs": []}
        if out.exists():
            ledger = json.loads(out.read_text())
            if ledger.get("schema") != SCHEMA:
                print(f"ledger: {out} is not a schema-{SCHEMA} ledger",
                      file=sys.stderr)
                return 2
        ledger["runs"].append(run)
        out.write_text(json.dumps(ledger, indent=1) + "\n")
    if args.workload:
        entry = entries[args.workload]
        if "error" in entry:
            return 1
        print(driver_line(args.workload, entry, args.trace))
    return status


if __name__ == "__main__":
    sys.exit(main())
