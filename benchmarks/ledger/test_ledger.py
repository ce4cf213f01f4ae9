"""Self-test of the ledger: ``pytest benchmarks/ledger -q`` (under a minute).

Not collected by tier-1 (``testpaths`` stays ``tests``).  Runs the
command at ``--quick`` sizes twice and checks that the manifest, the
metric tables and what the command emits agree, that exact counts
repeat, and that a corrupted digest fails the run.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import metrics as M  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def run(*argv, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), *argv],
        cwd=cwd, capture_output=True, text=True, timeout=120, check=False,
    )


@pytest.fixture(scope="module")
def manifest():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def two_runs(tmp_path_factory):
    """Two complete quick traced runs of all six workloads."""
    out = tmp_path_factory.mktemp("ledger") / "quick.json"
    for _ in range(2):
        proc = run("--quick", "--trace", "--out", str(out))
        assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(out.read_text())["runs"], proc.stdout


def test_manifest_is_the_metric_table(manifest):
    assert manifest == M.manifest()


def test_manifest_limits_and_names(manifest):
    assert set(manifest) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert 2 <= len(manifest["workloads"]) <= 8
    assert 1 <= len(manifest["end_to_end"]) <= 16
    assert 1 <= len(manifest["per_layer"]) <= 128
    assert len(M.END_TO_END) == 14
    rows = (manifest["workloads"] + manifest["end_to_end"]
            + manifest["per_layer"])
    names = [row["name"] for row in rows]
    assert len(names) == len(set(names))
    for row in rows:
        assert NAME.fullmatch(row["name"]), row
        if "unit" in row:
            assert UNIT.fullmatch(row["unit"]), row
            assert row["better"] in ("lower", "higher")
        else:
            assert len(row["why"]) <= 200 and "\n" not in row["why"]
    # The ISSUE's bounds, never widened; what cannot repeat within
    # them on the reference host is demoted, not loosened.
    issue_bounds = {"wall_s": 0.10, "setup_s": 0.10, "peak_rss_mb": 0.05}
    for metric in M.END_TO_END:
        assert metric.bound == (0.0 if metric.name == "failed_frac"
                                else issue_bounds.get(metric.name, 0.10))
    # The driver's contract keeps setup_s bounded (it cannot be demoted)
    # and caps every bound at 0.25; nothing else is bounded there that
    # is not at the ISSUE's bound.
    for row in manifest["end_to_end"]:
        assert row["bound"] == (M.DRIVER_SETUP_BOUND
                                if row["name"] == "setup_s"
                                else M.E2E[row["name"]].bound)
        assert 0 < row["bound"] <= 0.25
    assert "setup_s" in {row["name"] for row in manifest["end_to_end"]}
    demoted = {m.name for m in M.DEMOTED}
    assert demoted <= {row["name"] for row in manifest["per_layer"]}
    assert demoted | {"setup_s", "failed_frac"} == set(M.E2E)
    assert not any(Path(p).is_absolute() or ".." in p
                   for p in manifest["paths"] + manifest["command"])


def test_every_declared_metric_is_emitted(two_runs, manifest):
    runs, stdout = two_runs
    for run_ in runs:
        assert list(run_["workloads"]) == list(M.WORKLOADS)
        for workload, entry in run_["workloads"].items():
            assert entry["failed"] == 0, entry["checks"]
            assert entry["end_to_end"]["failed_frac"]["value"] == 0
            declared = {m.name for m in M.END_TO_END
                        if workload in m.workloads}
            assert set(entry["end_to_end"]) == declared
            for name, cell in entry["end_to_end"].items():
                assert cell["unit"] == M.E2E[name].unit
                if name != "failed_frac":
                    assert cell["value"] > 0, (workload, name)
            # What the child itself emitted, nothing filled in: exactly
            # the rows declared for this workload, each a number.
            numbers = {name for name, cell in entry["per_layer"].items()
                       if cell["value"] is not None}
            assert numbers == M.produced_on(workload), workload
            for name in numbers:
                cell = entry["per_layer"][name]
                assert cell["unit"] == M.LAYER[name].unit
                assert isinstance(cell["value"], (int, float)), name
            assert entry["per_layer"]["observe.overhead_frac"]["value"] != 0
            shares = sum(entry["per_layer"][f"{layer}.share"]["value"]
                         for layer in ("potential", "lattice", "md", "kernels",
                                       "kmc", "runtime", "io", "service",
                                       "core"))
            shares += entry["per_layer"]["core.unattributed_share"]["value"]
            assert shares == pytest.approx(1.0, abs=0.05), workload
        for name in ("nproc", "affinity", "cpu_model", "python", "numpy",
                     "numba", "kernels", "repro", "git_commit",
                     "loadavg_at_start"):
            assert name in run_["env"]
    # Every manifest row is produced by some workload and printed by name.
    for row in manifest["end_to_end"] + manifest["per_layer"]:
        table = M.LAYER.get(row["name"]) or M.E2E[row["name"]]
        assert table.workloads, row["name"]
        assert table.unit == row["unit"]
        assert re.search(rf"\s{re.escape(row['name'])}\s", stdout), row["name"]


def test_exact_counts_repeat(two_runs):
    runs, _ = two_runs
    assert compare.count_mismatches(runs[:1], runs[1:]) == []
    counted = compare.exact(runs[0]["workloads"]["kmc_parallel"])
    assert counted["layer:runtime.msgs_per_cycle.ondemand"] > 0
    assert runs[0]["workloads"]["service_sweep"]["per_layer"][
        "service.dedup_executed"]["value"] == 2


@pytest.mark.parametrize("trace", [0, 1])
def test_driver_line(manifest, trace):
    proc = run("--quick", "--workload", "kmc_serial_dense", "--seed", "7",
               "--seconds", "1", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    assert line["attempted"] >= 1
    declared = manifest["per_layer" if trace else "end_to_end"]
    assert set(line["metrics"]) == {row["name"] for row in declared}
    for row in declared:
        assert line["metrics"][row["name"]]["unit"] == row["unit"]
        assert isinstance(line["metrics"][row["name"]]["value"], (int, float))


def _ledger_run(workloads: dict) -> list[dict]:
    return [{"seed": 1, "quick": False, "workloads": {
        name: ({"error": "boom"} if value is None else
               {"end_to_end": {"wall_s": {"value": value, "unit": "s"}}})
        for name, value in workloads.items()}}]


def test_compare_sees_a_regression_through_a_wide_spread(tmp_path, capsys):
    """Every run of B slower than every run of A is ``worse`` even when
    the spread is wider than the bound; overlapping runs are not."""
    wall = M.E2E["wall_s"]
    a = [1.0, 1.2, 1.4, 1.6]
    assert compare.spread(a) > wall.bound
    assert compare.verdict(wall, a, [2.0, 2.4, 2.8, 3.2])[0] == "worse"
    assert compare.verdict(wall, a, [0.5, 0.6, 0.7, 0.8])[0] == "better"
    assert compare.verdict(wall, a, [1.5, 1.8, 2.1, 2.4])[0] == "unresolved"
    rate = M.E2E["jobs_per_s"]
    assert compare.verdict(rate, a, [0.5, 0.6, 0.7, 0.8])[0] == "worse"
    assert compare.verdict(rate, a, [2.0, 2.4, 2.8, 3.2])[0] == "better"

    files = {}
    for side, scale in (("a", 1.0), ("b", 2.0)):
        runs = [r for v in a for r in _ledger_run({"stream_io": scale * v})]
        files[side] = tmp_path / f"{side}.json"
        files[side].write_text(json.dumps({"schema": 1, "runs": runs}))
    assert compare.main([str(files["a"]), str(files["a"])]) == 0
    assert compare.main([str(files["a"]), str(files["b"])]) == 1
    assert "worse" in capsys.readouterr().out


@pytest.mark.parametrize("b_side", [{"stream_io": None}, {}])
def test_compare_fails_on_a_workload_b_lost(tmp_path, capsys, b_side):
    """A workload A measured that errored in, or is absent from, B."""
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(
        {"schema": 1, "runs": _ledger_run({"stream_io": 1.0})}))
    b.write_text(json.dumps({"schema": 1, "runs": _ledger_run(b_side)}))
    assert compare.main([str(a), str(b)]) == 1
    assert "missing" in capsys.readouterr().out


def test_corrupted_digest_fails_the_run(tmp_path):
    out = tmp_path / "corrupt.json"
    proc = run("--quick", "--workload", "kmc_serial_dense",
               "--corrupt-digest", "kmc_serial_dense", "--out", str(out))
    assert proc.returncode != 0
    entry = json.loads(out.read_text())["runs"][0]["workloads"][
        "kmc_serial_dense"]
    assert entry["end_to_end"]["failed_frac"]["value"] > 0
    assert entry["checks"]["repeats_bit_identical"] is False
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert line["correct"] is False and line["failed"] > 0


def test_refuses_a_checkout_without_the_program(tmp_path):
    """The driver also runs it where only the benchmark's files exist."""
    import shutil

    shutil.copytree(HERE, tmp_path / "benchmarks" / "ledger",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "benchmarks/ledger/run.py", "--workload",
         "coupled_ref", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, check=False,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
