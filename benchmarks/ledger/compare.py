"""Compare two ledger files: ``python benchmarks/ledger/compare.py A.json B.json``.

A ledger file holds one or more runs (``run.py --out FILE`` appends).
For every workload and every end-to-end metric declared on it, the
medians of A's and B's runs are compared with the metric's direction
and bound (``metrics.END_TO_END``), and one row is printed with

* ``better`` / ``worse`` — B's median differs from A's by more than the
  bound, in that direction;
* ``same`` — within the bound;
* ``unresolved`` — the run-to-run spread of either side (distance
  between its quartiles, as a share of its median) is wider than the
  bound, so neither can be said — unless every run of B reads better
  than every run of A, or every run of B reads worse;
* ``missing`` — A measured the workload and B has no clean run of it
  (absent, or every run ended in an error).

Exact counts and digests of runs that share a workload and a seed must
agree bit for bit, inside each file and across them.  Exits 1 on any
``worse``, any ``missing`` or any count that differs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import metrics as M  # noqa: E402


def load(path: str) -> list[dict]:
    ledger = json.loads(Path(path).read_text())
    if ledger.get("schema") != 1 or not ledger.get("runs"):
        raise SystemExit(f"{path}: not a ledger file with runs")
    return ledger["runs"]


def values(runs: list[dict], workload: str, metric: str) -> list[float]:
    out = []
    for run in runs:
        entry = run["workloads"].get(workload)
        if entry and "error" not in entry and metric in entry["end_to_end"]:
            out.append(entry["end_to_end"][metric]["value"])
    return out


def spread(vals: list[float]) -> float:
    """Interquartile distance as a share of the median (0 for one run)."""
    if len(vals) < 2:
        return 0.0
    q1, _q2, q3 = statistics.quantiles(vals, n=4)
    return abs(q3 - q1) / abs(statistics.median(vals))


def verdict(metric: M.EndToEnd, a: list[float], b: list[float]) -> tuple:
    """(verdict, median A, median B, relative worsening, spread)."""
    med_a, med_b = statistics.median(a), statistics.median(b)
    sign = 1.0 if metric.better == "lower" else -1.0
    if metric.bound == 0.0:
        # An absolute bound (failed_frac): any increase is a regression.
        worse = sign * (med_b - med_a)
        word = "worse" if worse > 0 else "better" if worse < 0 else "same"
        return word, med_a, med_b, worse, 0.0
    worse = sign * (med_b - med_a) / abs(med_a)
    wide = max(spread(a), spread(b))
    if wide > metric.bound:
        # As costs (lower is better): is B clear of A on either side?
        cost_a, cost_b = [sign * v for v in a], [sign * v for v in b]
        word = ("better" if max(cost_b) < min(cost_a)
                else "worse" if min(cost_b) > max(cost_a)
                else "unresolved")
    elif worse > metric.bound:
        word = "worse"
    elif -worse > metric.bound:
        word = "better"
    else:
        word = "same"
    return word, med_a, med_b, worse, wide


def exact(entry: dict) -> dict:
    """Everything of a run's workload entry that must repeat exactly."""
    out = {f"count:{k}": v for k, v in entry.get("counts", {}).items()}
    out.update({f"digest:{k}": v for k, v in entry.get("digests", {}).items()})
    for name, cell in entry.get("per_layer", {}).items():
        if name in M.LAYER and M.LAYER[name].kind == "count":
            out[f"layer:{name}"] = cell["value"]
    return out


def count_mismatches(runs_a: list[dict], runs_b: list[dict]) -> list[str]:
    seen: dict[tuple, tuple[str, dict]] = {}
    problems = []
    for side, runs in (("A", runs_a), ("B", runs_b)):
        for i, run in enumerate(runs):
            for workload, entry in run["workloads"].items():
                if "error" in entry:
                    continue
                key = (workload, run["seed"], run["quick"])
                mine = exact(entry)
                if key not in seen:
                    seen[key] = (f"{side}[{i}]", mine)
                    continue
                where, ref = seen[key]
                for name in sorted(set(ref) & set(mine)):
                    if ref[name] != mine[name]:
                        problems.append(
                            f"{workload} seed={run['seed']} {name}: "
                            f"{where}={ref[name]} {side}[{i}]={mine[name]}")
    return problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("a")
    ap.add_argument("b")
    args = ap.parse_args(argv)
    runs_a, runs_b = load(args.a), load(args.b)
    status = 0
    print(f"{'workload':18s} {'metric':28s} {'A':>12s} {'B':>12s} "
          f"{'worse by':>9s} {'spread':>7s} {'bound':>6s}  verdict")
    for workload in M.WORKLOADS:
        for metric in M.END_TO_END:
            if workload not in metric.workloads:
                continue
            a = values(runs_a, workload, metric.name)
            b = values(runs_b, workload, metric.name)
            if not a:
                continue
            if not b:
                status = 1
                print(f"{workload:18s} {metric.name:28s} "
                      f"{statistics.median(a):12.5g} {'-':>12s} {'':9s} "
                      f"{'':7s} {metric.bound:6.0%}  missing ({len(a)}v0 "
                      f"runs: B has no clean run of this workload)")
                continue
            word, med_a, med_b, worse, wide = verdict(metric, a, b)
            if word == "worse":
                status = 1
            print(f"{workload:18s} {metric.name:28s} {med_a:12.5g} "
                  f"{med_b:12.5g} {worse:+9.1%} {wide:7.1%} "
                  f"{metric.bound:6.0%}  {word} ({len(a)}v{len(b)} runs, "
                  f"{metric.unit}, {metric.better} is better)")
    problems = count_mismatches(runs_a, runs_b)
    for line in problems:
        print(f"COUNT DIFFERS: {line}")
    if problems:
        status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
