#!/usr/bin/env python3
"""Compare two result documents of ``run.py``: ``compare.py A.json B.json``.

A is the base (the parent commit), B the change.  One row per workload and
end-to-end metric: median and quartiles of each side, the ratio B/A, and a
verdict against the metric's bound in ``BENCHMARK.json``:

* ``regressed``  -- B's median is worse than A's by more than the bound;
* ``unresolved`` -- not regressed, but the run-to-run spread of a side
  (quartile distance over median) exceeds the bound, so "unchanged" cannot
  be claimed;
* ``improved`` / ``unchanged`` -- otherwise.

``failed_ratio`` (failed over attempted operations, the ninth end-to-end
metric: always 0 on a healthy run, so it has a row here and no bound in
``BENCHMARK.json``) may not rise, and ``recall_at_k`` may not fall: runs
of one seed are deterministic, so B's recall is held against A's seed by
seed, with no tolerance.

It fails (exit code 1) on any regression, on a workload that one side
lacks, on any answer digest that differs for the same workload and seed,
on a ``failed_ratio`` that rose and on a ``recall_at_k`` that fell.
Counters of the traced runs that moved are listed; they repeat exactly
between runs of one commit, so any difference comes from the change.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
from collections import defaultdict
from typing import Dict, List, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))


def load(path: str) -> dict:
    with open(path) as handle:
        document = json.load(handle)
    if not str(document.get("schema", "")).startswith("bench_e2e/"):
        raise SystemExit(f"{path}: not a bench_e2e result document")
    return document


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)``; a single value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def by_workload(document: dict, trace: int) -> Dict[str, List[dict]]:
    grouped: Dict[str, List[dict]] = defaultdict(list)
    for run in document["runs"]:
        if run["trace"] == trace:
            grouped[run["workload"]].append(run)
    return grouped


def compare(base: dict, change: dict, spec: dict) -> Tuple[List[str], bool]:
    lines: List[str] = []
    failed = False
    base_runs, change_runs = by_workload(base, 0), by_workload(change, 0)
    lines.append(f"{'workload':<14s} {'metric':<16s} {'unit':<5s} "
                 f"{'A q1/median/q3':>30s} {'B q1/median/q3':>30s} "
                 f"{'B/A':>7s} {'bound':>6s}  verdict")
    for workload in (w["name"] for w in spec["workloads"]):
        a_runs, b_runs = base_runs.get(workload), change_runs.get(workload)
        if not a_runs or not b_runs:
            failed = True
            lines.append(f"{workload:<14s} MISSING from "
                         f"{'A' if not a_runs else 'B'}")
            continue
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            a = quartiles([r["result"]["metrics"][name]["value"]
                           for r in a_runs])
            b = quartiles([r["result"]["metrics"][name]["value"]
                           for r in b_runs])
            ratio = b[1] / a[1] if a[1] else float("inf")
            worse = ratio - 1.0 if metric["better"] == "lower" \
                else 1.0 - ratio
            spread = max((q[2] - q[0]) / q[1] if q[1] else 0.0
                         for q in (a, b))
            if worse > bound:
                verdict, failed = "regressed", True
            elif spread > bound:
                verdict = f"unresolved (spread {spread:.0%})"
            elif worse < -bound:
                verdict = "improved"
            else:
                verdict = "unchanged"
            lines.append(
                f"{workload:<14s} {name:<16s} {metric['unit']:<5s} "
                f"{a[0]:>9.4g}/{a[1]:>9.4g}/{a[2]:>9.4g} "
                f"{b[0]:>9.4g}/{b[1]:>9.4g}/{b[2]:>9.4g} "
                f"{ratio:>7.3f} {bound:>6.1%}  {verdict}")
        a = quartiles([r["detail"]["failed_ratio"] for r in a_runs])
        b = quartiles([r["detail"]["failed_ratio"] for r in b_runs])
        rose = max(r["detail"]["failed_ratio"] for r in b_runs) \
            > max(r["detail"]["failed_ratio"] for r in a_runs)
        failed = failed or rose
        lines.append(
            f"{workload:<14s} {'failed_ratio':<16s} {'ratio':<5s} "
            f"{a[0]:>9.4g}/{a[1]:>9.4g}/{a[2]:>9.4g} "
            f"{b[0]:>9.4g}/{b[1]:>9.4g}/{b[2]:>9.4g} "
            f"{'':>7s} {'none':>6s}  {'ROSE' if rose else 'unchanged'}")
        a_by_seed = {r["seed"]: r for r in a_runs}
        for run in b_runs:
            base_run = a_by_seed.get(run["seed"])
            if base_run is None:
                continue
            want, got = base_run["detail"]["digest"], run["detail"]["digest"]
            if want != got:
                failed = True
                lines.append(
                    f"{workload:<14s} ANSWER DIGEST CHANGED for seed "
                    f"{run['seed']}: {want} -> {got}")
            want, got = (r["result"]["metrics"]["recall_at_k"]["value"]
                         for r in (base_run, run))
            if got < want:
                failed = True
                lines.append(
                    f"{workload:<14s} RECALL FELL for seed {run['seed']}: "
                    f"{want:.6g} -> {got:.6g}")
    lines.extend(_moved_counters(base, change))
    return lines, failed


def _moved_counters(base: dict, change: dict) -> List[str]:
    """Count metrics of the traced runs that differ for the same seed."""
    lines: List[str] = []
    a_traced, b_traced = by_workload(base, 1), by_workload(change, 1)
    for workload, b_runs in b_traced.items():
        a_by_seed = {r["seed"]: r for r in a_traced.get(workload, [])}
        for run in b_runs:
            other = a_by_seed.get(run["seed"])
            if other is None:
                continue
            for name, metric in run["result"]["metrics"].items():
                if metric["unit"] != "count":
                    continue
                before = other["result"]["metrics"][name]["value"]
                if before != metric["value"]:
                    lines.append(
                        f"{workload:<14s} counter {name} moved: "
                        f"{before:g} -> {metric['value']:g} "
                        f"(seed {run['seed']})")
    return lines


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n\n")[0], file=sys.stderr)
        return 2
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    lines, failed = compare(load(argv[0]), load(argv[1]), spec)
    print("\n".join(lines))
    print("RESULT: " + ("regression or failure" if failed else
                        "no regression"))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
