"""Figure 15 (Exp-5): scalability over Freebase G1..G4.

Paper setup: G1(10M nodes, 51M edges) extracted from Freebase, expanded
in a BFS manner to G2(20M, 91M), G3(30M, 130M), G4(40M, 180M); 1,000
random queries, k=20, d=2.

* (a) star search: all algorithms slow down as the graph grows; stark and
  stard stay at least an order of magnitude faster than graphTA/BP, and
  stard improves stark by 35-45%.
* (b) starjoin: with the alpha-scheme, SimSize/SimTop/SimDec are 20-44%
  faster than Rand/MaxDeg across sizes.

Scaled setup: the same nested-BFS-expansion protocol over the
freebase-like universe, with edge counts in the paper's 51:91:130:180
proportion.

* (c) sharded execution: the same star workload run through
  :class:`repro.shard.ShardedEngine` at growing shard counts.  Sharded
  results must match the single-process engine exactly (tie-tolerant
  score/key comparison); on a multi-core host the fork backend should
  approach linear speedup since per-shard pivot work is 1/S of the total.

``python benchmarks/bench_fig15_scalability.py --smoke`` runs the CI
shard gate: parity is enforced unconditionally; the >= 1.5x speedup gate
at 4 shards is enforced only when the host grants >= 4 cores (a
single-core container cannot beat 1x -- the same rule
``bench_perf_cache.py`` applies to its parallel gate) and the fork start
method is available.  Machine-readable results land in
``benchmarks/results/fig15_shard_scaling.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

import pytest

from repro import obs
from repro.core import Star
from repro.eval import (
    benchmark_graph,
    benchmark_scorer,
    format_ms,
    print_series,
    run_general_workload,
    run_star_workload,
)
from repro.graph.sampling import scalability_series
from repro.perf import fork_available
from repro.query import complex_workload, star_workload
from repro.shard import ShardedEngine
from repro.similarity import ScoringConfig, ScoringFunction

ALGORITHMS = ("stark", "stard", "graphta", "bp")
JOIN_METHODS = ("rand", "maxdeg", "simsize", "simtop", "simdec")
K = 20
D = 2
NUM_QUERIES = 8
#: Paper edge counts 51M/91M/130M/180M, scaled 1:10000.
SIZES = (5100, 9100, 13000, 18000)
SHARD_COUNTS = (1, 2, 4, 8)
SMOKE_SHARD_COUNTS = (1, 2, 4)
SPEEDUP_GATE = 1.5
SPEEDUP_GATE_SHARDS = 4
RESULTS = Path(__file__).parent / "results" / "fig15_shard_scaling.json"

_series_cache = {}


def graph_series():
    if "series" not in _series_cache:
        universe = benchmark_graph("freebase", scale=1.3)
        _series_cache["series"] = scalability_series(
            universe, list(SIZES), seed=151
        )
    return _series_cache["series"]


def run_star_experiment():
    table = {}
    labels = []
    for i, graph in enumerate(graph_series(), start=1):
        labels.append(f"G{i}({graph.num_nodes},{graph.num_edges})")
        scorer = ScoringFunction(graph, ScoringConfig(fast=True))
        workload = star_workload(graph, NUM_QUERIES, seed=152)
        results = run_star_workload(scorer, workload, ALGORITHMS, K, d=D)
        for name, result in results.items():
            table.setdefault(name, []).append(result.avg_ms)
    return table, labels


def run_join_experiment():
    table = {}
    labels = []
    for i, graph in enumerate(graph_series(), start=1):
        labels.append(f"G{i}")
        scorer = ScoringFunction(graph, ScoringConfig(fast=True))
        workload = complex_workload(graph, 5, shape=(4, 4), seed=153)
        for method in JOIN_METHODS:
            result = run_general_workload(
                scorer, workload, k=K, d=1, alpha=0.5, method=method
            )
            table.setdefault(method, []).append(result.avg_ms)
    return table, labels


# ----------------------------------------------------------------------
# (c) sharded execution
# ----------------------------------------------------------------------
def _match_keys(matches):
    """Tie-tolerant identity of a top-k list: sorted (score, key) pairs."""
    return sorted((round(m.score, 12), m.key()) for m in matches)


def _timed_pass(search, workload):
    start = time.perf_counter()
    for query in workload:
        search(query, K)
    return (time.perf_counter() - start) * 1000.0 / len(workload)


def run_shard_experiment(graph, shard_counts, backend="auto",
                         num_queries=NUM_QUERIES, collect_counters=True):
    """Baseline vs sharded timings + parity on the fig15 star workload.

    Returns a JSON-safe dict: baseline avg ms/query, then one record per
    shard count with avg ms, speedup and parity verdict.  The first full
    pass over the workload warms each engine (partition + worker spawn
    for the fork backend) and yields the reference/parity results; the
    second pass is the timed one, so setup cost is excluded exactly as
    engine reuse excludes it in a real deployment.
    """
    scorer = ScoringFunction(graph, ScoringConfig(fast=True))
    workload = star_workload(graph, num_queries, seed=152)

    baseline = Star(graph, scorer=scorer, d=D)
    reference = [_match_keys(baseline.search(q, K)) for q in workload]
    baseline_ms = _timed_pass(baseline.search, workload)

    runs = []
    counters = {}
    for shards in shard_counts:
        engine = ShardedEngine(graph, scorer=scorer, shards=shards,
                               backend=backend, d=D)
        try:
            if collect_counters and shards == max(shard_counts):
                with obs.capture() as tracer:
                    got = [_match_keys(engine.search(q, K))
                           for q in workload]
                snap = tracer.registry.as_dict()
                counters = {name: value for name, value
                            in snap["counters"].items()
                            if name.startswith("shard.")}
            else:
                got = [_match_keys(engine.search(q, K)) for q in workload]
            avg_ms = _timed_pass(engine.search, workload)
            runs.append({
                "shards": shards,
                "backend": engine.backend,
                "avg_ms": round(avg_ms, 3),
                "speedup": round(baseline_ms / max(avg_ms, 1e-9), 3),
                "parity": got == reference,
            })
        finally:
            engine.close()

    return {
        "nodes": graph.num_nodes,
        "edges": graph.num_edges,
        "num_queries": len(workload),
        "baseline_avg_ms": round(baseline_ms, 3),
        "runs": runs,
        "shard_counters": counters,
    }


def test_fig15c_shard_scaling(benchmark):
    graph = graph_series()[0]
    result = benchmark.pedantic(
        run_shard_experiment,
        args=(graph, SMOKE_SHARD_COUNTS),
        kwargs={"backend": "serial", "collect_counters": False},
        rounds=1, iterations=1,
    )
    labels = [str(r["shards"]) for r in result["runs"]]
    print_series(
        f"Figure 15(c) -- sharded star search on freebase-like G1 "
        f"(k={K}, d={D}, serial backend, avg ms/query; "
        f"baseline {format_ms(result['baseline_avg_ms'])})",
        "shards",
        labels,
        [("avg ms", [format_ms(r["avg_ms"]) for r in result["runs"]]),
         ("parity", [str(r["parity"]) for r in result["runs"]])],
        save_as="fig15c_scalability_shard",
    )
    # Sharded execution is exact at every shard count.
    assert all(r["parity"] for r in result["runs"])


def test_fig15a_star_scalability(benchmark):
    table, labels = benchmark.pedantic(
        run_star_experiment, rounds=1, iterations=1
    )
    print_series(
        f"Figure 15(a) -- star search scalability on freebase-like G1..G4 "
        f"(k={K}, d={D}, {NUM_QUERIES} queries/graph, avg ms/query)",
        "graph",
        labels,
        [(name, [format_ms(v) for v in values])
         for name, values in table.items()],
        save_as="fig15a_scalability_star",
    )
    stark, stard = table["stark"], table["stard"]
    graphta, bp = table["graphta"], table["bp"]
    # STAR beats both baselines on every graph size.
    for i in range(len(SIZES)):
        assert min(stark[i], stard[i]) < graphta[i]
        assert min(stark[i], stard[i]) < bp[i]
    # Baselines slow down markedly as the graph grows.
    assert graphta[-1] > graphta[0]
    assert bp[-1] > bp[0]


def test_fig15b_join_scalability(benchmark):
    table, labels = benchmark.pedantic(
        run_join_experiment, rounds=1, iterations=1
    )
    print_series(
        f"Figure 15(b) -- starjoin scalability on freebase-like G1..G4 "
        f"(k={K}, Q(4,4) x 5, avg ms/query)",
        "graph",
        labels,
        [(name, [format_ms(v) for v in values])
         for name, values in table.items()],
        save_as="fig15b_scalability_join",
    )
    totals = {m: sum(v) for m, v in table.items()}
    # The optimized decompositions are collectively no slower than the
    # baselines overall (the paper reports 20-44% faster).
    assert min(totals[m] for m in ("simsize", "simtop", "simdec")) <= \
        max(totals["rand"], totals["maxdeg"])


# ----------------------------------------------------------------------
# CLI: the shard gate of the smoke-gates CI job + full shard-scaling sweep
# ----------------------------------------------------------------------
def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="CI mode: one small graph, shard counts "
                             f"{SMOKE_SHARD_COUNTS}, parity + speedup gates")
    parser.add_argument("--scale", type=float, default=0.6,
                        help="smoke graph scale (default 0.6)")
    args = parser.parse_args()

    cpu_count = os.cpu_count() or 1
    have_fork = fork_available()
    backend = "fork" if have_fork else "serial"
    results: dict = {
        "smoke": args.smoke,
        "cpu_count": cpu_count,
        "fork_available": have_fork,
        "k": K,
        "d": D,
        "speedup_gate": SPEEDUP_GATE,
        "speedup_gate_shards": SPEEDUP_GATE_SHARDS,
        "graphs": {},
    }
    failures: list = []

    if args.smoke:
        graph = benchmark_graph("freebase", scale=args.scale)
        shard_counts = SMOKE_SHARD_COUNTS
        graphs = {"smoke": graph}
    else:
        shard_counts = SHARD_COUNTS
        graphs = {f"G{i}": g for i, g in enumerate(graph_series(), start=1)}

    for label, graph in graphs.items():
        print(f"{label}: |V|={graph.num_nodes} |E|={graph.num_edges}, "
              f"{backend} backend, {cpu_count} core(s)")
        experiment = run_shard_experiment(graph, shard_counts,
                                          backend=backend)
        results["graphs"][label] = experiment
        print(f"  baseline: {experiment['baseline_avg_ms']:.1f} ms/query")
        for run in experiment["runs"]:
            print(f"  {run['shards']} shards "
                  f"({run['backend']}): {run['avg_ms']:>8.1f} ms/query, "
                  f"speedup {run['speedup']:.2f}x, "
                  f"parity={'OK' if run['parity'] else 'BROKEN'}")
            # Gate 1 (unconditional): sharded == single-process results.
            if not run["parity"]:
                failures.append(
                    f"{label}: {run['shards']} shards "
                    f"diverged from the single-process engine")

    # Gate 2: >= 1.5x at 4 shards -- only meaningful given >= 4 cores
    # and a fork backend; a single-core container cannot beat 1x.
    gate_runs = [run
                 for experiment in results["graphs"].values()
                 for run in experiment["runs"]
                 if run["shards"] == SPEEDUP_GATE_SHARDS
                 and run["backend"] == "fork"]
    if not have_fork:
        results["speedup_gate_status"] = "skipped: fork unavailable"
    elif cpu_count < SPEEDUP_GATE_SHARDS:
        results["speedup_gate_status"] = (
            f"skipped: {cpu_count} core(s) < {SPEEDUP_GATE_SHARDS}")
    elif not gate_runs:
        results["speedup_gate_status"] = "skipped: no 4-shard fork run"
    else:
        results["speedup_gate_status"] = "enforced"
        best = max(run["speedup"] for run in gate_runs)
        results["best_speedup_at_gate"] = best
        if best < SPEEDUP_GATE:
            failures.append(
                f"best speedup at {SPEEDUP_GATE_SHARDS} shards is "
                f"{best:.2f}x < {SPEEDUP_GATE}x on {cpu_count} cores")
    print(f"speedup gate: {results['speedup_gate_status']}")

    results["passed"] = not failures
    results["failures"] = failures
    RESULTS.parent.mkdir(parents=True, exist_ok=True)
    RESULTS.write_text(json.dumps(results, indent=2, sort_keys=True) + "\n")
    print(f"results -> {RESULTS}")

    if failures:
        print(f"FAIL: {len(failures)} gate(s) broken")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print("PASS: all shard gates held")
    return 0


if __name__ == "__main__":
    sys.exit(main())
