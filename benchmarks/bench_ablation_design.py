"""Ablations for the design choices DESIGN.md calls out.

Not a paper artifact; quantifies internal decisions:

1. **Proposition 3 pruning** (Section V-A): stark's leaf lists pruned to
   ``k + s - 1`` entries (valid in the non-injective model) vs unpruned.
2. **Message passing (stard) vs eager traversal (stark-d)** lattice work:
   how many pivots each evaluates exactly, the mechanism behind Fig. 12.
3. **Vertex-centric propagation** and **directed matching**: what
   partitioning and edge orientation cost.
"""

from repro.core import StarDSearch, StarKSearch
from repro.eval import (
    benchmark_graph,
    benchmark_scorer,
    format_ms,
    print_table,
)
from repro.query import StarQuery, star_workload

K = 20
NUM_QUERIES = 10


def run_prop3_ablation():
    import time

    graph = benchmark_graph("dbpedia")
    scorer = benchmark_scorer(graph)
    workload = star_workload(graph, NUM_QUERIES, seed=161)
    rows = []
    for label, prop3 in (("prop3 on", True), ("prop3 off", False)):
        scorer.clear_cache()
        start = time.perf_counter()
        pops = 0
        for query in workload:
            matcher = StarKSearch(scorer, injective=False, prop3=prop3)
            matcher.search(StarQuery.from_query(query), K)
            pops += matcher.stats.lattice_pops
        elapsed = time.perf_counter() - start
        rows.append([label, format_ms(elapsed / NUM_QUERIES, is_seconds=True),
                     pops])
    return rows


def run_pivot_evaluation_ablation():
    graph = benchmark_graph("dbpedia")
    scorer = benchmark_scorer(graph)
    workload = star_workload(graph, NUM_QUERIES, seed=163)
    eager = lazy = considered = 0
    for query in workload:
        star = StarQuery.from_query(query)
        stark = StarKSearch(scorer, d=2)
        stark.search(star, K)
        eager += stark.stats.pivots_with_match
        considered += stark.stats.pivots_considered
        stard = StarDSearch(scorer, d=2)
        stard.search(star, K)
        lazy += stard.stats.pivots_evaluated
    return [
        ["pivot candidates (total)", considered],
        ["stark-d exact evaluations", eager],
        ["stard exact evaluations", lazy],
    ]


def test_ablation_prop3(benchmark):
    rows = benchmark.pedantic(run_prop3_ablation, rounds=1, iterations=1)
    print_table(
        "Ablation -- Proposition 3 leaf-list pruning (non-injective stark)",
        ["variant", "avg runtime", "lattice pops"],
        rows,
        save_as="ablation_prop3",
    )
    # Pruning never increases the lattice work.
    assert rows[0][2] <= rows[1][2]


def run_vertex_engine_ablation():
    from repro.core.candidates import node_candidates
    from vertex_centric import propagate_vertex_centric

    graph = benchmark_graph("yago2")
    scorer = benchmark_scorer(graph)
    workload = star_workload(graph, 5, seed=165)
    rows = []
    for workers in (1, 2, 4, 8):
        sent = cross = supersteps = 0
        for query in workload:
            star = StarQuery.from_query(query)
            leaf = star.leaves[0][0]
            seeds = dict(node_candidates(scorer, leaf))
            if not seeds:
                continue
            _layers, engine = propagate_vertex_centric(
                graph, seeds, d=2, num_workers=workers
            )
            sent += engine.messages_sent
            cross += engine.cross_partition_messages
            supersteps = max(supersteps, engine.supersteps_run)
        share = (100.0 * cross / sent) if sent else 0.0
        rows.append([workers, sent, cross, f"{share:.0f}%", supersteps])
    return rows


def test_ablation_vertex_engine(benchmark):
    rows = benchmark.pedantic(
        run_vertex_engine_ablation, rounds=1, iterations=1
    )
    print_table(
        "Ablation -- vertex-centric propagation (Section V-B Remark): "
        "communication vs partition count (d=2)",
        ["workers", "messages", "cross-partition", "share", "supersteps"],
        rows,
        save_as="ablation_vertex",
    )
    # Total message volume is partition-independent; the cross-partition
    # share grows with worker count; d rounds suffice (<= d + 1 here).
    assert len({row[1] for row in rows}) == 1
    shares = [int(row[3].rstrip("%")) for row in rows]
    assert shares[0] == 0
    assert shares == sorted(shares)
    assert all(row[4] <= 3 for row in rows)


def run_directed_ablation():
    graph = benchmark_graph("dbpedia")
    scorer = benchmark_scorer(graph)
    workload = star_workload(graph, NUM_QUERIES, seed=166)
    rows = []
    for label, directed in (("undirected", False), ("directed", True)):
        import time

        scorer.clear_cache()
        start = time.perf_counter()
        found = 0
        for query in workload:
            matcher = StarKSearch(scorer, directed=directed)
            found += len(matcher.search(StarQuery.from_query(query), K))
        elapsed = time.perf_counter() - start
        rows.append([label, format_ms(elapsed / NUM_QUERIES, is_seconds=True),
                     found])
    return rows


def test_ablation_directed(benchmark):
    rows = benchmark.pedantic(run_directed_ablation, rounds=1, iterations=1)
    print_table(
        "Ablation -- directed (RDF-style) vs undirected matching (stark, d=1)",
        ["mode", "avg runtime", "matches found"],
        rows,
        save_as="ablation_directed",
    )
    # Orientation enforcement can only shrink the answer set.
    assert rows[1][2] <= rows[0][2]


def test_ablation_pivot_evaluations(benchmark):
    rows = benchmark.pedantic(
        run_pivot_evaluation_ablation, rounds=1, iterations=1
    )
    print_table(
        "Ablation -- exact pivot evaluations at d=2 (mechanism of Fig. 12)",
        ["quantity", "count"],
        rows,
        save_as="ablation_pivots",
    )
    considered = rows[0][1]
    lazy = rows[2][1]
    # stard's laziness: it exactly evaluates a strict subset of pivots.
    assert lazy < considered
