"""The configuration matrix: every serving path against one oracle.

A case is a problem -- a random graph (:func:`build_random_graph`), a
mutation sequence replayed on it, a query and k -- and a few cells.  A
cell is a :class:`SearchOptions` made by ``dataclasses.replace`` from
the case's base options (``algorithm``, ``use_index``, and ``alpha`` /
``decomposition_method`` for general queries), plus how the search is
served: storage, engine (``Star``, or a serial ``ShardedEngine`` of 1-8
shards), traced or not, under a generous budget or none, on a candidate
cache warmed by the same search or not.  The base
options carry the axes that change the answer set: ``d`` 1-3,
``injective``, ``directed`` (d = 1) and ``candidate_limit``.  The first
cell is the anchor (``auto``, index off, in memory, a ``Star``,
untraced, no budget, cold); every other cell moves one to three axes
off it.

Storage is the graph a cell searches:

* ``memory``: a fresh graph replayed from the base and the mutations;
* ``live``: the base graph mutated in two batches under an engine that
  holds a candidate cache and searches before each, refreshed after
  each (mutate == rebuild: the answers must be ``memory``'s);
* ``mmap``: ``memory`` compacted to a store and mapped;
* ``overlay``: the base graph's store, mutated through its overlay;
  like ``mmap`` it is its engine's ``mmap_store``, whose index columns
  stop serving once the overlay has written past them.

Every cell is checked

* against :mod:`tests.oracle` (brute force), unless a candidate limit
  cuts the pivots;
* against the other cells of its case: equal scores rank by rank; equal
  answers wherever the tie order is the same (one procedure, sharded or
  not, one decomposition); equal ``last_engine_stats`` counters, cache
  counters aside, among single-engine cells of one procedure, and equal
  pivot candidates among all of them;
* for star queries on a single engine, against the invariants the
  paper's claims give: per pivot, column bound >= row bound >= top-1
  (node-weighted, as starjoin's streams are), rows read only for
  pivots with a column bound, and no pivot row read twice;
* graphTA (cyclic queries) and BP (acyclic) against the oracle beside
  the cells of a general query.

Each graph other than ``memory`` must equal it structurally (nodes,
edges, accessors, grouped rows, id columns), and so must the overlay's
re-compacted store.

Tier-1 runs a small random sample of the lattice; CI runs this file
under fixed ``--hypothesis-seed`` values to walk more of it.  A new
matcher or option is one more axis value here.
"""

from __future__ import annotations

import dataclasses
import itertools
import tempfile
from collections import Counter
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro import obs
from repro.baselines import BeliefPropagation, GraphTA
from repro.core.framework import Star
from repro.core.options import SearchOptions
from repro.core.procedures import star_matcher
from repro.dynamic import apply_operation, apply_operations
from repro.perf import attach_cache
from repro.query import Query, StarQuery
from repro.query.decomposition import METHODS
from repro.runtime.budget import Budget
from repro.shard import ShardedEngine
from repro.similarity import ScoringFunction
from repro.store import open_graph, write_store

from tests.conftest import STARS, build_random_graph, star_of, triangle_query
from tests.oracle import (
    ROUND,
    assert_grouped_relations,
    assert_meets,
    neighbor_ids,
    oracle_matches,
    rounded_scores,
    row_bounds,
)


def path_query() -> Query:
    """An acyclic general query, a path: place - actor - film - award."""
    query = Query(name="path4")
    a = query.add_node("Brad", type="actor")
    b = query.add_node("?", type="film")
    c = query.add_node("?", type="award")
    p = query.add_node("?", type="place")
    query.add_edge(a, p, "born_in")
    query.add_edge(a, b, "acted_in")
    query.add_edge(b, c, "won")
    return query


#: The queries: :data:`STARS`, a wildcard pivot, then two general
#: shapes, one cyclic and one not.
QUERIES = (
    *(star_of(choice) for choice in range(len(STARS))),
    star_of(0, [("?", "actor", [("acted_in", "?", "film"),
                                ("won", "?", "")])]),
    triangle_query(),
    path_query(),
)

#: Mutation kinds; each takes one integer that picks its targets.
MUTATIONS = ("add_node", "add_edge", "remove_edge", "remove_node",
             "update_node_attrs", "update_edge")
_RELATIONS = ("acted_in", "directed", "won", "born_in", "married_to")

STORAGES = ("memory", "live", "mmap", "overlay")
#: A generous budget never trips on these graphs; a trip would raise.
GENEROUS = dict(max_nodes=10 ** 9, max_messages=10 ** 9,
                max_join_steps=10 ** 9)
#: Counters that depend on what a candidate cache already held.
CACHE_COUNTERS = ("cache_hits", "cache_misses")


def mutation_record(graph, kind: str, pick: int) -> Optional[list]:
    """The op record of mutation *kind* against *graph*'s current state,
    its targets chosen by *pick*; None where the graph has none."""
    nodes = sorted(graph.nodes())
    edges = sorted(eid for eid, _src, _dst in graph.edges())
    if kind == "add_node":
        return ["add_node", f"Brad Late {pick}", "actor", ["drama"]]
    if kind == "add_edge":
        src, dst = nodes[pick % len(nodes)], nodes[(pick // 7) % len(nodes)]
        if src == dst:
            return None
        return ["add_edge", src, dst, _RELATIONS[pick % len(_RELATIONS)]]
    if kind == "remove_node":
        return (["remove_node", nodes[pick % len(nodes)]]
                if len(nodes) > 4 else None)
    if kind == "update_node_attrs":
        return ["update_node_attrs", nodes[pick % len(nodes)], {"year": pick}]
    if not edges:
        return None
    if kind == "remove_edge":
        return ["remove_edge", edges[pick % len(edges)]]
    return ["update_edge", edges[pick % len(edges)],
            _RELATIONS[pick % len(_RELATIONS)]]


class Cell(NamedTuple):
    options: SearchOptions
    storage: str
    shards: int  # 0: a Star
    traced: bool
    budget: bool
    warm: bool

    def family(self, general: bool) -> tuple:
        """Cells of one family return the same answers in the same tie
        order: one star procedure and one decomposition, sharded or
        not.  A sharded engine hands budgeted and general searches to
        its single engine."""
        options = self.options
        algorithm = options.algorithm
        if algorithm == "auto":
            algorithm = "stark" if options.d == 1 else "stard"
        sharded = bool(self.shards) and not general and not self.budget
        return (algorithm, sharded, options.alpha,
                options.decomposition_method)

    def label(self) -> str:
        options = self.options
        return (f"{options.algorithm}/{options.use_index}/{self.storage}/"
                f"shards={self.shards}/traced={self.traced}/"
                f"budget={self.budget}/warm={self.warm}/"
                f"alpha={options.alpha}/"
                f"{options.decomposition_method}")


class Case(NamedTuple):
    seed: int
    mutations: list
    query: object
    k: int
    weights: Dict[int, float]
    cells: List[Cell]

    @property
    def general(self) -> bool:
        return not isinstance(self.query, StarQuery)


@st.composite
def cases(draw) -> Case:
    seed = draw(st.integers(min_value=0, max_value=40))
    mutations = draw(st.lists(
        st.tuples(st.sampled_from(MUTATIONS),
                  st.integers(min_value=0, max_value=10 ** 6)),
        max_size=5))
    query = QUERIES[draw(st.integers(min_value=0,
                                     max_value=len(QUERIES) - 1))]
    general = not isinstance(query, StarQuery)
    d = draw(st.sampled_from((1, 2) if general else (1, 2, 3)))
    directed = d == 1 and draw(st.booleans())
    # The semantic tier engages only out of vocabulary, which none of
    # these queries is (its searches are test_ann_semantic's).
    base = SearchOptions(
        use_semantic="off",
        d=d, injective=draw(st.booleans()), directed=directed,
        candidate_limit=None if general else draw(
            st.sampled_from((None, None, 3, 8))))
    weights = {} if general else draw(st.one_of(
        st.just({}), st.lists(st.sampled_from([0.0, 0.1, 0.5, 0.9, 1.5]),
                              min_size=4, max_size=4).map(
            lambda ws: dict(enumerate(ws)))))
    # The class anchor: the default procedure, in memory, unadorned.
    # Each other cell moves one to three axes off it, so every cell
    # meets it, and axes meet each other in pairs and triples.
    reference = Cell(dataclasses.replace(base, use_index="off"), "memory",
                     0, False, False, False)
    axes = {
        "algorithm": st.sampled_from(
            ("stark",) if directed else ("stark", "stard")),
        "use_index": st.sampled_from(("on", "auto")),
        "storage": st.sampled_from(STORAGES[1:]),
        "shards": st.integers(min_value=1, max_value=8),
        "traced": st.just(True),
        "budget": st.just(True),
        "warm": st.just(True),
    }
    if general:
        axes["alpha"] = st.sampled_from((0.1, 0.9))
        axes["decomposition_method"] = st.sampled_from(METHODS)
    cells = [reference]
    for _ in range(draw(st.integers(min_value=2, max_value=4))):
        moved = {axis: draw(axes[axis]) for axis in draw(st.lists(
            st.sampled_from(sorted(axes)), min_size=1, max_size=3,
            unique=True))}
        if "shards" in moved and "storage" not in moved:
            # a ShardedEngine resynchronizes itself after mutations
            moved["storage"] = draw(st.sampled_from(STORAGES))
        if "warm" in moved and "budget" not in moved:
            # what a warm cache must not change is what a budget observes
            moved["budget"] = draw(st.booleans())
        options = dataclasses.replace(reference.options, **{
            axis: moved.pop(axis) for axis in list(moved)
            if axis not in Cell._fields})
        cells.append(reference._replace(options=options, **moved))
    return Case(seed, mutations, query,
                draw(st.integers(min_value=1, max_value=6)), weights, cells)


class Graphs:
    """One case's graphs: the rebuild, its records, and the stores."""

    def __init__(self, seed: int, mutations, root) -> None:
        self.seed = seed
        self.root = Path(tempfile.mkdtemp(dir=root))
        self.memory = build_random_graph(seed)
        self.records = []
        for kind, pick in mutations:
            record = mutation_record(self.memory, kind, pick)
            if record is not None:
                apply_operation(self.memory, record)
                self.records.append(record)
        self.stores: Dict[str, object] = {}
        self.live: List[object] = []

    def store(self, graph, name: str):
        path = self.root / f"{name}.rkgs2"
        write_store(graph, path)
        return open_graph(path)

    def mapped(self, storage: str):
        graph = self.stores.get(storage)
        if graph is None:
            if storage == "mmap":
                graph = self.store(self.memory, storage)
            else:
                graph = self.store(build_random_graph(self.seed), storage)
                apply_operations(graph, self.records)
            self.stores[storage] = graph
        return graph

    def close(self) -> None:
        for graph in self.stores.values():
            graph.close()


def engine_for(graph, cell: Cell):
    options = cell.options
    if cell.storage in ("mmap", "overlay"):  # the store's index columns
        options = dataclasses.replace(options, mmap_store=graph)
    if cell.shards:
        return ShardedEngine(graph, shards=cell.shards, backend="serial",
                             options=options)
    return Star(graph, options=options)


def serve(case: Case, graphs: Graphs, cell: Cell):
    """The cell's engine after its search, and the answers."""
    if cell.storage == "live":
        graph = build_random_graph(case.seed)
        engine = engine_for(graph, cell)
        attach_cache(engine.scorer)
        half = len(graphs.records) // 2
        for batch in (graphs.records[:half], graphs.records[half:]):
            engine.search(case.query, case.k)
            apply_operations(graph, batch)
            if not cell.shards:  # a ShardedEngine resynchronizes itself
                engine.scorer.refresh()
        graphs.live.append(graph)
    elif cell.storage == "memory":
        engine = engine_for(graphs.memory, cell)
    else:
        engine = engine_for(graphs.mapped(cell.storage), cell)
    budget = Budget(**GENEROUS) if cell.budget else None
    if cell.warm:
        # The same search first, on the engine's cache: the searched one
        # must then answer and charge as that cold one did.
        if engine.scorer.candidate_cache is None:
            attach_cache(engine.scorer)
        cold = Budget(**GENEROUS) if cell.budget else None
        engine.search(case.query, case.k, budget=cold)
    if cell.traced:
        with obs.capture() as tracer:
            got = engine.search(case.query, case.k, budget=budget)
        assert tracer.roots, "a traced search records spans"
    else:
        got = engine.search(case.query, case.k, budget=budget)
    if budget is not None:
        assert engine.last_report.completed
        if cell.warm:
            assert (budget.nodes_visited, budget.messages_sent,
                    budget.join_steps) == (cold.nodes_visited,
                                           cold.messages_sent,
                                           cold.join_steps)
    if cell.shards:  # partitioned at the graph's current version
        assert engine.partition.graph_version == engine.graph.version
    return engine, got


def answers(matches) -> list:
    return [(m.key(), round(m.score, ROUND)) for m in matches]


def weighted_score(match, weights) -> float:
    return sum(weights.get(q, 1.0) * s for q, s in match.node_scores.items()
               ) + sum(match.edge_scores.values())


def assert_plan_invariants(case: Case, engine, cell: Cell, got, full):
    """The paper's claims on one star plan over the cell's scorer, with
    the case's node weights: column bound >= row bound >= top-1 per
    pivot, rows read only for pivots with a column bound and each
    once, and the stream the cell's answers (or, weighted, brute
    force's ranking)."""
    star, weights, k = case.query, case.weights, case.k
    options = cell.options
    matcher = star_matcher(engine.scorer, options)
    graph = engine.scorer.graph
    reads: Counter = Counter()
    real = type(graph).grouped_relations

    def counted(self, v, orientation=0):
        if self is graph:
            reads[v, orientation] += 1
        return real(self, v, orientation)

    with mock.patch.object(type(graph), "grouped_relations", counted):
        plan = matcher.plan(star, weights)
        stream = list(itertools.islice(
            matcher.stream(star, weights, prune_k=k, plan=plan), k))
    assert max(reads.values(), default=0) <= 1, "a pivot row read twice"
    read = {v for v, _orientation in reads}
    assert matcher.stats.rows_read == len(read)
    if not weights:
        assert answers(stream) == answers(got)
    elif options.candidate_limit is None:
        assert rounded_scores(stream) == sorted(
            (round(weighted_score(m, weights), ROUND) for m in full),
            reverse=True)[:k]
    if plan.bounds is None:  # stark at d >= 2 bounds nothing
        assert read <= {pivot for pivot, _score in plan.pivots}
        return
    assert read <= {pivot for (pivot, _score), bound
                    in zip(plan.pivots, plan.bounds) if bound is not None}
    top1: Dict[int, float] = {}
    for match in full:
        pivot = match.assignment[star.pivot.id]
        score = weighted_score(match, weights)
        top1[pivot] = max(top1.get(pivot, score), score)
    if options.candidate_limit is None:  # Lemma 1: no matched pivot lost
        assert set(top1) <= {pivot for pivot, _score in plan.pivots}
    # row_bounds checks row <= column, and None where the column is
    rows = row_bounds(matcher.plan(star, weights))
    for (pivot, _score), row in zip(plan.pivots, rows):
        if pivot in top1:
            assert row is not None and row >= top1[pivot] - 1e-9, pivot


def assert_same_structure(graph, reference) -> None:
    """*graph* holds *reference*'s nodes, edges and rows, and its id
    columns and grouped rows are its rows by their definitions."""
    assert graph.version == reference.version
    assert sorted(graph.nodes()) == sorted(reference.nodes())
    assert sorted(graph.edges()) == sorted(reference.edges())
    for attr in ("num_nodes", "num_edges", "max_degree"):
        assert getattr(graph, attr) == getattr(reference, attr), attr
    assert sorted(graph.types()) == sorted(reference.types())
    assert sorted(graph.token_dfs()) == sorted(reference.token_dfs())
    columns, names = graph.columns(), graph.relation_names()
    for v in reference.nodes():
        assert graph.node(v) == reference.node(v)
        for read in ("neighbors", "out_neighbors", "in_neighbors"):
            assert sorted(getattr(graph, read)(v)) == sorted(
                getattr(reference, read)(v)), (read, v)
        start, end = columns.indptr[v], columns.indptr[v + 1]
        assert columns.indices[start:end].tolist() == neighbor_ids(graph, v)
        assert [names[r] for r in columns.relations[start:end].tolist()] \
            == [graph.edge(eid)[2].relation for _n, eid in graph.neighbors(v)]
    assert_grouped_relations(graph)


@pytest.fixture(scope="module")
def store_root(tmp_path_factory):
    return tmp_path_factory.mktemp("matrix")


@given(case=cases())
@settings(max_examples=60, deadline=None)
def test_cells_meet_the_oracle_and_each_other(store_root, case):
    graphs = Graphs(case.seed, case.mutations, store_root)
    try:
        check(case, graphs)
    finally:
        graphs.close()


def check(case: Case, graphs: Graphs) -> None:
    base = case.cells[0].options
    scorer = ScoringFunction(graphs.memory)
    full = oracle_matches(scorer, case.query, d=base.d,
                          injective=base.injective, directed=base.directed)
    exact = base.candidate_limit is None
    first: Dict[tuple, list] = {}
    stats: Dict[tuple, dict] = {}
    reference = None
    for cell in case.cells:
        label = cell.label()
        engine, got = serve(case, graphs, cell)
        try:
            if exact:
                assert_meets(got, full, case.k, label)
            if reference is None:
                reference = got
            assert rounded_scores(got) == rounded_scores(reference), label
            family = cell.family(case.general)
            assert answers(got) == answers(first.setdefault(family, got)), \
                label
            if not cell.shards:
                counters = engine.last_engine_stats.as_dict()
                for key in CACHE_COUNTERS:
                    counters.pop(key)
                assert counters == stats.setdefault(family, counters), label
                # every procedure considers the same pivot candidates
                assert counters["pivots_considered"] == stats.setdefault(
                    "candidates", counters)["pivots_considered"], label
                if not case.general:
                    assert_plan_invariants(case, engine, cell, got, full)
        finally:
            if cell.shards:
                engine.close()
    if case.general and exact:
        cyclic = case.query.num_edges >= case.query.num_nodes
        baseline = (GraphTA if cyclic else BeliefPropagation)(
            scorer, d=base.d, injective=base.injective,
            directed=base.directed)
        assert_meets(baseline.search(case.query, case.k), full, case.k,
                     type(baseline).__name__)
    for graph in [*graphs.stores.values(), *graphs.live]:
        assert_same_structure(graph, graphs.memory)
    if "overlay" in graphs.stores:
        refolded = graphs.store(graphs.stores["overlay"], "refolded")
        try:
            assert_same_structure(refolded, graphs.memory)
        finally:
            refolded.close()
