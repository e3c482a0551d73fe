"""``stard``'s message passing as array kernels equals the per-node walk.

The reference kept here is the Python loop the kernels replaced: one
:class:`Top2` per node reached, offered every message along
``graph.neighbors``; the pulled round merged over a node's neighbours
one by one; the last hop read off an inverted adjacency of the leaf map.
Against it, on in-memory graphs (parallel edges included), mmap'd stores
at their base and after overlay mutations, and the imported RKGS1
fixture:

* the layers :func:`propagate` returns, at d = 1..4;
* the round :func:`pull` reads at every node, injective or not;
* the candidates ``bounded_leaf_provider`` finds at hop ``d``;
* the columns themselves, row for row, after every mutation;
* budget trips at each round boundary: the same layers and charges.
"""

from pathlib import Path
from unittest import mock
from typing import Dict, List, Optional

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.messages import Layer, propagate, pull
from repro.core.stark import bounded_leaf_provider
from repro.dynamic.snapshot import load_snapshot
from repro.errors import DataCorruptionError, InjectedFaultError
from repro.graph import KnowledgeGraph
from repro.graph import knowledge_graph as kg_module
from repro.graph.traversal import bounded_bfs_layers
from repro.query import star_query
from repro.runtime.budget import Budget
from repro.runtime.faults import FaultSpec, faulty
from repro.similarity import ScoringConfig, ScoringFunction
from repro.store import open_graph, write_store

from tests.conftest import build_random_graph
from tests.oracle import neighbor_ids

#: One fixed profile: the same examples on every run.
PROFILE = settings(max_examples=40, deadline=None, derandomize=True)

RKGS1_FIXTURE = Path(__file__).parent / "data" / "movies_v1.kgs"
RELATIONS = ["acted_in", "directed", "won", "born_in", "married_to"]


# ---------------------------------------------------------------------------
# The reference: the per-node walk
# ---------------------------------------------------------------------------
class Top2:
    """The two best (score, origin) pairs with distinct origins."""

    __slots__ = ("s1", "o1", "s2", "o2")

    def __init__(self, score: float, origin: int) -> None:
        self.s1 = score
        self.o1 = origin
        self.s2 = float("-inf")
        self.o2 = -1

    def offer(self, score: float, origin: int) -> None:
        """Merge a candidate message into the top-2."""
        if origin == self.o1:
            if score > self.s1:
                self.s1 = score
            return
        if score > self.s1:
            self.s2, self.o2 = self.s1, self.o1
            self.s1, self.o1 = score, origin
        elif score > self.s2 and origin != self.o1:
            self.s2, self.o2 = score, origin

    def copy(self) -> "Top2":
        clone = Top2(self.s1, self.o1)
        clone.s2, clone.o2 = self.s2, self.o2
        return clone

    def merge(self, other: "Top2") -> None:
        """Merge another node's top-2 (one propagation step)."""
        self.offer(other.s1, other.o1)
        if other.o2 >= 0:
            self.offer(other.s2, other.o2)

    def best_excluding(self, banned: Optional[int]) -> Optional[float]:
        """Best score whose origin differs from *banned* (None = no ban)."""
        if banned is None or self.o1 != banned:
            return self.s1
        if self.o2 >= 0:
            return self.s2
        return None


def reference_propagate(graph, seeds, d, budget=None) -> List[Dict[int, Top2]]:
    """*d* rounds pushed node by node: round 1 offers each seed's own
    message to its neighbours, later rounds merge every reached node's
    top-2 into its neighbours'."""
    layers = [{node: Top2(score, node) for node, score in seeds.items()}]
    for _round in range(d):
        if budget is not None and budget.check():
            break
        nxt: Dict[int, Top2] = {}
        for node, top2 in layers[-1].items():
            for nbr, _eid in graph.neighbors(node):
                existing = nxt.get(nbr)
                if existing is None:
                    nxt[nbr] = top2.copy()
                else:
                    existing.merge(top2)
        layers.append(nxt)
        if budget is not None and budget.charge_messages(len(nxt)):
            break
    while len(layers) < d + 1:
        layers.append({})
    return layers


def reference_pull(layer: Dict[int, Top2], neighbours, banned):
    """The round after *layer* read at one node: None when no neighbour
    holds a message, ``-inf`` when they hold only *banned*'s."""
    best = None
    for top2 in filter(None, map(layer.get, neighbours)):
        score = top2.s1 if top2.o1 != banned else top2.s2
        if best is None or score > best:
            best = score
    return best


def reference_last_hop(graph, leaf_scores, pivot, d):
    """Leaf candidates at shortest distance *d* from *pivot*, off the
    leaf map's inverted adjacency."""
    adjacent: Dict[int, List[int]] = {}
    for w in leaf_scores:
        for nbr, _eid in graph.neighbors(w):
            adjacent.setdefault(nbr, []).append(w)
    layers = bounded_bfs_layers(graph, pivot, d - 1)
    found = set()
    for v in layers[-1]:
        found.update(adjacent.get(v, ()))
    return found - set().union(*layers)


def as_top2(layer: Layer) -> Dict[int, Top2]:
    """A kernel layer as the reference's ``{node: Top2}``."""
    out = {}
    for node in layer.reached().tolist():
        top2 = out[node] = Top2(float(layer.s1[node]), int(layer.o1[node]))
        top2.s2, top2.o2 = float(layer.s2[node]), int(layer.o2[node])
    return out


def assert_layers_equal(got: List[Layer], want: List[Dict[int, Top2]]) -> None:
    """Same nodes reached, same two scores, and the same best score under
    every ban a reader can put: the origins themselves may differ only
    between origins of equal score."""
    assert len(got) == len(want)
    for hops, (layer, reference) in enumerate(zip(got, want)):
        mine = as_top2(layer)
        assert mine.keys() == reference.keys(), hops
        for node, top2 in reference.items():
            other = mine[node]
            assert (other.s1, other.s2) == (top2.s1, top2.s2), (hops, node)
            for banned in {None, node, top2.o1, top2.o2, other.o1, other.o2}:
                assert other.best_excluding(banned) == \
                    top2.best_excluding(banned), (hops, node, banned)


# ---------------------------------------------------------------------------
# Graphs
# ---------------------------------------------------------------------------
def with_parallel_edges(seed: int) -> KnowledgeGraph:
    """A random graph whose first edges are each doubled."""
    graph = build_random_graph(seed, 16, 30)
    for eid, src, dst in list(graph.edges())[:8]:
        graph.add_edge(src, dst, RELATIONS[eid % 5])
    return graph


def mutate(graph, ops) -> None:
    """Resolve each drawn op against the graph's live ids and apply it."""
    for kind, x, y in ops:
        nodes = list(graph.nodes())
        edges = [eid for eid, _src, _dst in graph.edges()]
        if kind == "add_node":
            graph.add_node(f"Node {x}", "film")
        elif kind == "add_edge":
            src, dst = nodes[x % len(nodes)], nodes[y % len(nodes)]
            if src != dst:
                graph.add_edge(src, dst, RELATIONS[y % 5])
        elif kind == "remove_edge" and edges:
            graph.remove_edge(edges[x % len(edges)])
        elif kind == "remove_node" and len(nodes) > 2:
            graph.remove_node(nodes[x % len(nodes)])
        elif kind == "update_edge" and edges:
            graph.update_edge(edges[x % len(edges)], RELATIONS[y % 5])


OPS = st.lists(
    st.tuples(st.sampled_from(["add_node", "add_edge", "remove_edge",
                               "remove_node", "update_edge"]),
              st.integers(0, 10**6), st.integers(0, 10**6)),
    max_size=16)


def assert_columns_are_rows(graph) -> None:
    """Every row of the columns is the node's neighbour ids, each entry
    beside the relation id of its edge."""
    columns = graph.columns()
    names = graph.relation_names()
    assert columns.num_slots == graph.num_node_slots
    assert not columns.indptr.flags.writeable
    assert not columns.indices.flags.writeable
    assert not columns.relations.flags.writeable
    for node in range(graph.num_node_slots):
        at = slice(columns.indptr[node], columns.indptr[node + 1])
        want = graph.neighbors(node) if node in graph else []
        assert columns.indices[at].tolist() == [nbr for nbr, _eid in want]
        assert [names[rid] for rid in columns.relations[at].tolist()] == [
            graph.edge(eid)[2].relation for _nbr, eid in want], node


def seeds_of(graph, draw_ids, scores) -> Dict[int, float]:
    nodes = sorted(graph.nodes())
    return {nodes[i % len(nodes)]: score for i, score in zip(draw_ids, scores)}


SEEDS = st.tuples(st.lists(st.integers(0, 10**6), max_size=10),
                  st.lists(st.sampled_from([0.3, 0.5, 0.5, 0.9]),
                           min_size=10, max_size=10))


def check_kernels(graph, seeds, d) -> None:
    """Layers, pulled round and budget-free charges against the walk."""
    assert_layers_equal(propagate(graph, seeds, d),
                        reference_propagate(graph, seeds, d))
    layers = propagate(graph, seeds, d)
    want = reference_propagate(graph, seeds, d + 1)
    nodes = np.fromiter(graph.nodes(), dtype=np.int64)
    for injective in (True, False):
        best, reached = pull(graph.columns(), layers[d], nodes, injective)
        for node, score, hit in zip(nodes.tolist(), best.tolist(),
                                    reached.tolist()):
            banned = node if injective else None
            expected = reference_pull(want[d], neighbor_ids(graph, node),
                                      banned)
            assert hit == (expected is not None), node
            if hit:
                assert score == expected, (node, injective)
                top2 = want[d + 1].get(node)
                pushed = top2.best_excluding(banned)
                assert score == (float("-inf") if pushed is None
                                 else pushed)


# ---------------------------------------------------------------------------
# Tests
# ---------------------------------------------------------------------------
class TestKernels:
    @given(seed=st.integers(0, 12), seeds=SEEDS,
           d=st.sampled_from([1, 2, 3, 4]))
    @PROFILE
    def test_in_memory_with_parallel_edges(self, seed, seeds, d):
        graph = with_parallel_edges(seed)
        check_kernels(graph, seeds_of(graph, *seeds), d)

    @given(seed=st.integers(0, 12), ops=OPS, seeds=SEEDS,
           d=st.sampled_from([1, 2, 3, 4]))
    @PROFILE
    def test_after_mutations(self, seed, ops, seeds, d):
        graph = with_parallel_edges(seed)
        mutate(graph, ops)
        check_kernels(graph, seeds_of(graph, *seeds), d)

    @given(seed=st.integers(0, 12), base_ops=OPS, ops=OPS, seeds=SEEDS,
           d=st.sampled_from([1, 2, 3]))
    @PROFILE
    def test_store_at_base_then_overlay(self, tmp_path_factory, seed,
                                        base_ops, ops, seeds, d):
        graph = with_parallel_edges(seed)
        mutate(graph, base_ops)
        path = tmp_path_factory.mktemp("kernels") / "g.rkgs2"
        write_store(graph, path)
        mapped = open_graph(path)
        try:
            check_kernels(mapped, seeds_of(mapped, *seeds), d)
            mutate(mapped, ops)
            check_kernels(mapped, seeds_of(mapped, *seeds), d)
        finally:
            mapped.close()

    @given(ops=OPS, seeds=SEEDS, d=st.sampled_from([1, 2, 3]))
    @PROFILE
    def test_imported_rkgs1_snapshot(self, ops, seeds, d):
        graph = load_snapshot(RKGS1_FIXTURE)
        mutate(graph, ops)
        check_kernels(graph, seeds_of(graph, *seeds), d)

    def test_no_seeds_no_messages(self):
        graph = build_random_graph(1, 10, 20)
        layers = propagate(graph, {}, 3)
        assert len(layers) == 4
        assert all(layer.count() == 0 for layer in layers)


class TestBudgetTrips:
    @given(seed=st.integers(0, 12), seeds=SEEDS,
           d=st.sampled_from([1, 2, 3, 4]))
    @PROFILE
    def test_trip_at_each_round_boundary(self, seed, seeds, d):
        """A message cap that trips after round r, and a budget spent
        before round 1: the same layers, of the same shape, and the same
        charges as the walk."""
        graph = with_parallel_edges(seed)
        seeds = seeds_of(graph, *seeds)
        per_round = [len(layer) for layer in
                     reference_propagate(graph, seeds, d)[1:]]
        caps = [sum(per_round[:r + 1]) - 1 for r in range(d)]
        budgets = [lambda cap=cap: Budget(max_messages=cap, anytime=True)
                   for cap in caps if cap >= 0]
        budgets.append(lambda: Budget(deadline_ms=0, anytime=True))
        for make in budgets:
            mine, theirs = make(), make()
            got = propagate(graph, seeds, d, budget=mine)
            want = reference_propagate(graph, seeds, d, budget=theirs)
            assert_layers_equal(got, want)
            assert mine.messages_sent == theirs.messages_sent
            assert mine.exceeded_reason == theirs.exceeded_reason


class TestColumns:
    @given(seed=st.integers(0, 12), ops=OPS, batch=OPS,
           splice_cost=st.sampled_from([0, 10**9]))
    @PROFILE
    def test_rows_follow_every_mutation(self, seed, ops, batch, splice_cost):
        """One write or a batch of them at a time, with the touched rows
        spliced in (a zero splice cost) or the columns rebuilt."""
        graph = with_parallel_edges(seed)
        with mock.patch.object(kg_module, "_SPLICE_COST", splice_cost):
            assert_columns_are_rows(graph)
            for op in ops:
                mutate(graph, [op])
                assert_columns_are_rows(graph)
            mutate(graph, batch)
            assert_columns_are_rows(graph)

    def test_touched_rows_are_noted_only_while_there_are_columns(self):
        graph = with_parallel_edges(3)
        assert not graph._changed_rows  # built with no columns to splice into
        columns = graph.columns()
        _eid, src, dst = next(iter(graph.edges()))
        graph.add_edge(src, dst, "won")
        assert graph._changed_rows == {src, dst}
        with mock.patch.object(kg_module, "_SPLICE_COST", 1), \
                mock.patch.object(KnowledgeGraph, "_build_columns",
                                  side_effect=AssertionError("rebuilt")):
            spliced = graph.columns()
        assert spliced is not columns and not graph._changed_rows
        assert_columns_are_rows(graph)

    @given(seed=st.integers(0, 12), base_ops=OPS, ops=OPS)
    @PROFILE
    def test_store_rows_follow_every_overlay_mutation(
            self, tmp_path_factory, seed, base_ops, ops):
        graph = with_parallel_edges(seed)
        mutate(graph, base_ops)
        path = tmp_path_factory.mktemp("columns") / "g.rkgs2"
        write_store(graph, path)
        mapped = open_graph(path)
        try:
            assert_columns_are_rows(mapped)
            for op in ops:
                mutate(mapped, [op])
                assert_columns_are_rows(mapped)
        finally:
            mapped.close()

    def test_only_structure_or_relation_changes_rebuild_them(self):
        graph = with_parallel_edges(3)
        eid, src, dst = next(iter(graph.edges()))
        assert graph.edge(eid)[2].relation != "won"
        columns = graph.columns()
        graph.update_node_attrs(src, rev=1)
        graph.update_edge(eid, attrs_only=1)
        assert graph.columns() is columns
        graph.update_edge(eid, "won")
        assert graph.columns() is not columns
        assert_columns_are_rows(graph)
        columns = graph.columns()
        graph.remove_edge(eid)
        assert graph.columns() is not columns
        columns = graph.columns()
        graph.add_node("Fresh Node", "film")
        assert graph.columns() is not columns
        assert_columns_are_rows(graph)

    @given(seed=st.integers(0, 12), ops=OPS,
           picks=st.lists(st.integers(0, 10**6), max_size=10))
    @PROFILE
    def test_restricted_rows_are_the_seeds_rows_turned_around(
            self, seed, ops, picks):
        graph = with_parallel_edges(seed)
        mutate(graph, ops)
        nodes = sorted(graph.nodes())
        seeds = list(dict.fromkeys(nodes[i % len(nodes)] for i in picks))
        turned = graph.columns().restricted_to(np.array(seeds, dtype=np.int64))
        expected: Dict[int, List[int]] = {}
        for w in seeds:
            for nbr in neighbor_ids(graph, w):
                expected.setdefault(nbr, []).append(w)
        indptr = turned.indptr.tolist()
        assert len(indptr) == graph.columns().num_slots + 1
        for v in range(len(indptr) - 1):
            assert turned.indices[indptr[v]:indptr[v + 1]].tolist() == \
                expected.get(v, []), v

    @given(ops=OPS)
    @PROFILE
    def test_rkgs1_rows_follow_every_mutation(self, ops):
        graph = load_snapshot(RKGS1_FIXTURE)
        assert_columns_are_rows(graph)
        for op in ops:
            mutate(graph, [op])
            assert_columns_are_rows(graph)

    def test_store_at_base_hands_over_its_sections(self, tmp_path):
        graph = build_random_graph(2, 20, 40)
        write_store(graph, tmp_path / "g.rkgs2")
        mapped = open_graph(tmp_path / "g.rkgs2")
        try:
            columns = mapped.columns()
            store = mapped._store
            assert np.shares_memory(
                columns.indices,
                np.frombuffer(store.section("csr.indices"), np.uint32))
            assert not mapped._adj._cache and not mapped._edges._cache
            assert mapped.columns() is columns  # one build per adjacency
            mapped.neighbors(0)  # a row read is no mutation
            mapped._columns = None
            assert np.shares_memory(mapped.columns().indices,
                                    columns.indices)
            mapped.add_node("Fresh", "film")
            assert mapped.columns() is not columns
            assert_columns_are_rows(mapped)
        finally:
            mapped.close()


STAR = star_query(
    "Brad", [("acted_in", "Troy"), ("won", "?"), ("acted_in", "Troy")],
    pivot_type="actor")  # leaves 0 and 2 share one constraint


class TestLastHop:
    @given(seed=st.integers(0, 12), ops=OPS,
           picks=st.lists(st.integers(0, 10**6), max_size=14),
           d=st.sampled_from([2, 3, 4]), injective=st.booleans())
    @PROFILE
    def test_hop_d_candidates_equal_the_inverted_adjacency(
            self, seed, ops, picks, d, injective):
        graph = with_parallel_edges(seed)
        mutate(graph, ops)
        scorer = ScoringFunction(graph, ScoringConfig(edge_threshold=0.05))
        nodes = sorted(graph.nodes())
        shared = {nodes[i % len(nodes)]: 0.7 for i in picks[::2]}
        other = {nodes[i % len(nodes)]: 0.4 for i in picks[1::2]}
        leaf_maps = [shared, other, shared]
        provide = bounded_leaf_provider(scorer, STAR, {}, d, injective,
                                        leaf_maps=leaf_maps)
        for pivot in nodes:
            for entries, leaf_scores in zip(provide(pivot), leaf_maps):
                at_d = {w for _c, w, _n, _e, hops in entries if hops == d}
                assert at_d == reference_last_hop(graph, leaf_scores,
                                                  pivot, d), pivot


class TestFaultPoint:
    def test_a_columns_read_passes_the_neighbors_fault_point(self):
        scorer = ScoringFunction(build_random_graph(5, 12, 24))
        for mode, error in (("raise", InjectedFaultError),
                            ("corrupt", DataCorruptionError)):
            bad = faulty(scorer, specs=[
                FaultSpec("graph.neighbors", at_call=1, mode=mode)])
            assert bad.graph.columns() is scorer.graph.columns()
            with pytest.raises(error):
                propagate(bad.graph, {0: 0.5}, 2)
