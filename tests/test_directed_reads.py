"""Directed reads filter the one adjacency list.

A graph keeps one ``(neighbor, edge id)`` list per node;
``out_neighbors``, ``in_neighbors`` and ``grouped_relations(v, ±1)``
keep the entries whose edge leaves or enters ``v``.  The reference kept
here is the three-list model those reads replaced: every edge appended
to ``adj`` at both ends and to ``out[src]`` / ``in[dst]``, every removal
a ``list.remove`` from each.  After any sequence of mutations, an
in-memory graph, an mmap-opened store (its base written after some of
the mutations, its overlay taking the rest) and an imported RKGS1
snapshot must all read exactly the model's lists, in order.  A directed
read of a store row the overlay has not touched takes direction from
the ``csr.dirs`` column and materialises no edge record.
"""

from pathlib import Path
from typing import Dict, List, Tuple

from hypothesis import given, settings, strategies as st

from repro.dynamic.snapshot import load_snapshot
from repro.store import open_graph, write_store

from tests.conftest import build_random_graph
from tests.oracle import neighbor_ids

RKGS1_FIXTURE = Path(__file__).parent / "data" / "movies_v1.kgs"
RELATIONS = ["acted_in", "directed", "won", "born_in", "married_to"]
KINDS = ["add_node", "add_edge", "remove_edge", "remove_node", "update_edge"]


class ThreeLists:
    """The reference: ``adj`` / ``out`` / ``in`` lists per node, kept in
    step by every mutation, with each edge's relation label."""

    def __init__(self, graph) -> None:
        slots = graph.num_node_slots
        self.lists: Dict[int, List[List[Tuple[int, int]]]] = {
            orientation: [[] for _ in range(slots)]
            for orientation in (0, 1, -1)}
        self.ends: Dict[int, Tuple[int, int]] = {}
        self.relation: Dict[int, str] = {}
        for eid, src, dst in sorted(graph.edges()):
            self.add_edge(eid, src, dst, graph.edge(eid)[2].relation)

    def add_node(self) -> None:
        for rows in self.lists.values():
            rows.append([])

    def add_edge(self, eid: int, src: int, dst: int, relation: str) -> None:
        self.ends[eid] = (src, dst)
        self.relation[eid] = relation
        adj, out, inc = self.lists[0], self.lists[1], self.lists[-1]
        adj[src].append((dst, eid))
        adj[dst].append((src, eid))
        out[src].append((dst, eid))
        inc[dst].append((src, eid))

    def remove_edge(self, eid: int) -> None:
        src, dst = self.ends.pop(eid)
        del self.relation[eid]
        adj, out, inc = self.lists[0], self.lists[1], self.lists[-1]
        adj[src].remove((dst, eid))
        adj[dst].remove((src, eid))
        out[src].remove((dst, eid))
        inc[dst].remove((src, eid))

    def remove_node(self, node: int) -> None:
        for _nbr, eid in list(self.lists[0][node]):
            self.remove_edge(eid)

    def grouped(self, node: int, orientation: int):
        groups: Dict[int, List[str]] = {}
        for nbr, eid in self.lists[orientation][node]:
            groups.setdefault(nbr, []).append(self.relation[eid])
        return [(nbr, labels[0] if len(labels) == 1 else tuple(labels))
                for nbr, labels in groups.items()]


OPS = st.lists(
    st.tuples(st.sampled_from(KINDS), st.integers(0, 10**6),
              st.integers(0, 10**6), st.integers(0, 10**6)),
    max_size=24)


def apply(graph, model: ThreeLists, ops) -> None:
    """Resolve each drawn op against the graph's live ids and apply it
    to the graph and the model alike (ops with no target are skipped)."""
    for kind, x, y, z in ops:
        nodes = list(graph.nodes())
        edges = [eid for eid, _src, _dst in graph.edges()]
        if kind == "add_node":
            graph.add_node(f"Node {x}", RELATIONS[y % 5])
            model.add_node()
        elif kind == "add_edge":
            src, dst = nodes[x % len(nodes)], nodes[y % len(nodes)]
            if src != dst:
                relation = RELATIONS[z % 5]
                model.add_edge(graph.add_edge(src, dst, relation),
                               src, dst, relation)
        elif kind == "remove_edge" and edges:
            eid = edges[x % len(edges)]
            graph.remove_edge(eid)
            model.remove_edge(eid)
        elif kind == "remove_node" and len(nodes) > 2:
            node = nodes[x % len(nodes)]
            graph.remove_node(node)
            model.remove_node(node)
        elif kind == "update_edge" and edges:
            eid = edges[x % len(edges)]
            model.relation[eid] = RELATIONS[y % 5]
            graph.update_edge(eid, RELATIONS[y % 5])


def assert_reads_match(graph, model: ThreeLists) -> None:
    for node in graph.nodes():
        assert graph.neighbors(node) == model.lists[0][node], node
        assert graph.out_neighbors(node) == model.lists[1][node], node
        assert graph.in_neighbors(node) == model.lists[-1][node], node
        for orientation in (0, 1, -1):
            assert (graph.grouped_relations(node, orientation)
                    == model.grouped(node, orientation)), (node, orientation)


def assert_untouched_rows_read_no_edge(graph) -> None:
    """Directed reads of rows the overlay has not touched add nothing to
    the edge table's cache."""
    cached = set(graph._edges._cache)
    untouched = [node for node in graph.nodes()
                 if not graph._adj.touched(node)]
    for node in untouched:
        graph.out_neighbors(node)
        graph.in_neighbors(node)
    assert set(graph._edges._cache) == cached
    assert not any(graph._adj.touched(node) for node in untouched)


PROFILE = settings(max_examples=40, deadline=None, derandomize=True)


@given(seed=st.integers(0, 20), base_ops=OPS, ops=OPS)
@PROFILE
def test_in_memory_graph(seed, base_ops, ops):
    graph = build_random_graph(seed, 20, 40)
    model = ThreeLists(graph)
    apply(graph, model, base_ops + ops)
    assert_reads_match(graph, model)


@given(seed=st.integers(0, 20), base_ops=OPS, ops=OPS)
@PROFILE
def test_store_base_plus_overlay(tmp_path_factory, seed, base_ops, ops):
    graph = build_random_graph(seed, 20, 40)
    model = ThreeLists(graph)
    apply(graph, model, base_ops)
    path = tmp_path_factory.mktemp("directed") / "g.rkgs2"
    write_store(graph, path)
    mapped = open_graph(path)
    try:
        apply(mapped, model, ops)
        assert_untouched_rows_read_no_edge(mapped)
        assert_reads_match(mapped, model)
    finally:
        mapped.close()


@given(ops=OPS)
@PROFILE
def test_imported_rkgs1_snapshot(ops):
    graph = load_snapshot(RKGS1_FIXTURE)
    model = ThreeLists(graph)
    apply(graph, model, ops)
    assert_reads_match(graph, model)


def test_untouched_store_reads_materialise_nothing(tmp_path):
    """On a store no mutation has touched, every directed read -- lists
    and grouped rows -- comes off the ``csr.*`` columns."""
    graph = build_random_graph(3, 20, 40)
    model = ThreeLists(graph)
    write_store(graph, tmp_path / "g.rkgs2")
    mapped = open_graph(tmp_path / "g.rkgs2")
    try:
        for node in mapped.nodes():
            assert mapped.out_neighbors(node) == model.lists[1][node]
            assert mapped.in_neighbors(node) == model.lists[-1][node]
            for orientation in (1, -1):
                assert (mapped.grouped_relations(node, orientation)
                        == model.grouped(node, orientation))
        assert not mapped._edges._cache
        assert not mapped._adj._cache
    finally:
        mapped.close()


def test_rows_on_base_after_overlay_mutations_materialise_nothing(
        tmp_path):
    """Grouped rows come off the ``csr.*`` columns, building no edge
    record, for every row no edge was added to or removed from: one
    merely read into the overlay, and every row after an ``add_node`` or
    after an ``add_edge`` elsewhere; a search then reads the same answers
    as the in-memory graph with those mutations."""
    from repro.core.framework import Star
    from repro.query import star_query

    graph = build_random_graph(3, 20, 40)
    write_store(graph, tmp_path / "g.rkgs2")
    mapped = open_graph(tmp_path / "g.rkgs2")
    try:
        # at the base version, a row read into the overlay is no mutation
        mapped.neighbors(0)
        mapped.grouped_relations(0, 0)
        assert not mapped._edges._cache
        for target in (graph, mapped):
            fresh = target.add_node("Fresh Node", "film")
        model = ThreeLists(graph)
        assert mapped._adj.touched(0) and mapped._adj.on_base(0)
        for node in graph.nodes():
            assert (mapped.grouped_relations(node, 0)
                    == model.grouped(node, 0))
        assert not mapped._edges._cache
        for target in (graph, mapped):
            target.add_edge(fresh, 1, "acted_in")
        model = ThreeLists(graph)
        assert [node for node in graph.nodes()
                if not mapped._adj.on_base(node)] == [1, fresh]
        for node in graph.nodes():
            assert (mapped.grouped_relations(node, 0)
                    == model.grouped(node, 0))
            assert mapped.columns().indices[
                mapped.columns().indptr[node]:
                mapped.columns().indptr[node + 1]].tolist() == \
                neighbor_ids(graph, node)
        # only row 1's edges were built, for its own grouped read
        assert set(mapped._edges._cache) <= {
            eid for _nbr, eid in graph.neighbors(1)}
        star = star_query("?", [("acted_in", "?"), ("won", "?")],
                          pivot_type="actor")
        for d in (1, 2):
            want = [(m.score, m.key()) for m in Star(graph, d=d).search(
                star, 5)]
            got = [(m.score, m.key()) for m in Star(mapped, d=d).search(
                star, 5)]
            assert got == want and want
    finally:
        mapped.close()


def test_a_relabel_reaches_the_grouped_rows_of_both_ends(tmp_path):
    """``update_edge`` takes both ends' rows off base, so their next
    grouped read -- the first read of either row -- carries the new
    label rather than the ``csr.rels`` entry."""
    graph = build_random_graph(4, 20, 40)
    write_store(graph, tmp_path / "g.rkgs2")
    mapped = open_graph(tmp_path / "g.rkgs2")
    try:
        eid, src, dst = next(iter(graph.edges()))
        relation = next(r for r in RELATIONS
                        if r != graph.edge(eid)[2].relation)
        for target in (graph, mapped):
            target.update_edge(eid, relation)
        model = ThreeLists(graph)
        for node in (src, dst):
            for orientation in (0, 1, -1):
                assert (mapped.grouped_relations(node, orientation)
                        == model.grouped(node, orientation))
    finally:
        mapped.close()
