"""Unit tests for the core knowledge-graph structure."""

import gc
import random
import sys
import threading

import pytest

from repro.errors import GraphError
from repro.graph import KnowledgeGraph, dbpedia_like
from repro.graph.knowledge_graph import subgraph_view
from repro.textutil import tokenize

from tests.conftest import build_random_graph
from tests.oracle import reference_grouped_relations


class TestTokenize:
    def test_basic(self):
        assert tokenize("Brad Pitt (actor)") == ["brad", "pitt", "actor"]

    def test_empty(self):
        assert tokenize("") == []

    def test_numbers_kept(self):
        assert tokenize("Blade Runner 2049") == ["blade", "runner", "2049"]

    def test_underscores_split(self):
        assert tokenize("born_in") == ["born", "in"]


class TestConstruction:
    def test_add_node_returns_sequential_ids(self):
        g = KnowledgeGraph()
        assert g.add_node("A") == 0
        assert g.add_node("B") == 1
        assert g.num_nodes == 2

    def test_add_edge_links_both_directions(self):
        g = KnowledgeGraph()
        a, b = g.add_node("A"), g.add_node("B")
        eid = g.add_edge(a, b, "likes")
        assert (b, eid) in g.neighbors(a)
        assert (a, eid) in g.neighbors(b)
        assert g.out_neighbors(a) == [(b, eid)]
        assert g.in_neighbors(b) == [(a, eid)]
        assert g.out_neighbors(b) == []

    def test_edge_data(self):
        g = KnowledgeGraph()
        a, b = g.add_node("A"), g.add_node("B")
        eid = g.add_edge(a, b, "likes", since=2001)
        src, dst, data = g.edge(eid)
        assert (src, dst) == (a, b)
        assert data.relation == "likes"
        assert data.attrs == {"since": 2001}

    def test_self_loop_rejected(self):
        g = KnowledgeGraph()
        a = g.add_node("A")
        with pytest.raises(GraphError):
            g.add_edge(a, a)

    def test_bad_endpoint_rejected(self):
        g = KnowledgeGraph()
        a = g.add_node("A")
        with pytest.raises(GraphError):
            g.add_edge(a, 5)

    def test_parallel_edges_allowed(self):
        g = KnowledgeGraph()
        a, b = g.add_node("A"), g.add_node("B")
        g.add_edge(a, b, "r1")
        g.add_edge(a, b, "r2")
        assert g.degree(a) == 2

    def test_max_degree_tracked(self):
        g = KnowledgeGraph()
        hub = g.add_node("hub")
        for i in range(5):
            leaf = g.add_node(f"leaf{i}")
            g.add_edge(hub, leaf)
        assert g.max_degree == 5


class TestAccessErrors:
    def test_unknown_node(self):
        g = KnowledgeGraph()
        with pytest.raises(GraphError):
            g.node(0)

    def test_unknown_edge(self):
        g = KnowledgeGraph()
        with pytest.raises(GraphError):
            g.edge(0)

    def test_negative_node_id(self):
        g = KnowledgeGraph()
        g.add_node("A")
        with pytest.raises(GraphError):
            g.neighbors(-1)

    def test_contains(self):
        g = KnowledgeGraph()
        g.add_node("A")
        assert 0 in g
        assert 1 not in g
        assert "x" not in g


class TestIndexes:
    def test_token_index(self, movie_graph):
        hits = movie_graph.nodes_with_token("brad")
        assert len(hits) == 1
        assert movie_graph.node(next(iter(hits))).name == "Brad Pitt"

    def test_token_index_includes_type_and_keywords(self):
        g = KnowledgeGraph()
        v = g.add_node("X", "actor", ["drama"])
        assert v in g.nodes_with_token("actor")
        assert v in g.nodes_with_token("drama")

    def test_nodes_matching_any(self, movie_graph):
        hits = movie_graph.nodes_matching_any(["brad", "kathryn"])
        names = {movie_graph.node(v).name for v in hits}
        assert names == {"Brad Pitt", "Kathryn Bigelow"}

    def test_type_index(self, movie_graph):
        actors = movie_graph.nodes_of_type("actor")
        assert {movie_graph.node(v).name for v in actors} == {
            "Brad Pitt", "Angelina Jolie"
        }

    def test_types_and_relations(self, movie_graph):
        assert set(movie_graph.types()) >= {"actor", "director", "film", "award"}
        assert "acted_in" in movie_graph.relations()

    def test_vocabulary(self, movie_graph):
        assert "pitt" in movie_graph.vocabulary()

    def test_unknown_token_empty(self, movie_graph):
        assert movie_graph.nodes_with_token("nonexistent") == frozenset()


class TestNodeData:
    def test_tokens(self, movie_graph):
        data = movie_graph.node(0)
        assert data.tokens() >= {"brad", "pitt", "actor", "drama"}

    def test_describe(self, movie_graph):
        text = movie_graph.describe(0)
        assert "Brad Pitt" in text and "actor" in text


class TestSubgraphView:
    def test_induced_subgraph(self, movie_graph):
        sub = subgraph_view(movie_graph, [0, 4, 5])  # Brad, Troy, Boyhood
        assert sub.num_nodes == 3
        # Brad-Troy and Brad-Boyhood edges survive.
        assert sub.num_edges == 2
        assert {sub.node(v).name for v in sub.nodes()} == {
            "Brad Pitt", "Troy", "Boyhood"
        }

    def test_empty_selection(self, movie_graph):
        sub = subgraph_view(movie_graph, [])
        assert sub.num_nodes == 0
        assert sub.num_edges == 0

    def test_repr(self, movie_graph):
        assert "movies" in repr(movie_graph)


class TestLazyMaxDegree:
    """Regression: node removal defers (not skips) the max-degree rescan."""

    def _hub_graph(self):
        g = KnowledgeGraph()
        hub = g.add_node("hub", "actor")
        spokes = [g.add_node(f"spoke {i}", "actor") for i in range(6)]
        for s in spokes:
            g.add_edge(hub, s, "r")
        g.add_edge(spokes[0], spokes[1], "r")
        return g, hub, spokes

    def test_tombstoned_hub_lowers_max_degree(self):
        g, hub, _spokes = self._hub_graph()
        assert g.max_degree == 6
        g.remove_node(hub)
        # The rescan is deferred (dirty flag), but the property resolves.
        assert g._max_degree_dirty is True
        assert g.max_degree == 1
        assert g._max_degree_dirty is False

    def test_low_degree_removal_skips_rescan(self):
        g, _hub, _spokes = self._hub_graph()
        x = g.add_node("x", "actor")
        y = g.add_node("y", "actor")
        g.add_edge(x, y, "r")
        assert g.max_degree == 6  # resolve anything pending
        g.remove_node(x)  # it and its neighbor are far below the max
        assert g._max_degree_dirty is False
        assert g.max_degree == 6

    def test_max_neighbor_removal_triggers_rescan(self):
        g, _hub, spokes = self._hub_graph()
        assert g.max_degree == 6
        g.remove_node(spokes[5])  # neighbor of the max-degree hub
        assert g._max_degree_dirty is True
        assert g.max_degree == 5

    def test_removal_cascade_defers_until_read(self):
        g, hub, spokes = self._hub_graph()
        g.remove_node(hub)
        g.remove_node(spokes[0])
        g.remove_node(spokes[1])
        assert g.max_degree == 0
        assert g.num_nodes == 4

    def test_add_edge_stats_exact_while_dirty(self):
        g = KnowledgeGraph()
        a, b, c = g.add_node("a"), g.add_node("b"), g.add_node("c")
        g.add_edge(a, b, "r")
        g.add_edge(a, c, "r")
        g.remove_node(a)  # true max drops 2 -> 0, rescan deferred
        assert g._max_degree_dirty
        eid = g.add_edge(b, c, "r")
        # add_edge resolved the stale maximum before comparing, so the
        # new degree-1 edge correctly registers as the (new) maximum.
        assert not g._max_degree_dirty
        assert g.max_degree == 1
        delta = [d for d in g.journal.entries() if d.kind == "add_edge"][-1]
        assert delta.stats_changed is True
        g.remove_edge(eid)
        assert g.max_degree == 0

    def test_remove_edge_recheck_honors_dirty_flag(self):
        g, hub, spokes = self._hub_graph()
        g.remove_node(hub)  # max stale at 6, dirty
        eid = [e for e, _s, _d in g.edges()][0]  # spoke0 - spoke1
        g.remove_edge(eid)
        assert g._max_degree_dirty is False
        assert g.max_degree == 0

    def test_snapshot_saves_resolved_max_degree(self, tmp_path):
        g, hub, _spokes = self._hub_graph()
        g.remove_node(hub)  # dirty at save time
        path = tmp_path / "g.kgs"
        g.save(path)
        loaded = KnowledgeGraph.load(path)
        assert loaded._max_degree_dirty is False
        assert loaded.max_degree == 1
        assert loaded.max_degree == g.max_degree


class TestSubtypeClosureImmutability:
    """``nodes_of_subtype`` returns immutable views on every path."""

    def _typed_graph(self):
        g = KnowledgeGraph()
        g.add_node("A", "actor")
        g.add_node("D", "director")
        g.add_node("P", "person")
        g.add_node("F", "film")
        return g

    def test_fresh_and_cached_results_are_frozenset(self):
        g = self._typed_graph()
        first = g.nodes_of_subtype("person")
        assert isinstance(first, frozenset)
        assert isinstance(g.nodes_of_subtype("person"), frozenset)
        assert isinstance(g.nodes_of_subtype(""), frozenset)
        assert isinstance(g.nodes_of_subtype("no-such-type"), frozenset)

    def test_caller_cannot_corrupt_closure(self):
        g = self._typed_graph()
        view = g.nodes_of_subtype("person")
        with pytest.raises(AttributeError):
            view.add(999)  # frozenset: no mutation API
        assert g.nodes_of_subtype("person") == view

    def test_incrementally_maintained_closure_stays_immutable(self):
        g = self._typed_graph()
        before = g.nodes_of_subtype("person")
        new = g.add_node("N", "actor")  # joins the cached person closure
        after = g.nodes_of_subtype("person")
        assert isinstance(after, frozenset)
        assert new in after
        assert before == after - {new}  # old view unaffected (no aliasing)
        g.remove_node(new)
        shrunk = g.nodes_of_subtype("person")
        assert isinstance(shrunk, frozenset)
        assert shrunk == before

    def test_snapshot_reload_closure_immutable(self, tmp_path):
        g = self._typed_graph()
        g.nodes_of_subtype("person")  # populate the cache pre-save
        path = tmp_path / "g.kgs"
        g.save(path)
        loaded = KnowledgeGraph.load(path)
        view = loaded.nodes_of_subtype("person")
        assert isinstance(view, frozenset)
        assert view == g.nodes_of_subtype("person")


class TestGroupedRelations:
    """The packed, relation-grouped neighbor rows (their mutate ≡
    rebuild check is ``tests/test_matrix.py``'s storage axis)."""

    def test_parallel_edges_group_in_list_order(self):
        g = KnowledgeGraph()
        a, b, c = g.add_node("A"), g.add_node("B"), g.add_node("C")
        g.add_edge(a, b, "r1")
        g.add_edge(a, c, "r3")
        g.add_edge(b, a, "r2")
        assert g.grouped_relations(a) == [(b, ("r1", "r2")), (c, "r3")]
        assert g.grouped_relations(a, 1) == [(b, "r1"), (c, "r3")]
        assert g.grouped_relations(a, -1) == [(b, "r2")]
        with pytest.raises(ValueError):
            g.grouped_relations(a, 2)
        with pytest.raises(GraphError):
            g.grouped_relations(99)

    def test_threads_share_one_pack(self):
        g = build_random_graph(seed=5, num_nodes=300, num_edges=1200)
        expected = {(v, o): reference_grouped_relations(g, v, o)
                    for v in g.nodes() for o in (0, 1, -1)}
        keys = list(expected)
        mismatches = []

        def read_all(seed):
            order = keys[:]
            random.Random(seed).shuffle(order)
            for v, o in order:
                if g.grouped_relations(v, o) != expected[v, o]:
                    mismatches.append((v, o))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=read_all, args=(seed,))
                       for seed in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert mismatches == []
        # One packed copy of each row, however many threads asked.
        assert len(g._rows) == sum(1 + 2 * len(row)
                                   for row in expected.values())

    def test_hub_churn_keeps_the_arena_bounded(self):
        g = build_random_graph(seed=9, num_nodes=60, num_edges=200)
        hub = g.add_node("hub")
        for leaf in range(50):
            g.add_edge(hub, leaf, "likes")
        for v in g.nodes():
            g.grouped_relations(v)
        for cycle in range(1000):
            eid = g.add_edge(hub, cycle % 50, "new")
            g.grouped_relations(hub)
            g.remove_edge(eid)
            g.grouped_relations(hub, cycle % 3 - 1)
            live = len(g._rows) - g._rows_dead
            assert len(g._rows) <= 2 * live
        for v in g.nodes():
            for o in (0, 1, -1):
                assert g.grouped_relations(v, o) == (
                    reference_grouped_relations(g, v, o))

    def test_packing_adds_no_per_row_objects(self):
        # A per-row Python object would put every packed row in front of
        # the garbage collector (a full collection over them once showed
        # up in a first answer).  Tracked objects may grow by the interned
        # parallel-label tuples only, and those hold strings, so one
        # collection untracks them.
        g = dbpedia_like(0.5, 7)
        gc.collect()
        gc.disable()
        try:
            before = len(gc.get_objects())
            for v in g.nodes():
                for o in (0, 1, -1):
                    g.grouped_relations(v, o)
            packed = len(gc.get_objects())
        finally:
            gc.enable()
        gc.collect()
        after = len(gc.get_objects())
        rows = len(g._row_at)
        tuples = sum(1 for label in g._labels if isinstance(label, tuple))
        assert rows == 3 * g.num_nodes
        assert packed - before <= tuples + 8 < rows // 10
        assert after - before <= 8
