"""Dynamic-update subsystem: mutations, journal, fine-grained cache
invalidation, scorer refresh, snapshots, and mutation streams."""

from __future__ import annotations

import os

import pytest

from tests.conftest import (
    RKGS1_FIXTURE,
    build_movie_graph,
    build_mutated_movie_graph,
    build_random_graph,
)
from repro.core.framework import Star
from repro.dynamic import (
    Delta,
    DeltaJournal,
    apply_operation,
    apply_operations,
    load_any,
    load_operations,
    load_snapshot,
    save_operations,
)
from repro.errors import (
    DatasetError,
    GraphError,
    ScoringError,
    SnapshotCorruptionError,
)
from repro.eval.harness import disjoint_edge_stream
from repro.graph import KnowledgeGraph, load_graph, save_graph
from repro.perf import attach_cache
from repro.query.parser import parse_query
from repro.similarity.scoring import ScoringFunction
from repro import textutil

from tests.oracle import assert_same_results


# ----------------------------------------------------------------------
# Mutation API
# ----------------------------------------------------------------------
class TestMutations:
    def test_remove_edge(self):
        g = build_movie_graph()
        edges_before = g.num_edges
        src, dst, data = g.edge(0)
        removed = g.remove_edge(0)
        assert removed == data
        assert g.num_edges == edges_before - 1
        assert g.num_edge_slots == edges_before  # slot stays, tombstoned
        with pytest.raises(GraphError):
            g.edge(0)
        with pytest.raises(GraphError):
            g.remove_edge(0)
        assert (dst, 0) not in g.neighbors(src)
        assert (src, 0) not in g.neighbors(dst)

    def test_remove_node_cascades(self):
        g = build_movie_graph()
        victim = 0
        incident = [eid for _nbr, eid in g.neighbors(victim)]
        neighbors = [nbr for nbr, _eid in g.neighbors(victim)]
        nodes_before = g.num_nodes
        g.remove_node(victim)
        assert g.num_nodes == nodes_before - 1
        assert victim not in g
        assert not g.has_tombstones or g.num_node_slots == nodes_before
        with pytest.raises(GraphError):
            g.node(victim)
        for eid in incident:
            with pytest.raises(GraphError):
                g.edge(eid)
        for nbr in neighbors:
            assert all(n != victim for n, _e in g.neighbors(nbr))

    def test_ids_stable_after_removal(self):
        g = build_movie_graph()
        survivor_data = g.node(5)
        g.remove_node(2)
        assert g.node(5) == survivor_data  # same id still names same node
        new_id = g.add_node("Newcomer", "actor")
        assert new_id == g.num_node_slots - 1  # removed ids never reused

    def test_token_and_type_indexes_maintained(self):
        g = build_movie_graph()
        data = g.node(0)
        token = next(iter(data.tokens()))
        assert 0 in g.nodes_with_token(token)
        g.remove_node(0)
        assert 0 not in g.nodes_with_token(token)
        assert 0 not in g.nodes_of_type(data.type)
        assert 0 not in g.nodes_of_subtype(data.type)

    def test_types_drops_emptied_type(self):
        g = KnowledgeGraph("t")
        a = g.add_node("A", "onlytype")
        assert "onlytype" in g.types()
        g.remove_node(a)
        assert "onlytype" not in g.types()

    def test_vocabulary_drops_emptied_token(self):
        g = KnowledgeGraph("t")
        a = g.add_node("Zyzzyx", "place")
        assert "zyzzyx" in g.vocabulary()
        g.remove_node(a)
        assert "zyzzyx" not in g.vocabulary()

    def test_relations_refcounted(self):
        g = KnowledgeGraph("t")
        a, b, c = (g.add_node(n, "thing") for n in "abc")
        e1 = g.add_edge(a, b, "rel")
        e2 = g.add_edge(b, c, "rel")
        assert g.relations() == {"rel"}
        g.remove_edge(e1)
        assert g.relations() == {"rel"}
        g.remove_edge(e2)
        assert g.relations() == set()

    def test_max_degree_recomputed_on_removal(self):
        g = KnowledgeGraph("t")
        hub, a, b, c = (g.add_node(n, "thing") for n in "habc")
        eids = [g.add_edge(hub, other, "r") for other in (a, b, c)]
        assert g.max_degree == 3
        g.remove_edge(eids[0])
        assert g.max_degree == 2
        g.remove_node(hub)
        assert g.max_degree == 0

    def test_update_node_attrs_merges_and_deletes(self):
        g = KnowledgeGraph("t")
        a = g.add_node("A", "thing", born=1963, alive=True)
        g.update_node_attrs(a, born=None, oscar=1)
        assert g.node(a).attrs == {"alive": True, "oscar": 1}
        # name/type/keywords untouched; indexes still agree
        assert a in g.nodes_of_type("thing")

    def test_update_edge_relabel(self):
        g = KnowledgeGraph("t")
        a, b = g.add_node("A", "t"), g.add_node("B", "t")
        e = g.add_edge(a, b, "old", since=1999)
        g.update_edge(e, relation="new", since=None, until=2020)
        _s, _d, data = g.edge(e)
        assert data.relation == "new"
        assert data.attrs == {"until": 2020}
        assert g.relations() == {"new"}

    def test_add_edge_rejects_removed_endpoint(self):
        g = build_movie_graph()
        g.remove_node(3)
        with pytest.raises(GraphError):
            g.add_edge(0, 3, "r")

    def test_subtype_closure_maintained_incrementally(self):
        g = build_movie_graph()
        # Warm the lazily built closure, then mutate and compare against
        # a closure built from scratch on an equivalent graph.
        _ = g.nodes_of_subtype("person")
        g.remove_node(0)
        added = g.add_node("Fresh Actor", "actor")
        fresh = KnowledgeGraph("fresh")
        for node_id in g.nodes():
            data = g.node(node_id)
            fresh.add_node(data.name, data.type, data.keywords)
        expected_types = {fresh.node(i).type for i in fresh.nodes()}
        live = g.nodes_of_subtype("person")
        assert 0 not in live
        assert added in live


# ----------------------------------------------------------------------
# Delta journal
# ----------------------------------------------------------------------
class TestJournal:
    def test_each_mutation_appends_one_delta(self):
        g = KnowledgeGraph("t")
        a = g.add_node("A", "t")
        b = g.add_node("B", "t")
        e = g.add_edge(a, b, "r")
        g.update_edge(e, relation="r2")
        g.remove_edge(e)
        g.remove_node(b)
        assert g.version == 6
        assert len(g.journal) == 6
        assert g.journal.latest_version == 6

    def test_since_semantics(self):
        g = KnowledgeGraph("t", journal_limit=4)
        for i in range(6):
            g.add_node(f"N{i}", "t")
        assert g.delta_since(g.version).empty
        assert g.delta_since(g.version - 2).count == 2
        # Trimmed past: versions 1..2 are gone (limit 4, latest 6).
        assert g.delta_since(0) is None
        assert g.delta_since(1) is None
        assert g.delta_since(2) is not None

    def test_stats_changed_flags(self):
        g = KnowledgeGraph("t")
        a = g.add_node("A", "t")
        b = g.add_node("B", "t")
        c = g.add_node("C", "t")
        assert g.journal.entries()[-1].stats_changed  # node count moved
        g.add_edge(a, b, "r")
        assert g.journal.entries()[-1].stats_changed  # max degree 0 -> 1
        e = g.add_edge(a, c, "r")  # max degree 1 -> 2
        assert g.journal.entries()[-1].stats_changed
        g.add_edge(b, c, "r")  # degrees 2,2: max unchanged
        assert not g.journal.entries()[-1].stats_changed
        relabel = g.update_edge(e, relation="r9")
        last = g.journal.entries()[-1]
        assert not last.stats_changed
        assert last.nodes == frozenset()  # relabels touch no nodes
        assert last.relations == {"r", "r9"}

    def test_journal_limit_validation(self):
        with pytest.raises(ValueError):
            DeltaJournal(limit=0)

    def test_delta_record_round_trip(self):
        delta = Delta(3, "remove_node", nodes=frozenset({1, 2}),
                      tokens=frozenset({"tok"}), types=frozenset({"t"}),
                      relations=frozenset({"r"}), stats_changed=True)
        clone = Delta.from_record(delta.as_record())
        assert (clone.version, clone.kind, clone.nodes, clone.tokens,
                clone.types, clone.relations, clone.stats_changed) == (
                    delta.version, delta.kind, delta.nodes, delta.tokens,
                    delta.types, delta.relations, delta.stats_changed)


# ----------------------------------------------------------------------
# Fine-grained cache invalidation
# ----------------------------------------------------------------------
def _warm_engine(graph, query, k=5):
    engine = Star(graph, d=1)
    cache = attach_cache(engine.scorer)
    baseline = engine.search(query, k)
    return engine, cache, baseline


class TestCacheInvalidation:
    QUERY = "(?m:person) -[?]- (Brad Pitt:person)"

    def test_survival_on_disjoint_relabel(self):
        g = build_random_graph(seed=5, num_nodes=120, num_edges=260)
        query = parse_query(self.QUERY, name="t")
        engine, cache, baseline = _warm_engine(g, query)
        g.update_edge(0, relation="zz_unrelated")  # touches zero nodes
        engine.scorer.refresh()
        again = engine.search(query, 5)
        assert cache.stats.survivals > 0
        assert cache.stats.invalidations == 0
        assert_same_results(again, baseline)

    def test_survival_on_disjoint_edge_inserts(self):
        g = build_random_graph(seed=5, num_nodes=120, num_edges=260)
        query = parse_query(self.QUERY, name="t")
        engine, cache, baseline = _warm_engine(g, query)
        footprint = frozenset().union(
            *(entry.deps[0] for entry in cache._data.values()))
        stream = disjoint_edge_stream(g, 20, avoid=footprint, seed=3)
        assert stream, "graph too small to build a disjoint stream"
        applied = apply_operations(g, stream)
        engine.scorer.refresh()
        again = engine.search(query, 5)
        assert cache.stats.survivals > 0
        assert cache.stats.invalidations == 0
        # Parity with a from-scratch engine on the mutated graph.
        cold = Star(g, d=1).search(query, 5)
        assert_same_results(again, cold)
        assert_same_results(again, baseline)
        assert applied == len(stream)

    def test_invalidation_when_footprint_touched(self):
        g = build_random_graph(seed=5, num_nodes=120, num_edges=260)
        query = parse_query(self.QUERY, name="t")
        engine, cache, _ = _warm_engine(g, query)
        touched = next(iter(next(
            entry.deps[0] for entry in cache._data.values()
            if entry.deps and entry.deps[0]
        )))
        g.update_node_attrs(touched, flag=True)
        engine.scorer.refresh()
        before = cache.stats.invalidations
        again = engine.search(query, 5)
        assert cache.stats.invalidations > before
        cold = Star(g, d=1).search(query, 5)
        assert_same_results(again, cold)

    def test_full_invalidation_on_stats_change(self):
        g = build_random_graph(seed=5, num_nodes=120, num_edges=260)
        query = parse_query(self.QUERY, name="t")
        engine, cache, _ = _warm_engine(g, query)
        g.add_node("Totally Unrelated", "place")  # IDF denominators move
        engine.scorer.refresh()
        again = engine.search(query, 5)
        assert cache.stats.invalidations > 0
        assert cache.stats.survivals == 0
        cold = Star(g, d=1).search(query, 5)
        assert_same_results(again, cold)

    def test_journal_overflow_invalidates_conservatively(self):
        g = build_random_graph(seed=5, num_nodes=120, num_edges=260)
        g.journal.limit = 4
        g.journal._entries = type(g.journal._entries)(
            g.journal._entries, 4)
        query = parse_query(self.QUERY, name="t")
        engine, cache, _ = _warm_engine(g, query)
        for record in disjoint_edge_stream(g, 6, seed=9):
            apply_operation(g, record)
        engine.scorer = ScoringFunction(g, engine.scorer.config)
        attach_cache(engine.scorer, cache)
        again = engine.search(query, 5)
        assert cache.stats.invalidations > 0  # diff window lost -> rebuild
        cold = Star(g, d=1).search(query, 5)
        assert_same_results(again, cold)

    def test_legacy_api_still_works(self):
        cache = attach_cache(ScoringFunction(build_movie_graph()))
        cache.put(("k", 1), (1, 2, 3))
        assert cache.get(("k", 1)) == (1, 2, 3)
        assert cache.stats.hits == 1 and cache.stats.misses == 0

    def test_stats_dict_round_trip_includes_dynamic_counters(self):
        from repro.perf import CacheStats

        stats = CacheStats(hits=2, survivals=3, invalidations=1)
        clone = CacheStats.from_dict(stats.as_dict())
        assert clone == stats
        merged = CacheStats().merge(stats).merge(stats)
        assert merged.survivals == 6 and merged.invalidations == 2


# ----------------------------------------------------------------------
# Scorer refresh
# ----------------------------------------------------------------------
class TestScorerRefresh:
    def test_assert_graph_unchanged_guides_to_refresh(self):
        g = build_movie_graph()
        scorer = ScoringFunction(g)
        g.add_node("New", "actor")
        with pytest.raises(ScoringError, match="refresh"):
            scorer.assert_graph_unchanged()
        assert scorer.refresh() is True
        scorer.assert_graph_unchanged()
        assert scorer.refresh() is False  # idempotent

    @pytest.mark.parametrize("mutate", [
        lambda g: g.add_node("Extra Person", "actor"),
        lambda g: g.remove_node(7),
        lambda g: g.remove_edge(2),
        lambda g: g.update_node_attrs(0, note=1),
        lambda g: g.update_edge(0, relation="reworked"),
        lambda g: g.add_edge(8, 9, "new_link"),
    ])
    def test_refresh_matches_fresh_scorer(self, mutate):
        g = build_movie_graph()
        scorer = ScoringFunction(g)
        query = parse_query("(?m:film) -[?]- (Brad Pitt:actor)", name="t")
        engine = Star(g, scorer=scorer, d=1)
        engine.search(query, 5)  # warm every memo
        mutate(g)
        scorer.refresh()
        warm = engine.search(query, 5)
        cold = Star(g, d=1).search(query, 5)
        assert_same_results(warm, cold)


# ----------------------------------------------------------------------
# Save / load round trips (whatever the binary format; today RKGS2)
# ----------------------------------------------------------------------
class TestSnapshot:
    _mutated_graph = staticmethod(build_mutated_movie_graph)

    def test_round_trip_equality(self, tmp_path):
        g = self._mutated_graph()
        path = tmp_path / "graph.kgs"
        g.save(path)
        assert path.read_bytes()[:6] == b"RKGS2\0"
        loaded = KnowledgeGraph.load(path)
        assert loaded.version == g.version
        assert list(loaded.nodes()) == list(g.nodes())
        assert list(loaded.edges()) == list(g.edges())
        for node_id in g.nodes():
            assert loaded.node(node_id) == g.node(node_id)
            assert loaded.neighbors(node_id) == g.neighbors(node_id)
        assert loaded.max_degree == g.max_degree
        assert loaded.relations() == g.relations()
        assert loaded.vocabulary() == g.vocabulary()
        assert loaded.types() == g.types()
        assert loaded.uid != g.uid
        assert len(loaded.journal) == len(g.journal)

    def test_double_save_byte_identical(self, tmp_path):
        g = self._mutated_graph()
        p1, p2 = tmp_path / "a.kgs", tmp_path / "b.kgs"
        g.save(p1)
        KnowledgeGraph.load(p1).save(p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_search_parity_after_load(self, tmp_path):
        g = self._mutated_graph()
        path = tmp_path / "graph.kgs"
        g.save(path)
        loaded = KnowledgeGraph.load(path)
        query = parse_query("(?m:film) -[?]- (Brad Pitt:actor)", name="t")
        assert_same_results(
            Star(loaded, d=1).search(query, 5),
            Star(g, d=1).search(query, 5),
        )

    def test_journal_survives_restart(self, tmp_path):
        g = self._mutated_graph()
        watermark = g.version - 2
        expected = g.delta_since(watermark)
        path = tmp_path / "graph.kgs"
        g.save(path)
        loaded = KnowledgeGraph.load(path)
        got = loaded.delta_since(watermark)
        assert got.count == expected.count
        assert got.nodes == expected.nodes
        assert got.stats_changed == expected.stats_changed

    def test_load_clears_token_memo(self, tmp_path):
        g = build_movie_graph()
        path = tmp_path / "graph.kgs"
        g.save(path)
        textutil.tokenize_tuple("memo warm entry")
        assert textutil.token_memo_info().currsize > 0
        KnowledgeGraph.load(path)
        assert textutil.token_memo_info().currsize == 0

    def test_corruption_detected(self, tmp_path):
        raw = bytearray(RKGS1_FIXTURE.read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        bad = tmp_path / "bad.kgs"
        bad.write_bytes(bytes(raw))
        with pytest.raises(SnapshotCorruptionError):
            load_snapshot(bad)
        with pytest.raises(SnapshotCorruptionError):
            load_any(bad)
        notmagic = tmp_path / "x.kgs"
        notmagic.write_bytes(b"NOPE" + bytes(raw[4:]))
        with pytest.raises(DatasetError, match="bad magic"):
            load_snapshot(notmagic)
        with pytest.raises(DatasetError, match="not found"):
            load_snapshot(tmp_path / "missing.kgs")

    def test_unsupported_format_version(self, tmp_path):
        raw = bytearray(RKGS1_FIXTURE.read_bytes())
        raw[4] = 99  # format-version byte
        path = tmp_path / "graph.kgs"
        path.write_bytes(bytes(raw))
        with pytest.raises(DatasetError, match="snapshot format version 99"):
            load_snapshot(path)

    def test_load_any_sniffs_both_formats(self, tmp_path):
        """One graph at rest three ways -- line-JSON, the RKGS v1
        fixture, an RKGS2 store -- loads to equal graphs and rankings.
        (A loop, not a parameter: the test keeps its id.)"""
        g = self._mutated_graph()
        query = parse_query("(?m:film) -[?]- (Brad Pitt:actor)", name="t")
        assert Star(g, d=1).search(query, 5)
        store = tmp_path / "g.rkgs2"
        g.save(store)
        # Line-JSON is positional, so it holds the same graph compacted:
        # ids renumber, names and rankings by name do not.
        dense, dense_path = build_movie_graph(), tmp_path / "g.kg"
        save_graph(dense, dense_path)
        loaded = {}
        for path, magic, source in ((RKGS1_FIXTURE, b"RKGS\x01", g),
                                    (store, b"RKGS2", g),
                                    (dense_path, b'{"ver', dense)):
            assert path.read_bytes()[:5] == magic
            got = loaded[magic] = load_any(path)
            assert list(got.nodes()) == list(source.nodes())
            assert list(got.edges()) == list(source.edges())
            assert [got.node(v) for v in got.nodes()] == \
                [source.node(v) for v in source.nodes()]
            assert got.version == source.version
            assert_same_results(Star(got, d=1).search(query, 5),
                                Star(source, d=1).search(query, 5))
        # ... and the two binary files agree with each other past the
        # node lists: tombstones and the journal tail.
        old, new = loaded[b"RKGS\x01"], loaded[b"RKGS2"]
        assert old.has_tombstones and new.has_tombstones
        assert old.num_node_slots == new.num_node_slots
        assert [d.as_record() for d in old.journal.entries()] == \
            [d.as_record() for d in new.journal.entries()]

    def test_line_json_refuses_tombstones(self, tmp_path):
        g = self._mutated_graph()
        with pytest.raises(DatasetError, match="snapshot"):
            save_graph(g, tmp_path / "g.kg")
        # The positional format still loads/saves dense graphs.
        dense = build_movie_graph()
        save_graph(dense, tmp_path / "dense.kg")
        assert load_graph(tmp_path / "dense.kg").num_nodes == dense.num_nodes


# ----------------------------------------------------------------------
# Operation streams
# ----------------------------------------------------------------------
class TestOps:
    OPS = [
        ["add_node", "A", "actor", ["star"], {"born": 1963}],
        ["add_node", "B", "film"],
        ["add_node", "C", "actor"],
        ["add_edge", 0, 1, "acted_in", {"year": 2004}],
        ["add_edge", 2, 1, "acted_in"],
        ["remove_edge", 1],
        ["remove_node", 2],
        ["update_node_attrs", 0, {"born": None, "oscar": True}],
        ["update_edge", 0, "starred_in"],
    ]

    def test_replay_is_deterministic(self):
        g1, g2 = KnowledgeGraph("a"), KnowledgeGraph("a")
        apply_operations(g1, self.OPS)
        apply_operations(g2, self.OPS)
        assert list(g1.nodes()) == list(g2.nodes())
        assert list(g1.edges()) == list(g2.edges())
        assert g1.node(0) == g2.node(0)
        assert g1.version == g2.version

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "ops.jsonl"
        save_operations(self.OPS, path)
        loaded = load_operations(path)
        assert loaded == self.OPS
        g = KnowledgeGraph("t")
        assert apply_operations(g, loaded) == len(self.OPS)
        assert g.num_nodes == 2 and g.num_edges == 1

    def test_comments_and_blanks_skipped(self, tmp_path):
        path = tmp_path / "ops.jsonl"
        path.write_text('# header\n\n["add_node", "A", "t"]\n')
        assert load_operations(path) == [["add_node", "A", "t"]]

    def test_malformed_records_raise(self, tmp_path):
        g = KnowledgeGraph("t")
        with pytest.raises(DatasetError, match="unknown operation"):
            apply_operation(g, ["frobnicate", 1])
        with pytest.raises(DatasetError, match="malformed"):
            apply_operation(g, ["add_edge", "not-an-int", None])
        with pytest.raises(DatasetError):
            apply_operation(g, "not-a-list")
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"not": "a list"}\n')
        with pytest.raises(DatasetError, match="array"):
            load_operations(bad)
        bad.write_text("not json\n")
        with pytest.raises(DatasetError, match="invalid JSON"):
            load_operations(bad)

    def test_graph_errors_propagate(self):
        g = KnowledgeGraph("t")
        with pytest.raises(GraphError):
            apply_operation(g, ["remove_node", 5])


# ----------------------------------------------------------------------
# Tombstone-aware auxiliary structures
# ----------------------------------------------------------------------
class TestTombstoneAwareness:
    def test_workload_generation_on_mutated_graph(self):
        from repro.query.workload import star_workload

        g = build_random_graph(seed=11, num_nodes=60, num_edges=120)
        g.remove_node(0)
        g.remove_node(59)
        queries = star_workload(g, 5, seed=3)
        assert queries


# ----------------------------------------------------------------------
# Token memo (satellite)
# ----------------------------------------------------------------------
class TestTokenMemo:
    def teardown_method(self):
        textutil.configure_token_memo(textutil.DEFAULT_TOKEN_MEMO_SIZE)

    def test_identity_memoization(self):
        assert (textutil.tokenize_tuple("Brad Pitt")
                is textutil.tokenize_tuple("Brad Pitt"))

    def test_clear(self):
        textutil.tokenize_tuple("Some Warm Entry")
        assert textutil.token_memo_info().currsize > 0
        textutil.clear_token_memo()
        assert textutil.token_memo_info().currsize == 0

    def test_configure_size(self):
        textutil.configure_token_memo(2)
        for text in ("aa bb", "cc dd", "ee ff"):
            textutil.tokenize_tuple(text)
        assert textutil.token_memo_info().currsize <= 2
        assert textutil.token_memo_info().maxsize == 2
        with pytest.raises(ValueError):
            textutil.configure_token_memo(-1)

    def test_env_override(self):
        argv = [
            "-c",
            "import repro.textutil as t; import sys; "
            "sys.exit(0 if t.token_memo_info().maxsize == 123 else 1)",
        ]
        import subprocess
        import sys as _sys

        env = dict(os.environ, REPRO_TOKEN_MEMO_SIZE="123",
                   PYTHONPATH="src")
        proc = subprocess.run([_sys.executable, *argv], env=env,
                              cwd=os.path.dirname(os.path.dirname(
                                  os.path.abspath(__file__))))
        assert proc.returncode == 0


# ----------------------------------------------------------------------
# CLI commands
# ----------------------------------------------------------------------
class TestCli:
    def test_snapshot_and_search(self, tmp_path, capsys):
        from repro.cli import main

        g = build_movie_graph()
        json_path = tmp_path / "g.kg"
        save_graph(g, json_path)
        snap, store = tmp_path / "g.kgs", tmp_path / "g.rkgs2"
        assert main(["snapshot", str(json_path), str(snap)]) == 0
        assert snap.read_bytes()[:6] == b"RKGS2\0"
        # ``snapshot`` is ``compact`` under its old name.
        assert main(["compact", str(json_path), str(store)]) == 0
        assert snap.read_bytes() == store.read_bytes()
        capsys.readouterr()
        assert main([
            "search", str(snap), "(?m:film) -[?]- (Brad Pitt:actor)", "-k", "3",
        ]) == 0
        out = capsys.readouterr().out
        assert "match(es)" in out

    def test_apply_delta(self, tmp_path, capsys):
        from repro.cli import main

        g = build_movie_graph()
        json_path = tmp_path / "g.kg"
        save_graph(g, json_path)
        ops_path = tmp_path / "ops.jsonl"
        save_operations([
            ["add_node", "Fresh Face", "actor"],
            ["remove_edge", 0],
        ], ops_path)
        out_path = tmp_path / "mutated.kgs"
        assert main([
            "apply-delta", str(json_path), str(ops_path), str(out_path),
        ]) == 0
        mutated = KnowledgeGraph.load(out_path)
        assert mutated.num_nodes == g.num_nodes + 1
        assert mutated.num_edges == g.num_edges - 1
        assert mutated.has_tombstones
        out = capsys.readouterr().out
        assert "applied 2 operation(s)" in out

        # A second delta lands on its own input store, which ``mutated``
        # still has mapped: the file is replaced, not rewritten in place.
        save_operations([["remove_edge", 1]], ops_path)
        assert main([
            "apply-delta", str(out_path), str(ops_path), str(out_path),
        ]) == 0
        again = KnowledgeGraph.load(out_path)
        assert again.num_edges == g.num_edges - 2
        assert again.version == mutated.version + 1
        assert again.delta_since(mutated.version).count == 1
        assert mutated.num_edges == g.num_edges - 1  # the old mapping holds
        assert [p.name for p in tmp_path.iterdir() if ".tmp" in p.name] == []
