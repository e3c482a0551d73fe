"""Differential fuzzing: mmap-backed store vs in-memory graph.

Satellite of the zero-copy store PR.  The contract: a graph opened with
:func:`repro.store.open_graph` (optionally with its index columns
attached via :func:`repro.store.attach_mmap_index`) returns *identical*
results to the in-memory graph it was compacted from -- same scores,
same rankings, same :class:`EngineStats` candidate counts -- across
every engine (stark / stard / starjoin), ``use_index`` on and off,
sharded and single-process, before and after overlay mutations.

Hypothesis drives random graphs, queries and mutation sequences; the
comparisons reuse :mod:`tests.oracle`.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.framework import Star
from repro.similarity import ScoringFunction
from repro.store import attach_mmap_index, open_graph, write_store

from tests.conftest import (
    build_movie_graph,
    build_random_graph,
    star_of,
    triangle_query,
)
from tests.oracle import ALGORITHMS, assert_same_results, run_algorithm

# One store file per graph seed, shared across hypothesis re-runs.
_STORE_DIR = Path(tempfile.mkdtemp(prefix="repro-store-diff-"))
_PAIRS = {}


def graph_pair(seed: int):
    """(in-memory graph, mmap graph over its compacted store)."""
    if seed not in _PAIRS:
        graph = build_random_graph(seed)
        path = _STORE_DIR / f"g{seed}.rkgs2"
        write_store(graph, path)
        _PAIRS[seed] = (graph, open_graph(path))
    return _PAIRS[seed]


class TestAlgorithmParity:
    @given(
        seed=st.integers(min_value=0, max_value=25),
        algorithm=st.sampled_from(ALGORITHMS),
        size_choice=st.integers(min_value=0, max_value=2),
        k=st.integers(min_value=1, max_value=6),
    )
    @settings(max_examples=40, deadline=None)
    def test_every_engine_identical_on_mmap_graph(
        self, seed, algorithm, size_choice, k
    ):
        graph, mgraph = graph_pair(seed)
        query = (triangle_query() if algorithm == "starjoin"
                 else star_of(size_choice))
        got_mem = run_algorithm(algorithm, ScoringFunction(graph),
                                query, k, d=2)
        got_map = run_algorithm(algorithm, ScoringFunction(mgraph),
                                query, k, d=2)
        assert_same_results(got_map, got_mem)


class TestIndexParity:
    @given(
        seed=st.integers(min_value=0, max_value=15),
        use_index=st.sampled_from(["on", "off"]),
        k=st.integers(min_value=1, max_value=5),
    )
    @settings(max_examples=30, deadline=None)
    def test_attached_index_matches_built_index(self, seed, use_index, k):
        graph, mgraph = graph_pair(seed)
        query = star_of(1)
        mem = Star(graph, d=2, use_index=use_index)
        got_mem = mem.search(query, k)
        scorer = ScoringFunction(mgraph)
        if use_index != "off":
            scorer.graph_index = attach_mmap_index(mgraph, mgraph,
                                                   mode=use_index)
        mapped = Star(mgraph, scorer=scorer, d=2, use_index=use_index)
        got_map = mapped.search(query, k)
        assert_same_results(got_map, got_mem)
        # Candidate accounting must match too: an attached index that
        # prunes differently would still "pass" on tiny k otherwise.
        assert mapped.last_engine_stats == mem.last_engine_stats

    def test_movie_graph_stats_parity_all_modes(self, tmp_path):
        graph = build_movie_graph()
        path = tmp_path / "movies.rkgs2"
        write_store(graph, path)
        mgraph = open_graph(path)
        query = triangle_query()
        for use_index in ("auto", "on", "off"):
            mem = Star(graph, d=2, use_index=use_index)
            got_mem = mem.search(query, 5)
            scorer = ScoringFunction(mgraph)
            if use_index != "off":
                scorer.graph_index = attach_mmap_index(
                    mgraph, mgraph, mode=use_index)
            mapped = Star(mgraph, scorer=scorer, d=2, use_index=use_index)
            got_map = mapped.search(query, 5)
            assert_same_results(got_map, got_mem)
            assert mapped.last_engine_stats == mem.last_engine_stats


class TestShardedParity:
    def test_sharded_mmap_matches_single_process(self, tmp_path):
        from repro.shard import ShardedEngine

        graph = build_random_graph(3, num_nodes=40, num_edges=90)
        path = tmp_path / "g.rkgs2"
        write_store(graph, path)
        mgraph = open_graph(path)
        query = triangle_query()
        single = Star(graph, d=2, use_index="on")
        got_single = single.search(query, 6)
        scorer = ScoringFunction(mgraph)
        scorer.graph_index = attach_mmap_index(mgraph, mgraph, mode="on")
        engine = ShardedEngine(mgraph, scorer=scorer, shards=3, d=2,
                               use_index="on")
        try:
            got_sharded = engine.search(query, 6)
        finally:
            engine.close()
        assert_same_results(got_sharded, got_single)


class TestMutationParity:
    # Each op mutates the in-memory twin and the mmap overlay the same
    # way; ids are deterministic so both graphs stay bit-for-bit equal.
    @given(
        seed=st.integers(min_value=0, max_value=10),
        ops=st.lists(
            st.tuples(st.sampled_from(["add_node", "add_edge",
                                       "remove_edge", "remove_node",
                                       "update_attrs"]),
                      st.integers(min_value=0, max_value=10 ** 6)),
            min_size=1, max_size=12,
        ),
        k=st.integers(min_value=1, max_value=5),
    )
    @settings(max_examples=25, deadline=None)
    def test_search_parity_after_mutations(self, seed, ops, k):
        graph = build_random_graph(seed)
        with tempfile.TemporaryDirectory(prefix="repro-mut-") as tmp:
            path = Path(tmp) / "mut.rkgs2"
            write_store(graph, path)
            mgraph = open_graph(path)
            self._check(graph, mgraph, ops, k)

    def _check(self, graph, mgraph, ops, k):
        for op, arg in ops:
            self._apply(graph, op, arg)
            self._apply(mgraph, op, arg)
        assert sorted(graph.nodes()) == sorted(mgraph.nodes())
        assert sorted(graph.edges()) == sorted(mgraph.edges())
        assert graph.version == mgraph.version
        query = star_of(0)
        got_mem = run_algorithm("stark", ScoringFunction(graph),
                                query, k, d=2)
        got_map = run_algorithm("stark", ScoringFunction(mgraph),
                                query, k, d=2)
        assert_same_results(got_map, got_mem)
        mgraph.close()

    @staticmethod
    def _apply(graph, op: str, arg: int) -> None:
        nodes = sorted(graph.nodes())
        edges = sorted(eid for eid, _s, _d in graph.edges())
        if op == "add_node":
            graph.add_node(f"Node {arg}", "film", [f"kw{arg % 7}"])
        elif op == "add_edge" and len(nodes) >= 2:
            src = nodes[arg % len(nodes)]
            dst = nodes[(arg // 7) % len(nodes)]
            if src != dst:
                graph.add_edge(src, dst, "won")
        elif op == "remove_edge" and edges:
            graph.remove_edge(edges[arg % len(edges)])
        elif op == "remove_node" and len(nodes) > 4:
            graph.remove_node(nodes[arg % len(nodes)])
        elif op == "update_attrs" and nodes:
            graph.update_node_attrs(nodes[arg % len(nodes)], year=arg)

    def test_mutated_overlay_recompacts_identically(self, tmp_path):
        graph = build_movie_graph()
        first = tmp_path / "a.rkgs2"
        write_store(graph, first)
        mgraph = open_graph(first)
        for g in (graph, mgraph):
            nid = g.add_node("Se7en", "film", ["thriller"])
            g.add_edge(0, nid, "acted_in")
            g.remove_node(9)
        second = tmp_path / "b.rkgs2"
        write_store(mgraph, second)
        refolded = open_graph(second)
        assert refolded.version == graph.version
        assert sorted(refolded.nodes()) == sorted(graph.nodes())
        assert sorted(refolded.edges()) == sorted(graph.edges())
        got_mem = run_algorithm("stark", ScoringFunction(graph),
                                star_of(0), 5, d=2)
        got_map = run_algorithm("stark", ScoringFunction(refolded),
                                star_of(0), 5, d=2)
        assert_same_results(got_map, got_mem)


class TestGraphAccessorParity:
    @given(seed=st.integers(min_value=0, max_value=25))
    @settings(max_examples=25, deadline=None)
    def test_structure_and_labels_identical(self, seed):
        graph, mgraph = graph_pair(seed)
        assert sorted(mgraph.nodes()) == sorted(graph.nodes())
        assert sorted(mgraph.edges()) == sorted(graph.edges())
        assert mgraph.num_nodes == graph.num_nodes
        assert mgraph.num_edges == graph.num_edges
        assert mgraph.max_degree == graph.max_degree
        assert sorted(mgraph.types()) == sorted(graph.types())
        assert sorted(mgraph.token_dfs()) == sorted(graph.token_dfs())
        for v in graph.nodes():
            assert mgraph.node(v) == graph.node(v)
            assert sorted(mgraph.neighbors(v)) == sorted(graph.neighbors(v))
            assert (sorted(mgraph.out_neighbors(v))
                    == sorted(graph.out_neighbors(v)))
            assert (sorted(mgraph.in_neighbors(v))
                    == sorted(graph.in_neighbors(v)))
            assert mgraph.degree(v) == graph.degree(v)
