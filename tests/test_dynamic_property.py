"""Hypothesis differential tests: random mutate/search interleavings must
match a from-scratch rebuild byte-for-byte (the dynamic-update oracle).

The graph's relation-grouped rows (``grouped_relations``, the star leaf
fetch's one adjacency read) are checked against their definition after
every mutation batch: in memory, and on a store-backed graph first from
its columns and then through its overlay."""

from __future__ import annotations

import random

from hypothesis import given, settings, strategies as st

from repro.core.framework import Star
from repro.dynamic import apply_operation, apply_operations
from repro.eval.harness import disjoint_edge_stream
from repro.graph import KnowledgeGraph
from repro.perf import attach_cache
from repro.query.parser import parse_query

from tests.conftest import build_random_graph
from tests.oracle import assert_grouped_relations, assert_same_results

_TYPES = ("actor", "director", "film", "award", "place")
_RELATIONS = ("acted_in", "directed", "won", "born_in", "married_to")
_QUERIES = (
    "(?m:person) -[?]- (?f:film)",
    "(?m:actor) -[acted_in]- (?f:film)",
    "(?m:person) -[?]- (Entity 7 Beta:person)",
)


def _base_ops(rng, num_nodes=24, num_edges=40):
    """Op records that build a random-but-valid starting graph."""
    ops = [
        ["add_node", f"Entity {i} {rng.choice(['Alpha', 'Beta', 'Gamma'])}",
         rng.choice(_TYPES)]
        for i in range(num_nodes)
    ]
    seen = set()
    while sum(1 for op in ops if op[0] == "add_edge") < num_edges:
        a, b = rng.randrange(num_nodes), rng.randrange(num_nodes)
        if a == b or (a, b) in seen:
            continue
        seen.add((a, b))
        ops.append(["add_edge", a, b, rng.choice(_RELATIONS)])
    return ops


def _random_mutation(rng, graph):
    """One valid mutation record against the graph's current state."""
    live_nodes = list(graph.nodes())
    live_edges = [eid for eid, _s, _d in graph.edges()]
    choices = ["add_node", "add_edge", "update_node_attrs"]
    if live_edges:
        choices += ["remove_edge", "update_edge"]
    if len(live_nodes) > 4:
        choices.append("remove_node")
    kind = rng.choice(choices)
    if kind == "add_node":
        return ["add_node", f"Late {rng.randrange(10**6)}",
                rng.choice(_TYPES)]
    if kind == "add_edge":
        for _ in range(20):
            a, b = rng.sample(live_nodes, 2)
            return ["add_edge", a, b, rng.choice(_RELATIONS)]
    if kind == "remove_edge":
        return ["remove_edge", rng.choice(live_edges)]
    if kind == "remove_node":
        return ["remove_node", rng.choice(live_nodes)]
    if kind == "update_node_attrs":
        return ["update_node_attrs", rng.choice(live_nodes),
                {"touched": rng.randrange(100)}]
    return ["update_edge", rng.choice(live_edges),
            rng.choice(_RELATIONS)]


def _relabel(rng, graph):
    """An ``update_edge`` record that really changes a relation label."""
    eid, _src, _dst = rng.choice(list(graph.edges()))
    current = graph.edge(eid)[2].relation
    return ["update_edge", eid,
            rng.choice([r for r in _RELATIONS if r != current])]


class TestMutateSearchOracle:
    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=25, deadline=None)
    def test_interleaved_mutations_match_rebuild(self, seed):
        rng = random.Random(seed)
        applied = _base_ops(rng)
        live = KnowledgeGraph("live")
        apply_operations(live, applied)
        engine = Star(live, d=1)
        attach_cache(engine.scorer)

        query = parse_query(rng.choice(_QUERIES), name="q")
        for _round in range(3):
            for _ in range(rng.randint(1, 4)):
                # Generate against the *current* state so a record never
                # names an id a previous record in the batch removed.
                record = _random_mutation(rng, live)
                apply_operation(live, record)
                applied.append(record)
            record = _relabel(rng, live)
            apply_operation(live, record)
            applied.append(record)
            # Rows packed in earlier rounds survive unless a mutation
            # touched their node.
            assert_grouped_relations(live)
            engine.scorer.refresh()
            got = engine.search(query, 5)

            # Oracle: replay the identical op sequence into a fresh graph
            # and search with a cold engine (no cache, no memos to reuse).
            fresh = KnowledgeGraph("fresh")
            apply_operations(fresh, applied)
            expected = Star(fresh, d=1).search(query, 5)
            assert_same_results(got, expected)

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=10, deadline=None)
    def test_snapshot_of_mutated_graph_matches_rebuild(self, seed, tmp_path_factory):
        rng = random.Random(seed)
        applied = _base_ops(rng)
        live = KnowledgeGraph("live")
        apply_operations(live, applied)
        for _ in range(5):
            record = _random_mutation(rng, live)
            apply_operation(live, record)
            applied.append(record)

        path = tmp_path_factory.mktemp("snap") / f"g{seed}.kgs"
        live.save(path)
        loaded = KnowledgeGraph.load(path)

        fresh = KnowledgeGraph("fresh")
        apply_operations(fresh, applied)
        query = parse_query(rng.choice(_QUERIES), name="q")
        assert_same_results(
            Star(loaded, d=1).search(query, 5),
            Star(fresh, d=1).search(query, 5),
        )

        # Rows filled from the store's columns, then the overlay's: a
        # relabel, a parallel edge and one more random mutation.
        assert_grouped_relations(loaded)
        _eid, src, dst = next(loaded.edges())
        for record in (_relabel(rng, loaded), ["add_edge", dst, src, "won"],
                       _random_mutation(rng, loaded)):
            apply_operation(loaded, record)
            assert_grouped_relations(loaded)


class TestDisjointMutationSurvival:
    def test_survivals_nonzero_for_disjoint_mutations(self):
        graph = build_random_graph(seed=23, num_nodes=150, num_edges=320)
        query = parse_query("(?m:person) -[?]- (Brad Pitt:person)", name="q")
        engine = Star(graph, d=1)
        cache = attach_cache(engine.scorer)
        baseline = engine.search(query, 5)
        assert engine.search(query, 5) is not None  # warm hit pass
        assert cache.stats.hits > 0

        footprint = frozenset().union(
            *(entry.deps[0] for entry in cache._data.values()
              if entry.deps))
        stream = disjoint_edge_stream(graph, 30, avoid=footprint, seed=7)
        assert stream
        apply_operations(graph, stream)
        engine.scorer.refresh()
        after = engine.search(query, 5)

        assert cache.stats.survivals > 0
        assert cache.stats.invalidations == 0
        assert_same_results(after, baseline)
