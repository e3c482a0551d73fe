"""Cross-algorithm agreement on a second topology (schema-generated).

The main property tests run on random and movie-domain graphs; this file
repeats the agreement checks on a structurally different domain (a
citation network built with the user-facing Schema API) to guard against
topology-specific bugs.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines import GraphTA, brute_force_star, brute_force_topk
from repro.core import Star, StarDSearch, StarKSearch
from repro.graph.schema import Schema
from repro.query import Query, StarQuery, star_query

from tests.conftest import scorer_for


def citation_graph(seed: int):
    schema = Schema(name=f"citations-{seed}")
    schema.add_node_type("author", share=0.35, name_style="person")
    schema.add_node_type("paper", share=0.45, name_style="title")
    schema.add_node_type("venue", share=0.1, name_style="org")
    schema.add_node_type("topic", share=0.1, name_style="generic")
    schema.add_relation("wrote", "author", "paper", weight=3.0)
    schema.add_relation("cites", "paper", "paper", weight=2.0)
    schema.add_relation("published_at", "paper", "venue", weight=1.0)
    schema.add_relation("about", "paper", "topic", weight=1.0)
    schema.add_relation("advises", "author", "author", weight=0.5)
    return schema.generate(num_nodes=250, avg_degree=5.0, seed=seed)


class TestCitationTopology:
    @given(
        seed=st.integers(min_value=0, max_value=25),
        k=st.integers(min_value=1, max_value=5),
        d=st.integers(min_value=1, max_value=2),
    )
    @settings(max_examples=20, deadline=None)
    def test_star_matchers_agree(self, seed, k, d):
        scorer = scorer_for(seed, graph=citation_graph)
        star = star_query(
            "?", [("wrote", "?"), ("advises", "?")],
            pivot_type="author", leaf_types=["paper", "author"],
        )
        want = [round(m.score, 9) for m in
                brute_force_star(scorer, star, k, d=d)]
        assert [round(m.score, 9) for m in
                StarKSearch(scorer, d=d).search(star, k)] == want
        assert [round(m.score, 9) for m in
                StarDSearch(scorer, d=d).search(star, k)] == want

    @given(seed=st.integers(min_value=0, max_value=15))
    @settings(max_examples=10, deadline=None)
    def test_cyclic_join_agrees(self, seed):
        scorer = scorer_for(seed, graph=citation_graph)
        # paper cites paper; both share a venue: a triangle pattern.
        query = Query(name="cite-triangle")
        a = query.add_node("?", type="paper")
        b = query.add_node("?", type="paper")
        v = query.add_node("?", type="venue")
        query.add_edge(a, b, "cites")
        query.add_edge(a, v, "published_at")
        query.add_edge(b, v, "published_at")
        want = [round(m.score, 8) for m in
                brute_force_topk(scorer, query, 3)]
        engine = Star(scorer.graph, scorer=scorer,
                      decomposition_method="maxdeg")
        assert [round(m.score, 8) for m in engine.search(query, 3)] == want
        assert [round(m.score, 8) for m in
                GraphTA(scorer).search(query, 3)] == want
