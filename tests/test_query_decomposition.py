"""Tests for query decomposition (Section VI-B)."""

import pytest

from repro.errors import DecompositionError
from repro.query import METHODS, Query, decompose
from repro.query.decomposition import NodeStatisticsSampler, _assign_edges
from repro.similarity import ScoringFunction

from tests.conftest import build_random_graph, triangle_query


def cycle_query(n: int) -> Query:
    q = Query(name=f"cycle{n}")
    for i in range(n):
        q.add_node(f"n{i}")
    for i in range(n):
        q.add_edge(i, (i + 1) % n)
    return q


def double_star_query() -> Query:
    """Two hubs sharing a bridge node (the Fig. 10 shape)."""
    q = Query(name="double-star")
    a = q.add_node("A")
    u = q.add_node("U")
    b = q.add_node("B")
    a1 = q.add_node("A1")
    b1 = q.add_node("B1")
    q.add_edge(a, u)
    q.add_edge(u, b)
    q.add_edge(a, a1)
    q.add_edge(b, b1)
    return q


class TestInvariants:
    """Every method must produce an edge partition covered by pivots."""

    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("builder", [lambda: cycle_query(4),
                                         lambda: cycle_query(5),
                                         double_star_query])
    def test_edge_partition(self, method, builder, yago_scorer):
        query = builder()
        result = decompose(query, method, scorer=yago_scorer)
        covered = []
        for star in result.stars:
            covered.extend(e.id for _leaf, e in star.leaves)
        assert sorted(covered) == [e.id for e in query.edges]

    @pytest.mark.parametrize("method", METHODS)
    def test_stars_are_anchored_at_pivots(self, method, yago_scorer):
        query = double_star_query()
        result = decompose(query, method, scorer=yago_scorer)
        assert len(result.stars) == len(result.pivots)
        for star, pivot in zip(result.stars, result.pivots):
            assert star.pivot.id == pivot

    def test_star_input_passthrough(self, yago_scorer):
        q = Query()
        c = q.add_node("center")
        l1 = q.add_node("leaf")
        q.add_edge(c, l1)
        result = decompose(q, "simsize")
        assert result.num_stars == 1

    def test_single_node_query(self):
        q = Query()
        q.add_node("only")
        result = decompose(q, "rand")
        assert result.num_stars == 1
        assert result.stars[0].num_edges == 0


class TestMethods:
    def test_unknown_method_rejected(self):
        with pytest.raises(DecompositionError):
            decompose(cycle_query(4), "magic")

    def test_scorer_required_for_feature_methods(self):
        for method in ("simtop", "simdec"):
            with pytest.raises(DecompositionError):
                decompose(cycle_query(4), method, scorer=None)

    def test_maxdeg_picks_high_degree_pivot(self, yago_scorer):
        q = Query()
        hub = q.add_node("hub")
        for i in range(4):
            leaf = q.add_node(f"l{i}")
            q.add_edge(hub, leaf)
        tail = q.add_node("tail")
        q.add_edge(1, tail)
        result = decompose(q, "maxdeg")
        assert hub in result.pivots

    def test_minimal_star_count(self, yago_scorer):
        """Optimized methods return the first feasible (minimal) m."""
        query = cycle_query(4)  # needs exactly 2 stars
        for method in ("simsize", "simtop", "simdec"):
            result = decompose(query, method, scorer=yago_scorer)
            assert result.num_stars == 2

    def test_rand_deterministic_per_seed(self, yago_scorer):
        a = decompose(cycle_query(5), "rand", seed=3)
        b = decompose(cycle_query(5), "rand", seed=3)
        assert a.pivots == b.pivots

    def test_simsize_balances(self, yago_scorer):
        """SimSize prefers stars of similar edge counts."""
        query = cycle_query(6)  # 6 edges; balanced = 2 stars of 3 or 3+3
        result = decompose(query, "simsize", scorer=yago_scorer)
        sizes = [star.num_edges for star in result.stars]
        assert max(sizes) - min(sizes) <= 1

    def test_joint_nodes(self, yago_scorer):
        result = decompose(cycle_query(4), "simsize")
        assert len(result.joint_nodes()) >= 1


class TestSampler:
    def test_stats_shape(self, yago_scorer):
        q = Query()
        q.add_node("Brad", type="actor")
        sampler = NodeStatisticsSampler(yago_scorer, sample_size=100, seed=1)
        top1, mean, est = sampler.stats(q.nodes[0])
        assert 0.0 <= mean <= top1 <= 1.0
        assert est >= 1.0

    @pytest.mark.parametrize("method", ["simtop", "simdec"])
    def test_samples_live_nodes_after_removals(self, method):
        graph = build_random_graph(0)
        for node in (0, 3, 7):
            graph.remove_node(node)
        decomposition = decompose(triangle_query(), method=method,
                                  scorer=ScoringFunction(graph))
        assert decomposition.stars

    def test_stats_cached(self, yago_scorer):
        q = Query()
        q.add_node("Brad")
        sampler = NodeStatisticsSampler(yago_scorer, sample_size=50, seed=1)
        assert sampler.stats(q.nodes[0]) is sampler.stats(q.nodes[0])


class TestAssignEdges:
    def test_forced_and_flexible(self):
        query = double_star_query()
        assignment = _assign_edges(query, [0, 2])  # pivots A and B
        assert assignment is not None
        assert len(assignment[0]) == 2 and len(assignment[2]) == 2

    def test_non_cover_returns_none(self):
        query = double_star_query()
        assert _assign_edges(query, [3]) is None  # leaf node covers nothing
