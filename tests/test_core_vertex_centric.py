"""Tests for the vertex-centric (Pregel-style) propagation engine that
``benchmarks/bench_ablation_design.py`` measures."""

import pytest

from benchmarks.vertex_centric import (
    PregelEngine,
    StardPropagation,
    VertexProgram,
    propagate_vertex_centric,
)
from repro.core.messages import propagate
from repro.errors import SearchError
from repro.graph import KnowledgeGraph

from tests.test_message_kernels import as_top2


def path_graph(n):
    g = KnowledgeGraph()
    for i in range(n):
        g.add_node(f"v{i}")
    for i in range(n - 1):
        g.add_edge(i, i + 1)
    return g


class _Flood(VertexProgram):
    """Trivial program: every seeded vertex floods '1' for two rounds."""

    def initial_messages(self, graph):
        return {0: [1]}

    def compute(self, vertex, state, incoming, superstep):
        count = (state or 0) + len(incoming)
        return count, (incoming if superstep < 2 else [])


class TestEngine:
    def test_halts_when_no_messages(self):
        engine = PregelEngine(path_graph(5), num_workers=2)
        states = engine.run(_Flood(), max_supersteps=10)
        assert engine.supersteps_run <= 4
        assert states[0] >= 1

    def test_message_accounting(self):
        g = path_graph(3)
        engine = PregelEngine(g, num_workers=1)
        engine.run(_Flood(), max_supersteps=5)
        assert engine.messages_sent > 0
        assert engine.cross_partition_messages == 0  # single worker

    def test_cross_partition_counted(self):
        g = path_graph(6)
        engine = PregelEngine(g, num_workers=3)
        engine.run(_Flood(), max_supersteps=5)
        # Round-robin partitioning puts consecutive path vertices on
        # different workers: all traffic is cross-partition.
        assert engine.cross_partition_messages == engine.messages_sent

    def test_worker_count_never_changes_results(self):
        g = path_graph(8)
        results = []
        for workers in (1, 3, 5):
            layers, _engine = propagate_vertex_centric(
                g, {0: 0.9, 7: 0.4}, d=3, num_workers=workers
            )
            results.append(
                [sorted((v, t.s1) for v, t in layer.items())
                 for layer in layers]
            )
        assert results[0] == results[1] == results[2]

    def test_validation(self):
        g = path_graph(3)
        with pytest.raises(SearchError):
            PregelEngine(g, num_workers=0)
        with pytest.raises(SearchError):
            PregelEngine(g).run(_Flood(), max_supersteps=0)
        with pytest.raises(SearchError):
            StardPropagation({}, d=0)


class TestEquivalenceWithDirectPropagation:
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_path_graph(self, d):
        g = path_graph(7)
        seeds = {0: 0.9, 3: 0.5, 6: 0.7}
        direct = [as_top2(layer) for layer in propagate(g, seeds, d)]
        vc, _engine = propagate_vertex_centric(g, seeds, d)
        for hop in range(d + 1):
            assert set(direct[hop]) == set(vc[hop]), hop
            for v in direct[hop]:
                assert direct[hop][v].s1 == pytest.approx(vc[hop][v].s1)
                assert direct[hop][v].s2 == pytest.approx(vc[hop][v].s2)

    def test_real_graph(self, yago_graph, yago_scorer):
        from repro.core.candidates import node_candidates
        from repro.query import star_workload, StarQuery

        query = star_workload(yago_graph, 1, seed=71)[0]
        star = StarQuery.from_query(query)
        leaf = star.leaves[0][0]
        seeds = dict(node_candidates(yago_scorer, leaf))
        if not seeds:
            pytest.skip("no seeds for this workload query")
        direct = [as_top2(layer) for layer in propagate(yago_graph, seeds, 2)]
        vc, engine = propagate_vertex_centric(yago_graph, seeds, 2)
        for hop in range(3):
            assert set(direct[hop]) == set(vc[hop])
            for v in list(direct[hop])[:200]:
                assert direct[hop][v].s1 == pytest.approx(vc[hop][v].s1)
        # The Remark's bound: all propagation in <= d+1 rounds.
        assert engine.supersteps_run <= 3

    def test_combiner_bounds_inbox(self):
        """The Top2 combiner caps per-vertex work at 2 messages."""
        g = KnowledgeGraph()
        hub = g.add_node("hub")
        for i in range(10):
            leaf = g.add_node(f"l{i}")
            g.add_edge(hub, leaf)
        program = StardPropagation({i: 0.1 * i for i in range(1, 11)}, d=1)
        combined = program.combine([(0.1 * i, i) for i in range(1, 11)])
        assert len(combined) == 2
        assert combined[0][0] == pytest.approx(1.0)
        assert combined[1][0] == pytest.approx(0.9)
