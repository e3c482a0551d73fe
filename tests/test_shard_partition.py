"""Tests for the pivot ownership behind sharded execution.

The exactness of sharded search rests on one structural invariant
checked here: owner sets are disjoint and exhaustive, so shard outputs
are disjoint and together cover every pivot (each worker reads the
whole graph for everything else).
"""

from __future__ import annotations

import pytest

from repro.errors import SearchError
from repro.shard import partition_graph

from tests.conftest import build_movie_graph, build_random_graph


class TestInvariants:
    @pytest.mark.parametrize("num_shards", (1, 2, 3, 5),
                             ids=lambda n: f"{n}-hash")
    def test_owned_disjoint_and_exhaustive(self, num_shards):
        graph = build_random_graph(4)
        part = partition_graph(graph, num_shards)
        nodes = set(graph.nodes())
        union = set()
        total = 0
        for members in part.owned:
            union |= members
            total += len(members)
        assert union == nodes
        assert total == len(nodes)  # disjoint: sizes add up exactly
        assert part.num_nodes == len(nodes)

    def test_deterministic(self):
        graph = build_random_graph(6)
        a = partition_graph(graph, 4)
        b = partition_graph(graph, 4)
        assert a.owned == b.owned

    def test_a_mutation_moves_no_existing_node(self):
        graph = build_random_graph(6)
        before = partition_graph(graph, 3)
        fresh = graph.add_node("fresh node", "actor")
        after = partition_graph(graph, 3)
        for old, new in zip(before.owned, after.owned):
            assert old <= new and new - old <= {fresh}

    def test_single_shard_fast_path(self):
        graph = build_movie_graph()
        part = partition_graph(graph, 1)
        assert part.owned == (frozenset(graph.nodes()),)
        assert part.replication_factor == 1.0

    def test_replication_factor_is_the_shard_count(self):
        # Every worker reads the whole graph: one copy per shard.
        part = partition_graph(build_random_graph(3), 4)
        assert part.replication_factor == 4.0


class TestValidation:
    def test_bad_shard_count(self):
        with pytest.raises(SearchError):
            partition_graph(build_movie_graph(), 0)

    def test_version_recorded(self):
        graph = build_movie_graph()
        part = partition_graph(graph, 2)
        assert part.graph_uid == graph.uid
        assert part.graph_version == graph.version
