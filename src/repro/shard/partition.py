"""Pivot ownership for sharded star search.

A partition assigns every live node to exactly one *owner* shard
(disjoint, exhaustive) by a splitmix64-mixed hash of its id, and that is
all it decides.  Every shard worker reads the whole graph (fork
inheritance), so a shard scores leaves and propagates over exactly what
a single process would; restricting only its *pivot* candidates to its
owned set then makes it produce precisely the global matches whose pivot
it owns (Lemma 1 applies per pivot), with globally computed scores.
Disjoint ownership makes shard outputs disjoint, so the global merge is
a duplicate-free rank join.  A node's owner depends on its id and the
shard count alone, so a mutation never moves an existing node.
"""

from __future__ import annotations

from typing import FrozenSet, Tuple

from repro.errors import SearchError

__all__ = ["GraphPartition", "partition_graph"]

_M64 = (1 << 64) - 1


def _mix(x: int) -> int:
    """splitmix64 finalizer: decorrelates dense node ids from shard ids."""
    x = (x + 0x9E3779B97F4A7C15) & _M64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _M64
    return (x ^ (x >> 31)) & _M64


class GraphPartition:
    """An immutable pivot-ownership assignment over one graph version."""

    __slots__ = ("num_shards", "graph_uid", "graph_version", "owned",
                 "num_nodes")

    def __init__(self, num_shards: int, graph_uid: int, graph_version: int,
                 owned: Tuple[FrozenSet[int], ...], num_nodes: int) -> None:
        self.num_shards = num_shards
        self.graph_uid = graph_uid
        self.graph_version = graph_version
        #: Disjoint, exhaustive owner sets (pivot scopes).
        self.owned = owned
        self.num_nodes = num_nodes

    @property
    def replication_factor(self) -> float:
        """Graph copies read per node: every worker reads the whole
        graph, so this is the shard count."""
        return float(self.num_shards)


def partition_graph(graph, num_shards: int) -> GraphPartition:
    """Hash the live nodes of *graph* into *num_shards* owner sets.

    Raises:
        SearchError: for a non-positive shard count.
    """
    if num_shards < 1:
        raise SearchError(f"num_shards must be >= 1, got {num_shards}")
    owned = [set() for _ in range(num_shards)]
    for node_id in graph.nodes():
        owned[_mix(node_id) % num_shards].add(node_id)
    return GraphPartition(
        num_shards, graph.uid, graph.version,
        tuple(frozenset(s) for s in owned), sum(map(len, owned)),
    )
