"""``repro.shard``: partitioned parallel execution of star searches.

The scalability experiments (Fig. 15) are embarrassingly parallel in
the pivot dimension: a star query's matches are generated per candidate
pivot, and any disjoint split of the pivot universe splits the work.
This package makes that operational:

* :mod:`repro.shard.partition` -- hash ownership of the pivot set: each
  shard owns a disjoint slice of the nodes as pivots and reads the whole
  graph for everything else;
* :mod:`repro.shard.executor` -- :class:`ShardedEngine`: per-shard fork
  workers streaming the matches pivoted at their owned nodes (graph and
  index inherited through the fork), merged in two rounds -- each
  shard's top k, then the ties at the merged k-th score from the shards
  whose k-th score ties it -- into an exact global top-k, byte-identical
  to single-shard execution.

The one entry point is :class:`ShardedEngine`, built by name
(``ShardedEngine(graph, shards=N, backend=...)``).  Sharding is no
engine option: no CLI command, batch run or served query shards.
"""

from repro.shard.executor import BACKENDS, ShardedEngine
from repro.shard.partition import GraphPartition, partition_graph

__all__ = [
    "BACKENDS",
    "GraphPartition",
    "ShardedEngine",
    "partition_graph",
]
