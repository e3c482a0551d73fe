"""``repro.shard``: partitioned parallel execution of star searches.

The scalability experiments (Fig. 15) are embarrassingly parallel in
the pivot dimension: a star query's matches are generated per candidate
pivot, and any disjoint split of the pivot universe splits the work.
This package makes that operational:

* :mod:`repro.shard.partition` -- hash / pivot-type edge-cut
  partitioning with d-hop halo replication, so every star pivoted in a
  shard is answerable from local scope alone;
* :mod:`repro.shard.executor` -- :class:`ShardedEngine`: per-shard fork
  workers streaming scoped matches (graph and index inherited through
  the fork), merged by the HRJN bound machinery shared with
  ``starjoin`` (:mod:`repro.core.rankmerge`) into an exact global
  top-k, byte-identical to single-shard execution.

Entry points: :class:`ShardedEngine` for library use, ``--shards N
--partition hash|pivot-type`` on the CLI, ``shards=``/``partition=`` on
:func:`repro.perf.search_many`, and ``engine_opts={"shards": N}`` on
the serve layer.
"""

from repro.shard.executor import BACKENDS, ShardedEngine
from repro.shard.partition import (
    STRATEGIES,
    GraphPartition,
    partition_graph,
)

__all__ = [
    "BACKENDS",
    "GraphPartition",
    "STRATEGIES",
    "ShardedEngine",
    "partition_graph",
]
