"""``repro.perf``: the cross-query performance layer.

Makes repeated and concurrent query traffic fast *without changing any
result*:

* :class:`CandidateCache` -- LRU of scored candidate lists shared across
  queries, keyed on (graph uid+version, scoring-config fingerprint,
  canonical descriptor key, limit); see :mod:`repro.perf.cache`.
* :func:`search_many` -- batch query execution over a supervised fork
  worker pool (thread/serial fallback), merging per-query reports,
  engine counters and cache stats; see :mod:`repro.perf.parallel`.

The headline invariant, asserted by ``tests/test_perf_parallel.py``:
cached/parallel runs return byte-identical match lists and scores to
serial uncached runs.
"""

from repro.perf.cache import (
    CacheStats,
    CandidateCache,
    attach_cache,
    detach_cache,
)
from repro.perf.parallel import (
    BatchResult,
    QueryOutcome,
    dispatch_order,
    estimate_query_cost,
    search_many,
)
from repro.runtime.workers import fork_available

__all__ = [
    "BatchResult",
    "CacheStats",
    "CandidateCache",
    "QueryOutcome",
    "attach_cache",
    "detach_cache",
    "dispatch_order",
    "estimate_query_cost",
    "fork_available",
    "search_many",
]
