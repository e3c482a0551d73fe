"""``repro.obs``: the observability layer (metrics + tracing + stats).

Three pieces:

* :class:`MetricsRegistry` -- named counters, gauges and histograms
  (p50/p95/p99), exported as sorted JSON-safe dicts that merge exactly
  across parallel workers (:mod:`repro.obs.metrics`).
* :class:`Tracer` / :func:`trace` -- a nesting span tracer recording
  wall *and* CPU time per phase, with JSON / JSONL / tree-text export
  (:mod:`repro.obs.tracer`).
* :class:`EngineStats` -- the unified per-search counter schema that
  replaced the divergent per-algorithm ``last_stats`` dicts
  (:mod:`repro.obs.stats`).

**Zero cost when disabled.**  The module holds one process-global active
tracer (``None`` by default).  Every instrumentation hook --
:func:`trace`, :func:`count`, :func:`observe` -- starts with a single
global load + ``None`` test and returns immediately when observability is
off; :func:`trace` hands back a shared no-op span, so instrumented
``with`` blocks allocate nothing.  The overhead-parity benchmark gate
(``benchmarks/bench_perf_cache.py --smoke``) holds the *enabled*
path to <5% wall-time on a full batch workload.

Typical use::

    from repro import obs

    with obs.capture() as tracer:          # enable, run, restore
        engine.search(query, k=5)
    print(tracer.format_tree())            # nested spans, wall/CPU ms
    print(tracer.registry.as_dict())       # counters + histograms

or imperatively via :func:`enable` / :func:`disable`.  The span stack is
per-thread; fork workers inherit the enabled state through the fork.

Well-known counter families (all emitted only while enabled):

* ``candidates.*`` spans -- candidate generation route and volume;
* ``serve.*`` -- admission, breaker and queue events (``repro.serve``);
* ``shard.*`` -- sharded execution (``repro.shard``):
  ``shard.searches``, ``shard.streams_opened``, ``shard.chunks``
  (merge-round messages: one per shard, plus one per tied shard),
  ``shard.matches_pulled`` (counters), ``shard.bound_terminated``
  (shard streams cut at k, tie round included, without running dry),
  ``shard.worker_crashes`` / ``shard.inline_fallbacks`` (fault
  recovery), ``shard.fallback_queries`` (non-star or budgeted queries
  served by the single-process engine), plus gauges ``shard.count``
  and ``shard.replication_factor``.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, Iterator, Optional

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.stats import STAT_KEYS, EngineStats
from repro.obs.tracer import NOOP_SPAN, Span, Tracer

__all__ = [
    "Counter",
    "EngineStats",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "STAT_KEYS",
    "Span",
    "Tracer",
    "active_tracer",
    "capture",
    "count",
    "count_many",
    "disable",
    "enable",
    "is_enabled",
    "observe",
    "registry",
    "set_gauge",
    "snapshot",
    "trace",
]

#: The process-global active tracer; ``None`` means observability is off.
_ACTIVE: Optional[Tracer] = None


def enable(tracer: Optional[Tracer] = None) -> Tracer:
    """Turn observability on (building a fresh :class:`Tracer` if needed)."""
    global _ACTIVE
    _ACTIVE = tracer if tracer is not None else Tracer()
    return _ACTIVE


def disable() -> Optional[Tracer]:
    """Turn observability off; returns the tracer that was active."""
    global _ACTIVE
    previous, _ACTIVE = _ACTIVE, None
    return previous


def is_enabled() -> bool:
    """True when an active tracer is collecting."""
    return _ACTIVE is not None


def active_tracer() -> Optional[Tracer]:
    """The active tracer, or None when disabled."""
    return _ACTIVE


def registry() -> Optional[MetricsRegistry]:
    """The active tracer's metric registry, or None when disabled."""
    tracer = _ACTIVE
    return tracer.registry if tracer is not None else None


@contextmanager
def capture(tracer: Optional[Tracer] = None) -> Iterator[Tracer]:
    """Enable observability for a block, restoring the prior state after.

    Yields the (fresh or supplied) tracer; on exit the previously active
    tracer -- usually None -- is reinstated, so captures nest safely.
    """
    global _ACTIVE
    previous = _ACTIVE
    active = enable(tracer)
    try:
        yield active
    finally:
        _ACTIVE = previous


# ----------------------------------------------------------------------
# Hot-path hooks: one global load + None test when disabled.
# ----------------------------------------------------------------------
def trace(name: str, **attrs: object):
    """A span context manager, or the shared no-op span when disabled.

    Attrs must be deterministic values (counts, ids) -- they are exported
    verbatim and the determinism suite compares traces byte-for-byte.
    """
    tracer = _ACTIVE
    if tracer is None:
        return NOOP_SPAN
    return tracer.span(name, **attrs)


def count(name: str, n: int = 1) -> None:
    """Increment counter *name* when observability is enabled."""
    tracer = _ACTIVE
    if tracer is not None:
        tracer.registry.counter(name).inc(n)


def count_many(pairs: Dict[str, int]) -> None:
    """Increment several counters under one enabled-check.

    Bulk flush for callers that accumulate locally during a hot loop
    (e.g. the shard merge loop) and publish once per operation; zero
    entries are skipped so snapshots stay sparse.
    """
    tracer = _ACTIVE
    if tracer is not None:
        counter = tracer.registry.counter
        for name, n in pairs.items():
            if n:
                counter(name).inc(n)


def observe(name: str, value: float) -> None:
    """Record *value* into histogram *name* when enabled."""
    tracer = _ACTIVE
    if tracer is not None:
        tracer.registry.histogram(name).observe(value)


def set_gauge(name: str, value: float) -> None:
    """Set gauge *name* when enabled."""
    tracer = _ACTIVE
    if tracer is not None:
        tracer.registry.gauge(name).set(value)


def snapshot(include_samples: bool = False) -> Optional[Dict[str, dict]]:
    """The active registry's :meth:`MetricsRegistry.as_dict`, or None."""
    tracer = _ACTIVE
    if tracer is None:
        return None
    return tracer.registry.as_dict(include_samples)
