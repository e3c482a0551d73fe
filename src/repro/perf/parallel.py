"""Parallel query execution: the ``search_many`` batch API.

A batch of queries fans out over one pool of workers, which
:func:`repro.runtime.workers.pool_for` chooses, as it does for serve:

* **fork backend** (default where available, i.e. Linux/macOS CPython):
  a :class:`~repro.runtime.workers.TaskPool`.  The read-only graph,
  config and workload reach the children as fork-inherited arguments of
  that one pool (copy-on-write memory) -- nothing graph-sized is ever
  pickled, and concurrent batches share no state.  Each worker builds
  its own :class:`~repro.similarity.scoring.ScoringFunction` (scoring
  memos are not shareable across processes) and, optionally, its own
  :class:`~repro.perf.cache.CandidateCache`.  The pool's crash contract
  holds: a query whose worker dies (OOM kill, a ``crash`` fault spec) is
  re-queued once, clean, on a replacement, and
  :attr:`BatchResult.worker_crashes` / :attr:`BatchResult.requeued`
  count it; a query that kills two workers raises
  :class:`~repro.errors.WorkerCrashError`.
* **thread backend**: a :class:`~repro.runtime.workers.ThreadPool`, one
  engine per thread; GIL-bound, but the only pool without ``fork``.
* **serial backend**: plain loop, one engine (``workers == 1``).

Pool dispatch is cost-ordered (LPT): tasks are submitted to the shared
queue heaviest-first by :func:`estimate_query_cost`, so one expensive
query landing last cannot serialize the tail of the batch while other
workers idle.  Results are re-ordered by query index regardless.

Every backend runs the same per-query code path (``_BatchWorker``), so
results are byte-identical across backends and worker counts -- the
parity suite asserts it.  Budgets are passed as *specs* (constructor
kwargs) and instantiated per query inside the worker; deterministic
budgets (``max_nodes`` etc.) therefore trip at identical points
regardless of the backend.  Per-query
:class:`~repro.runtime.budget.SearchReport`\\ s, engine counters and
per-worker cache stats are merged into the :class:`BatchResult`.

Each worker's engine is a :class:`Star` built from the batch's one
:class:`~repro.core.options.SearchOptions` record, as serve's workers
(:class:`repro.serve.EngineContext`) and the CLI build theirs.
"""

from __future__ import annotations

import functools
import os
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro import obs
from repro.core.framework import Star
from repro.core.matches import Match
from repro.core.options import SearchOptions
from repro.errors import BudgetExceededError, SearchError
from repro.perf.cache import CacheStats, CandidateCache, attach_cache
from repro.query.model import Query, StarQuery
from repro.runtime.budget import Budget, SearchReport
from repro.runtime.faults import FaultSpec, chaos_scorer
from repro.runtime.workers import pool_for
from repro.similarity.scoring import ScoringConfig, ScoringFunction

@dataclass
class QueryOutcome:
    """Result of one query inside a batch run."""

    index: int
    matches: List[Match]
    report: Optional[SearchReport]
    stats: Optional[Dict[str, int]]
    elapsed_s: float

    def result_key(self) -> Tuple:
        """Canonical (assignments, scores) identity -- the parity unit."""
        return tuple((m.key(), m.score) for m in self.matches)


@dataclass
class BatchResult:
    """Merged outcome of a ``search_many`` run."""

    outcomes: List[QueryOutcome]
    workers: int
    backend: str
    wall_s: float
    stats: Dict[str, int] = field(default_factory=dict)
    budget_exceeded: int = 0
    degraded: int = 0
    faults: int = 0
    #: Worker-death events detected during the run (fork backend only).
    worker_crashes: int = 0
    #: Queries whose worker died mid-search and that the pool re-queued
    #: on a replacement worker (crash and one-shot faults stripped).
    requeued: int = 0
    cache_stats: Optional[CacheStats] = None
    #: Merged :meth:`repro.obs.MetricsRegistry.as_dict` snapshot of the
    #: batch when observability was enabled around the call, else None.
    #: Fork workers report their own registries (reset at worker start, so
    #: the merge covers exactly this batch); thread/serial backends share
    #: the caller's registry, so enable a fresh tracer around the batch
    #: for exact per-batch numbers.
    metrics: Optional[Dict[str, dict]] = None
    #: Query indexes in pool-submission order (LPT: heaviest first);
    #: None for serial runs, which have no pool.
    dispatch_order: Optional[List[int]] = None

    @property
    def matches(self) -> List[List[Match]]:
        return [outcome.matches for outcome in self.outcomes]

    @property
    def total_matches(self) -> int:
        return sum(len(outcome.matches) for outcome in self.outcomes)

    @property
    def queries_per_s(self) -> float:
        return len(self.outcomes) / self.wall_s if self.wall_s > 0 else 0.0

    def result_keys(self) -> List[Tuple]:
        """Per-query canonical results, for parity comparisons."""
        return [outcome.result_key() for outcome in self.outcomes]

    def summary(self) -> str:
        line = (
            f"{len(self.outcomes)} quer(ies) via {self.backend} x{self.workers} "
            f"in {self.wall_s * 1000:.1f} ms "
            f"({self.queries_per_s:.1f} q/s), {self.total_matches} match(es)"
        )
        if self.budget_exceeded or self.faults:
            line += (f", {self.budget_exceeded} budget-exceeded, "
                     f"{self.faults} fault(s)")
        if self.worker_crashes:
            line += (f", {self.worker_crashes} worker crash(es) "
                     f"({self.requeued} quer(ies) re-queued)")
        if self.cache_stats is not None:
            line += f"; {self.cache_stats.summary()}"
        return line


def _batch_engine(graph, config, engine_opts, cache, fault_specs=None,
                  scorer=None):
    """One batch worker's engine: scorer, its cache, its faults.  A
    faulted engine gets a cache of its own (when *cache* asks for one),
    never the caller's instance or the one *scorer* holds."""
    if scorer is None:
        scorer = ScoringFunction(graph, config)
    if fault_specs:
        scorer = chaos_scorer(scorer, fault_specs,
                              CandidateCache() if cache else None)
    elif isinstance(cache, CandidateCache):
        attach_cache(scorer, cache)
    elif cache:
        attach_cache(scorer)
    return Star(graph, scorer=scorer, options=engine_opts)


class _BatchWorker:
    """What one pool worker (a fork child, or a thread) holds: the
    batch's shared inputs plus its own engine.  Engines are never shared
    between workers.  Called with a task payload ``{"index": i}`` (plus
    ``fault_specs`` on the chaos path), returns the result row
    ``(outcome, worker token, task number, cache stats, obs snapshot)``:
    the worker's *tasks*-th task, so its cumulative snapshots are ordered
    by the order it ran them in, not by query index.  On the chaos path
    each task's engine (and cache) is its own, so the cache stats are
    the worker's engine's plus the running sum over its task engines.
    """

    def __init__(self, graph, config, engine_opts, cache, queries, k,
                 budget_spec, parent_pid: int) -> None:
        self._engine_args = (graph, config, engine_opts, cache)
        self._queries = queries
        self._k = k
        self._budget_spec = budget_spec
        #: Fork children own their (reset) registry and ship snapshots;
        #: threads share the caller's, which the parent snapshots once.
        self._own_registry = os.getpid() != parent_pid
        #: Built on the first clean task; the serial loop sets its own.
        self.engine: Optional[Star] = None
        self.tasks = 0
        #: Cache counters of the chaos path's per-task engines, summed.
        self.task_cache_stats = CacheStats()

    def _engine_for(self, fault_specs) -> Star:
        if fault_specs:
            # Chaos path: injector call counts are stateful, so faulted
            # engines are never reused across tasks.
            return _batch_engine(*self._engine_args, fault_specs)
        if self.engine is None:
            self.engine = _batch_engine(*self._engine_args)
        return self.engine

    def __call__(self, payload: Dict[str, Any]):
        engine = self._engine_for(payload.get("fault_specs"))
        index = payload["index"]
        spec = self._budget_spec
        budget = None if spec is None else Budget(**spec)
        start = time.perf_counter()
        try:
            matches = engine.search(self._queries[index], self._k,
                                    budget=budget)
        except BudgetExceededError:  # strict-mode trip counts as empty
            matches = []
        outcome = QueryOutcome(index, matches, engine.last_report,
                               engine.last_stats, time.perf_counter() - start)
        cache = engine.scorer.candidate_cache
        stats = None
        if cache is not None:
            if engine is not self.engine:
                self.task_cache_stats.merge(cache.stats)
            stats = CacheStats().merge(self.task_cache_stats)
            if self.engine is not None:
                stats.merge(self.engine.scorer.candidate_cache.stats)
        self.tasks += 1
        return (outcome, f"{os.getpid()}:{threading.get_ident()}",
                self.tasks,
                stats.as_dict() if stats is not None else None,
                obs.snapshot(include_samples=True)
                if self._own_registry else None)


def _last_rows(rows: List[tuple]) -> List[tuple]:
    """Each worker's row of the last task it ran: the one that holds its
    final cumulative cache and obs snapshots."""
    last: Dict[str, tuple] = {}
    for row in rows:
        held = last.get(row[1])
        if held is None or row[2] > held[2]:
            last[row[1]] = row
    return list(last.values())


def _merge_cache_stats(
    snapshots: List[Optional[Dict[str, int]]]
) -> Optional[CacheStats]:
    """Sum the final per-worker snapshots."""
    merged: Optional[CacheStats] = None
    for snapshot in snapshots:
        if snapshot is None:
            continue
        if merged is None:
            merged = CacheStats()
        merged.merge(CacheStats.from_dict(snapshot))
    return merged


def _merge_obs_snapshots(
    obs_snapshots: List[Optional[Dict[str, dict]]]
) -> Optional[Dict[str, dict]]:
    """Merge fork workers' registry snapshots; fold into the caller's.

    Each worker's final (cumulative) snapshot is merged exactly --
    counters sum, gauges max, histograms concatenate samples.  When the
    caller still has observability enabled, the merged totals are folded
    into its live registry so ``obs.snapshot()`` after ``search_many``
    reflects the batch regardless of backend.
    """
    collected = [snap for snap in obs_snapshots if snap is not None]
    if not collected:
        return obs.snapshot()  # thread/serial: shared registry (or None)
    from repro.obs import MetricsRegistry

    merged = MetricsRegistry.merged(collected)
    live = obs.registry()
    if live is not None:
        live.merge_snapshot(merged.as_dict(include_samples=True))
    return merged.as_dict()


def _finalize(rows: List[tuple], workers: int, backend: str,
              wall_s: float, pool,
              order: Optional[List[int]]) -> BatchResult:
    """One :class:`BatchResult` from the workers' rows, in index order."""
    outcomes = [row[0] for row in rows]
    last = _last_rows(rows)
    merged_stats: Dict[str, int] = {}
    budget_exceeded = degraded = faults = 0
    for outcome in outcomes:
        if outcome.stats:
            for name, value in outcome.stats.items():
                merged_stats[name] = merged_stats.get(name, 0) + value
        report = outcome.report
        if report is not None:
            if report.reason is not None:
                budget_exceeded += 1
            if report.degraded:
                degraded += 1
            faults += len(report.faults)
    return BatchResult(
        outcomes=outcomes,
        workers=workers,
        backend=backend,
        wall_s=wall_s,
        stats=merged_stats,
        budget_exceeded=budget_exceeded,
        degraded=degraded,
        faults=faults,
        # a pool the batch never started counts zeros
        worker_crashes=getattr(pool, "worker_crashes", 0),
        requeued=getattr(pool, "requeued", 0),
        dispatch_order=order,
        cache_stats=_merge_cache_stats([row[3] for row in last]),
        metrics=_merge_obs_snapshots([row[4] for row in last]),
    )


def estimate_query_cost(graph, query: Union[Query, StarQuery]) -> int:
    """Cheap heuristic proxy for a query's candidate-generation work.

    Sums, over the query's nodes, the graph posting sizes of their
    expanded tokens plus the subtype-closure size of their type
    constraint -- i.e. the shortlist volume the scorer will walk.  Pure
    index lookups, no scoring; used only to *order* pool dispatch (LPT),
    so it needs to rank, not to be exact.
    """
    from repro.core.candidates import expanded_query_tokens

    if isinstance(query, StarQuery):
        qnodes = [query.pivot] + [leaf for leaf, _edge in query.leaves]
    else:
        qnodes = list(query.nodes)
    token_index = graph._token_index
    cost = 0
    for qnode in qnodes:
        desc = qnode.descriptor
        if desc.is_wildcard and not qnode.type:
            cost += graph.num_nodes  # full-scan fallback
            continue
        for token in expanded_query_tokens(desc):
            cost += len(token_index.get(token.lower(), ()))
        if qnode.type:
            cost += len(graph.nodes_of_subtype(qnode.type))
    return cost


def dispatch_order(graph,
                   queries: Sequence[Union[Query, StarQuery]]) -> List[int]:
    """Query indexes sorted heaviest-first (longest-processing-time).

    With a shared task queue, LPT submission bounds the idle-worker
    skew a heavy tail query causes: the expensive work starts first and
    cheap queries pack around it, instead of every other worker idling
    while the last-submitted heavy query runs alone.
    """
    costs = [estimate_query_cost(graph, query) for query in queries]
    return sorted(range(len(queries)), key=lambda i: (-costs[i], i))


def search_many(
    graph,
    queries: Sequence[Union[Query, StarQuery]],
    k: int,
    workers: int = 1,
    *,
    config: Optional[ScoringConfig] = None,
    scorer: Optional[ScoringFunction] = None,
    cache: Union[bool, CandidateCache, None] = False,
    budget_spec: Optional[Dict[str, Any]] = None,
    fault_specs: Optional[Sequence[Any]] = None,
    backend: str = "auto",
    options: Optional[SearchOptions] = None,
    **knobs,
) -> BatchResult:
    """Run *queries* top-k and return per-query matches plus merged stats.

    Args:
        graph: the shared, read-only data graph.
        queries: any mix of general and star queries.
        k: result size per query.
        workers: worker count; 1 = serial in-process execution.
        config: scoring configuration for per-worker scorers.
        scorer: serial-mode-only pre-built scorer (its memo state is
            reused; supplying one with ``workers > 1`` is an error --
            scorers cannot be shared across processes).
        cache: False/None = no candidate cache (seed behavior); True =
            attach a fresh per-worker :class:`CandidateCache`; an
            existing cache instance is used directly (serial mode only).
        budget_spec: :class:`Budget` constructor kwargs, instantiated
            per query inside the worker (picklable, deterministic).
        fault_specs: chaos-testing only -- a list of
            :class:`~repro.runtime.faults.FaultSpec` objects (or their
            ``as_dict`` forms) injected into each *query's* engine on
            the pool backends (each *worker's* when serial).  A
            ``"crash"`` spec kills worker processes; the supervised fork
            backend detects each death and re-queues that query on a
            replacement worker with crash and one-shot specs stripped.
        backend: ``serial``, or a :func:`repro.runtime.workers.pool_for`
            backend: ``auto`` (fork where available, else threads),
            ``fork`` (threads where fork is missing) or ``thread``.
            One worker always runs serially.
        options: a ready :class:`~repro.core.options.SearchOptions`.

    Keyword options: see :class:`~repro.core.options.SearchOptions`;
    each worker builds its own :class:`Star` (index and store attach
    included) from the one record.

    The headline invariant: for any fixed inputs, the returned
    ``(assignment, score)`` lists are byte-identical across every
    ``workers``/``backend`` combination and cache setting.
    """
    if k <= 0:
        raise SearchError(f"k must be positive, got {k}")
    if workers < 1:
        raise SearchError(f"workers must be >= 1, got {workers}")
    options = SearchOptions.coerce(options, knobs)
    if fault_specs:
        fault_specs = [s.as_dict() if isinstance(s, FaultSpec) else dict(s)
                       for s in fault_specs]
    queries = list(queries)
    new_worker = functools.partial(
        _BatchWorker, graph, config, options, cache, queries, k,
        budget_spec, os.getpid())
    # Built before the serial check, so an unknown backend fails a
    # one-worker batch too; a pool does nothing until started.
    pool = None if backend == "serial" else pool_for(
        new_worker, size=max(1, min(workers, len(queries))),
        backend=backend)
    chosen = "serial" if pool is None or workers == 1 else pool.backend
    if chosen != "serial" and (scorer is not None
                               or isinstance(cache, CandidateCache)):
        raise SearchError(
            "a pre-built scorer or cache instance is only usable with "
            "workers=1: each pool worker builds its own (cache=True)")

    start = time.perf_counter()
    if chosen == "serial":
        # One engine for the batch: the caller's scorer and cache, and
        # any fault specs injected once, into it.
        worker, order = new_worker(), None
        worker.engine = _batch_engine(graph, config, options, cache,
                                      fault_specs, scorer)
        rows = [worker({"index": i}) for i in range(len(queries))]
    else:
        # LPT: heaviest queries hit the shared queue first, so the
        # batch's tail is cheap work, not a straggler.
        order = dispatch_order(graph, queries)
        chaos = {"fault_specs": fault_specs} if fault_specs else {}
        pool.start()
        try:
            futures = {i: pool.submit({"index": i, **chaos}) for i in order}
            rows = [futures[i].result() for i in range(len(queries))]
        finally:
            pool.stop()

    return _finalize(rows, workers, chosen, time.perf_counter() - start,
                     pool, order)
