"""Serve workers: what a pool worker runs, and which pool runs it.

The serving layer cannot trust a worker to stay alive: a poisoned
request, an OOM kill or a plain bug can take a process down mid-search.
Supervision -- death detection, re-queue once with transient faults
stripped, replenishment, :class:`~repro.errors.WorkerCrashError` past
the limit -- is :class:`repro.runtime.workers.TaskPool`'s job; this
module supplies what each of its workers does.

Work execution inside a worker is the same code path as everywhere
else: parse the query, instantiate the per-request
:class:`~repro.runtime.Budget` from its spec, optionally wrap the
scorer with :func:`repro.runtime.faulty`, run
:meth:`repro.core.framework.Star.search`, and ship back matches plus
the :class:`~repro.runtime.SearchReport` as plain dicts.

On platforms without the fork start method a :class:`ThreadWorkerPool`
offers the same interface (no crash isolation -- a ``crash`` fault
would kill the whole process; documented, not defended).
"""

from __future__ import annotations

import dataclasses
import functools
import threading
import traceback
from concurrent.futures import Future
from typing import Any, Callable, Dict, List, Optional

from repro.core.framework import Star
from repro.core.options import SearchOptions
from repro.errors import ReproError, SearchError
from repro.perf.parallel import build_engine
from repro.runtime.budget import Budget
from repro.runtime.faults import FaultSpec, faulty
from repro.runtime.workers import TaskPool, fork_available


class EngineContext:
    """Per-process (or per-thread) engine state for payload execution.

    ``engine_opts`` (a dict, or a ready
    :class:`~repro.core.options.SearchOptions`) becomes :attr:`options`
    and is handed to :func:`repro.perf.build_engine`: with ``mmap_store``
    every worker maps the RKGS2 file's index columns after the fork
    instead of copying index pages through fork CoW.
    """

    def __init__(self, graph, config=None, engine_opts=None) -> None:
        self.graph = graph
        self.config = config
        self.options = SearchOptions.coerce(engine_opts)
        self.engine = build_engine(graph, self.options, config)
        self.scorer = self.engine.scorer

    def engine_for(self, fault_specs: Optional[List[dict]]) -> Star:
        """The shared engine, or a faulty-wrapped one for chaos requests.

        Chaos requests always run on a plain single-process engine:
        fault injection wraps the scorer, and a sharded engine's fork
        workers would not see the wrapper.  The wrapped scorer is the
        shared one: what it holds (an mmap-attached index) is reused.
        """
        if not fault_specs:
            return self.engine
        specs = [FaultSpec.from_dict(s) for s in fault_specs]
        return Star(self.graph, scorer=faulty(self.scorer, specs=specs),
                    options=self.options)


def execute_payload(ctx: EngineContext, payload: Dict[str, Any]) \
        -> Dict[str, Any]:
    """Run one task payload; always returns a structured result dict.

    Payload keys: ``query`` (edge-pattern text), ``k``, optional
    ``budget_spec`` (Budget kwargs) and ``fault_specs`` (list of
    :meth:`FaultSpec.as_dict` dicts).  A ``"crash"`` fault spec kills
    the process here -- that is the supervised failure the pool exists
    to recover from.
    """
    from repro.query.parser import parse_query

    try:
        engine = ctx.engine_for(payload.get("fault_specs"))
        query = parse_query(payload["query"].replace(";", "\n"),
                            name=payload.get("name", "serve"))
        budget_spec = payload.get("budget_spec")
        budget = Budget(**budget_spec) if budget_spec else None
        matches = engine.search(query, payload.get("k", 5), budget=budget)
        report = engine.last_report
        return {
            "ok": True,
            "matches": [
                {"assignment": {str(q): v
                                for q, v in sorted(m.assignment.items())},
                 "score": m.score}
                for m in matches
            ],
            "report": (dataclasses.asdict(report)
                       if report is not None else None),
            "degraded": bool(report is not None and report.degraded),
        }
    except ReproError as exc:
        return {"ok": False, "error_kind": type(exc).__name__,
                "error": str(exc)}
    except Exception as exc:  # never let a raw exception cross unlabeled
        return {"ok": False, "error_kind": "Unhandled",
                "error": f"{type(exc).__name__}: {exc}",
                "traceback": traceback.format_exc(limit=8)}


def _engine_handler(graph, config, engine_opts) \
        -> Callable[[Dict[str, Any]], Dict[str, Any]]:
    """:class:`TaskPool` handler factory: one engine per worker process."""
    return functools.partial(execute_payload,
                             EngineContext(graph, config, engine_opts))


class ThreadWorkerPool:
    """Thread fallback with the fork pool's interface.

    No crash isolation: a ``crash`` fault here would take the whole
    process down.  Exists so the server runs on platforms without fork.
    """

    backend = "thread"

    def __init__(self, graph, config=None,
                 engine_opts: Optional[Dict[str, Any]] = None,
                 size: int = 2, max_requeues: int = 1) -> None:
        if size < 1:
            raise ValueError(f"pool size must be >= 1, got {size}")
        self._graph = graph
        self._config = config
        self._engine_opts = engine_opts
        self.size = size
        self._local = threading.local()
        self._executor = None
        self._count_lock = threading.Lock()
        self.tasks_done = 0

    def start(self) -> "ThreadWorkerPool":
        if self._executor is None:
            from concurrent.futures import ThreadPoolExecutor

            self._executor = ThreadPoolExecutor(
                max_workers=self.size, thread_name_prefix="serve-worker"
            )
        return self

    def _run(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        ctx = getattr(self._local, "ctx", None)
        if ctx is None:
            ctx = EngineContext(self._graph, self._config, self._engine_opts)
            self._local.ctx = ctx
        result = execute_payload(ctx, payload)
        with self._count_lock:  # += from N executor threads loses updates
            self.tasks_done += 1
        return result

    def submit(self, payload: Dict[str, Any]) -> Future:
        if self._executor is None:
            future: Future = Future()
            future.set_exception(ReproError("worker pool is not running"))
            return future
        return self._executor.submit(self._run, payload)

    def stop(self) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=False, cancel_futures=True)
            self._executor = None

    def alive(self) -> int:
        return self.size if self._executor is not None else 0

    def stats(self) -> Dict[str, int]:
        return {
            "backend": self.backend,
            "size": self.size,
            "alive": self.alive(),
            "tasks_done": self.tasks_done,
            "worker_crashes": 0,
            "requeued": 0,
            "crash_failures": 0,
            "replacements": 0,
        }


def make_pool(graph, config=None, engine_opts=None, size: int = 2,
              backend: str = "auto", max_requeues: int = 1):
    """Build the right pool for this platform (fork where available).

    Raises:
        SearchError: for an invalid engine option, or for ``shards``:
            every served query carries a budget, and a budgeted search
            never runs sharded.
    """
    if backend not in ("auto", "fork", "thread"):
        raise ReproError(
            f"unknown pool backend {backend!r} (auto, fork or thread)")
    # Here, not in each worker's factory: a bad option fails the caller.
    engine_opts = SearchOptions.coerce(engine_opts)
    if engine_opts.shards is not None:
        raise SearchError(
            "serve does not shard: every served query carries a budget, "
            "and a budgeted search runs in one process")
    if backend != "thread" and fork_available():
        return TaskPool(
            functools.partial(_engine_handler, graph, config, engine_opts),
            size=size, max_requeues=max_requeues)
    return ThreadWorkerPool(graph, config=config, engine_opts=engine_opts,
                            size=size, max_requeues=max_requeues)
