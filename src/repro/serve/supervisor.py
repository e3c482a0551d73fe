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

On platforms without the fork start method :func:`make_pool` gets a
:class:`repro.runtime.workers.ThreadPool` with the same interface (no
crash isolation -- a ``crash`` fault would kill the whole process;
documented, not defended).
"""

from __future__ import annotations

import functools
import traceback
from typing import Any, Callable, Dict, List, Optional

from repro.core.framework import Star
from repro.core.options import SearchOptions
from repro.errors import ReproError
from repro.perf.cache import attach_cache
from repro.query.parser import parse_query
from repro.runtime.budget import Budget
from repro.runtime.faults import chaos_scorer
from repro.runtime.workers import pool_for


class EngineContext:
    """Per-worker (process or thread) engine state for payload execution.

    ``engine_opts`` (a dict, or a ready
    :class:`~repro.core.options.SearchOptions`) becomes :attr:`options`
    and the :class:`Star` built from it: with ``mmap_store`` every
    worker maps the RKGS2 file's index columns after the fork instead
    of copying index pages through fork CoW.  The engine's scorer holds
    the worker's :class:`~repro.perf.cache.CandidateCache`, so a request
    repeating a constraint reuses its scored candidates, budget and all.
    """

    def __init__(self, graph, config=None, engine_opts=None) -> None:
        self.graph = graph
        self.config = config
        self.options = SearchOptions.coerce(engine_opts)
        self.engine = Star(graph, config=config, options=self.options)
        self.scorer = self.engine.scorer
        attach_cache(self.scorer)

    def engine_for(self, fault_specs: Optional[List[dict]]) -> Star:
        """The shared engine, or a faulty-wrapped one for chaos requests.

        Injector call counts are stateful, so a chaos request gets a
        fresh :class:`Star` over a faulty-wrapped scorer.  The wrapped
        scorer is the shared one: what it holds (an mmap-attached
        index) is reused -- except the candidate cache, which it neither
        reads (a hit would skip the faults it plans) nor writes.
        """
        if not fault_specs:
            return self.engine
        return Star(self.graph, scorer=chaos_scorer(self.scorer, fault_specs),
                    options=self.options)


def _wire_matches(matches) -> List[Dict[str, Any]]:
    """*matches* as response dicts: the assignment keyed by query-node
    id (a string, in id order) and the score.  Every match of one query
    assigns the same query nodes, so the key order is worked out once."""
    if not matches:
        return []
    keys = [(str(q), q) for q in sorted(matches[0].assignment)]
    return [{"assignment": {key: m.assignment[q] for key, q in keys},
             "score": m.score}
            for m in matches]


def execute_payload(ctx: EngineContext, payload: Dict[str, Any]) \
        -> Dict[str, Any]:
    """Run one task payload; always returns a structured result dict.

    Payload keys: ``query`` (edge-pattern text), ``k``, optional
    ``budget_spec`` (Budget kwargs) and ``fault_specs`` (list of
    :meth:`FaultSpec.as_dict` dicts).  A ``"crash"`` fault spec kills
    the process here -- that is the supervised failure the pool exists
    to recover from.
    """
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
            "matches": _wire_matches(matches),
            "report": report.as_dict() if report is not None else None,
            "degraded": bool(report is not None and report.degraded),
        }
    except ReproError as exc:
        return {"ok": False, "error_kind": type(exc).__name__,
                "error": str(exc)}
    except Exception as exc:  # never let a raw exception cross unlabeled
        return {"ok": False, "error_kind": "Unhandled",
                "error": f"{type(exc).__name__}: {exc}",
                "traceback": traceback.format_exc(limit=8)}


def make_pool(graph, config=None, engine_opts=None, size: int = 2,
              backend: str = "auto", max_requeues: int = 1):
    """The serve pool :func:`repro.runtime.workers.pool_for` chooses
    (fork where available), one :class:`EngineContext` per worker.

    Raises:
        SearchError: for an invalid engine option or an unknown backend.
        ValueError: for ``size < 1``.
    """
    # Here, not in each worker's factory: a bad option fails the caller.
    engine_opts = SearchOptions.coerce(engine_opts)

    def factory() -> Callable[[Dict[str, Any]], Dict[str, Any]]:
        # Runs in the worker (after the fork): one engine per worker.
        return functools.partial(execute_payload,
                                 EngineContext(graph, config, engine_opts))

    return pool_for(factory, size=size, backend=backend,
                    max_requeues=max_requeues)
