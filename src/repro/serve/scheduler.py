"""Async scheduling: priority-ordered capacity gate, retries, hedging.

Between admission and the worker pool sits this layer:

* :class:`PriorityGate` -- a counting gate over pool capacity whose
  waiters wake in (rank, arrival) order: gold jumps the queue, FIFO
  within a class.  Its waiter count *is* the queue depth that admission
  reads as pressure.
* :class:`RequestScheduler` -- runs one admitted request to completion:
  per-attempt timeout backstop, exponential-backoff-with-jitter retries
  for fault-class failures (transient fault specs stripped on retry),
  and *hedging* for the top class: if the primary attempt has not
  answered within ``hedge_ms``, a duplicate is raced against it and the
  first valid answer wins.
"""

from __future__ import annotations

import asyncio
import heapq
import itertools
from typing import Any, Callable, Dict, Optional

from repro.errors import ReproError, WorkerCrashError
from repro.runtime.slo import SLOClass
from repro.runtime.workers import strip_transient_faults
from repro.serve.retry import BackoffPolicy, is_retryable


class PriorityGate:
    """``capacity`` concurrent holders; waiters wake by (rank, seq).

    Not thread-safe -- single event loop only, like all of asyncio.
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._active = 0
        self._waiters: list = []  # heap of (rank, seq, future)
        self._seq = itertools.count()

    @property
    def queue_depth(self) -> int:
        """Admitted requests waiting for a slot (= admission pressure)."""
        return sum(1 for _, _, f in self._waiters if not f.done())

    @property
    def active(self) -> int:
        return self._active

    async def acquire(self, rank: int) -> None:
        if self._active < self.capacity and not self._waiters:
            self._active += 1
            return
        future = asyncio.get_running_loop().create_future()
        heapq.heappush(self._waiters, (rank, next(self._seq), future))
        try:
            await future
        except asyncio.CancelledError:
            # Woken and cancelled in the same tick: pass the slot on.
            if future.done() and not future.cancelled():
                self._release_slot()
            raise

    def release(self) -> None:
        self._release_slot()

    def _release_slot(self) -> None:
        self._active -= 1
        while self._waiters:
            _rank, _seq, future = heapq.heappop(self._waiters)
            if not future.done():
                self._active += 1
                future.set_result(None)
                return


class RequestScheduler:
    """Drives one admitted request through the pool with resilience.

    Args:
        pool: a supervised worker pool (``submit(payload) -> Future``).
        backoff: retry backoff policy (deterministic rng injectable).
        timeout_slack_s: added to the doubled budget deadline for the
            per-attempt wall-clock backstop.
        on_retry / on_hedge / on_hedge_win: metric hooks (callables,
            may be None).
    """

    def __init__(
        self,
        pool,
        backoff: Optional[BackoffPolicy] = None,
        timeout_slack_s: float = 1.0,
        on_retry: Optional[Callable[[], None]] = None,
        on_hedge: Optional[Callable[[], None]] = None,
        on_hedge_win: Optional[Callable[[], None]] = None,
    ) -> None:
        self.pool = pool
        self.backoff = backoff if backoff is not None else BackoffPolicy()
        self.timeout_slack_s = timeout_slack_s
        self._on_retry = on_retry
        self._on_hedge = on_hedge
        self._on_hedge_win = on_hedge_win

    # ------------------------------------------------------------------
    def _attempt_timeout_s(self, payload: Dict[str, Any]) -> float:
        spec = payload.get("budget_spec") or {}
        deadline_ms = spec.get("deadline_ms") or 1000.0
        return (deadline_ms / 1000.0) * 2.0 + self.timeout_slack_s

    async def _one_attempt(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        """One pool round-trip, normalized to a result dict."""
        future = asyncio.wrap_future(self.pool.submit(payload))
        try:
            return await asyncio.wait_for(
                future, timeout=self._attempt_timeout_s(payload))
        except asyncio.TimeoutError:
            return {"ok": False, "error_kind": "Timeout",
                    "error": "attempt exceeded its wall-clock backstop"}
        except WorkerCrashError as exc:
            return {"ok": False, "error_kind": "WorkerCrashError",
                    "error": str(exc)}
        except ReproError as exc:
            return {"ok": False, "error_kind": type(exc).__name__,
                    "error": str(exc)}

    async def _hedged_attempt(
        self, payload: Dict[str, Any], hedge_ms: float,
    ) -> "tuple[Dict[str, Any], bool]":
        """Race a late duplicate against a slow primary attempt.

        Returns ``(result, hedged)`` where ``hedged`` is True only when
        the secondary was actually launched (primary missed the hedge
        window), so the response flag matches ``serve_hedges_total``.
        """
        primary = asyncio.ensure_future(self._one_attempt(payload))
        done, _ = await asyncio.wait({primary}, timeout=hedge_ms / 1000.0)
        if done:
            return primary.result(), False
        if self._on_hedge is not None:
            self._on_hedge()
        secondary = asyncio.ensure_future(self._one_attempt(payload))
        pending = {primary, secondary}
        result: Optional[Dict[str, Any]] = None
        while pending:
            done, pending = await asyncio.wait(
                pending, return_when=asyncio.FIRST_COMPLETED)
            for task in done:
                outcome = task.result()
                if outcome.get("ok"):
                    if task is secondary and self._on_hedge_win is not None:
                        self._on_hedge_win()
                    for straggler in pending:
                        straggler.cancel()
                    return outcome, True
                result = outcome
        return (result if result is not None else {
            "ok": False, "error_kind": "Unhandled",
            "error": "hedged attempt produced no outcome",
        }), True

    async def execute(self, payload: Dict[str, Any],
                      slo: SLOClass) -> Dict[str, Any]:
        """Run *payload* with the class's retry/hedge policy.

        Returns the final result dict, augmented with ``attempts`` and
        ``hedged`` bookkeeping fields.
        """
        attempts = 0
        hedged = False
        current = payload
        while True:
            attempts += 1
            if slo.hedge_ms is not None:
                result, launched = await self._hedged_attempt(
                    current, slo.hedge_ms)
                hedged = hedged or launched
            else:
                result = await self._one_attempt(current)
            if result.get("ok") or attempts > slo.max_retries or \
                    not is_retryable(result.get("error_kind", "")):
                result = dict(result)
                result["attempts"] = attempts
                result["hedged"] = hedged
                return result
            if self._on_retry is not None:
                self._on_retry()
            # Retries probe a clean path: transient faults are stripped,
            # persistent (repeat=True) faults survive and keep failing.
            current = strip_transient_faults(current)
            delay_ms = self.backoff.delay_ms(attempts - 1)
            if delay_ms > 0:
                await asyncio.sleep(delay_ms / 1000.0)
