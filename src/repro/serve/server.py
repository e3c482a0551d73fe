"""The async query service: admission -> schedule -> execute -> respond.

:class:`ServeApp` is the loop-agnostic application core -- parse,
breaker check, admission decision, budget derivation, priority-gated
execution with retries/hedging, breaker/metric accounting.  Around it,
a deliberately small stdlib-only HTTP layer (:func:`serve_forever`,
:class:`ServerHandle`) speaks just enough HTTP/1.1 for the four
endpoints:

* ``GET /healthz`` -- liveness + worker census (cheap, no admission);
* ``GET /statz``   -- metrics, admission, breaker and pool snapshots;
* ``POST /search`` -- one JSON request, one JSON response;
* ``POST /batch``  -- JSONL in, JSONL out, order preserved, each line
  admitted independently.

Request lifecycle (the admission state machine)::

    parse --400--> | breaker --503--> | admission --429--> |
      admit(level) -> derive budget -> priority gate -> pool attempt(s)
      -> ok / degraded / error  (+ breaker & metric accounting)

Degradation always precedes rejection: rising queue pressure shrinks
budgets (anytime flagged results) levels before the shed watermark
rejects anyone, and the top class is shed only when the queue is
physically full.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.errors import QueryError, ReproError
from repro.obs import MetricsRegistry
from repro.runtime.slo import (
    SLO_CLASSES,
    derive_budget_spec,
    resolve_slo,
)
from repro.serve.admission import AdmissionController
from repro.serve.breaker import CircuitBreaker
from repro.serve.protocol import QueryRequest, QueryResponse, http_status_for
from repro.serve.retry import BackoffPolicy
from repro.serve.scheduler import PriorityGate, RequestScheduler
from repro.serve.supervisor import make_pool

#: Error kinds that count as substrate faults for the circuit breaker.
BREAKER_FAULT_KINDS = frozenset((
    "InjectedFaultError",
    "DataCorruptionError",
    "SnapshotCorruptionError",
    "WorkerCrashError",
    "Unhandled",
))


class ServeApp:
    """Application core of the query service.

    Args:
        graph / config / engine_opts: search substrate, shared with pool
            workers through fork; *engine_opts* is a dict of
            :class:`~repro.core.options.SearchOptions` fields or a ready
            record, validated here, before any worker starts.
        workers: pool size; also the concurrency of the priority gate.
        backend: pool backend (``auto`` / ``fork`` / ``thread``).
        max_queue_depth / tenant_rate / tenant_burst / tenant_slots:
            admission knobs (see :class:`AdmissionController`).
        breaker_threshold / breaker_cooldown_s: per-tenant circuit
            breaker knobs.
        slo_classes: priority class table (default ``SLO_CLASSES``).
    """

    def __init__(
        self,
        graph,
        config=None,
        engine_opts: Optional[Dict[str, Any]] = None,
        workers: int = 2,
        backend: str = "auto",
        max_queue_depth: int = 64,
        tenant_rate: Optional[float] = None,
        tenant_burst: Optional[float] = None,
        tenant_slots: Optional[int] = None,
        breaker_threshold: int = 5,
        breaker_cooldown_s: float = 1.0,
        slo_classes: Optional[Dict[str, Any]] = None,
        backoff: Optional[BackoffPolicy] = None,
    ) -> None:
        self.graph = graph
        self.config = config
        self.workers = workers
        self.slo_classes = dict(slo_classes or SLO_CLASSES)
        self.pool = make_pool(graph, config=config, engine_opts=engine_opts,
                              size=workers, backend=backend)
        self.admission = AdmissionController(
            max_queue_depth=max_queue_depth,
            tenant_rate=tenant_rate,
            tenant_burst=tenant_burst,
            tenant_slots=tenant_slots,
        )
        self.breaker_threshold = breaker_threshold
        self.breaker_cooldown_s = breaker_cooldown_s
        self._breakers: Dict[str, CircuitBreaker] = {}
        self.gate = PriorityGate(capacity=workers)
        self.metrics = MetricsRegistry()
        self.scheduler = RequestScheduler(
            self.pool,
            backoff=backoff,
            on_retry=self.metrics.counter("serve_retries_total").inc,
            on_hedge=self.metrics.counter("serve_hedges_total").inc,
            on_hedge_win=self.metrics.counter("serve_hedge_wins_total").inc,
        )
        self._started = False

    # ------------------------------------------------------------------
    def start(self) -> "ServeApp":
        if not self._started:
            self.pool.start()
            self._started = True
        return self

    def stop(self) -> None:
        if self._started:
            self.pool.stop()
            self._started = False

    def breaker(self, tenant: str) -> CircuitBreaker:
        breaker = self._breakers.get(tenant)
        if breaker is None:
            breaker = self._breakers[tenant] = CircuitBreaker(
                failure_threshold=self.breaker_threshold,
                cooldown_s=self.breaker_cooldown_s,
            )
        return breaker

    # ------------------------------------------------------------------
    async def handle_request(self, request: QueryRequest) -> QueryResponse:
        """Run one parsed request through the full admission pipeline."""
        start = time.monotonic()
        self.metrics.counter("serve_requests_total").inc()
        try:
            slo = resolve_slo(request.priority, self.slo_classes)
        except ReproError as exc:
            return self._finish(request, start, QueryResponse(
                status="error", error_kind="QueryError", error=str(exc)))

        breaker = self.breaker(request.tenant)
        if not breaker.allow():
            self.metrics.counter("serve_breaker_rejects_total").inc()
            return self._finish(request, start, QueryResponse(
                status="shed", reason="breaker_open",
                retry_after_s=breaker.retry_after_s()))

        # From here on the request holds a half-open probe slot (when the
        # breaker is half-open); every exit must either record an outcome
        # or abandon the probe, else the breaker sticks half-open with
        # all probes consumed and locks the tenant out forever.
        probe_settled = False
        try:
            decision = self.admission.decide(
                request.tenant, slo.rank, self.gate.queue_depth)
            if not decision.admitted:
                self.metrics.counter("serve_shed_total").inc()
                self.metrics.counter(
                    f"serve_shed_{decision.reason}_total").inc()
                return self._finish(request, start, QueryResponse(
                    status="shed", reason=decision.reason,
                    retry_after_s=decision.retry_after_s))

            try:
                budget_spec = derive_budget_spec(
                    slo, decision.degrade_level, mode=request.mode,
                    deadline_override_ms=request.timeout_ms)
            except ReproError as exc:
                return self._finish(request, start, QueryResponse(
                    status="error", error_kind="QueryError",
                    error=str(exc)))

            payload: Dict[str, Any] = {
                "query": request.query,
                "k": request.k,
                "budget_spec": budget_spec,
            }
            if request.fault_specs:
                payload["fault_specs"] = [s.as_dict()
                                          for s in request.fault_specs]

            self.admission.begin(request.tenant)
            try:
                await self.gate.acquire(slo.rank)
                self.metrics.gauge("serve_queue_depth").set(
                    self.gate.queue_depth)
                try:
                    result = await self.scheduler.execute(payload, slo)
                finally:
                    self.gate.release()
            finally:
                self.admission.end(request.tenant)

            if result.get("ok"):
                breaker.record_success()
                probe_settled = True
                degraded = bool(result.get("degraded")) or \
                    decision.degrade_level > 0
                status = "degraded" if degraded else "ok"
                self.metrics.counter("serve_answered_total").inc()
                if degraded:
                    self.metrics.counter("serve_degraded_total").inc()
                response = QueryResponse(
                    status=status,
                    matches=result.get("matches", []),
                    report=result.get("report"),
                    degrade_level=decision.degrade_level,
                    attempts=result.get("attempts", 1),
                    hedged=bool(result.get("hedged")),
                )
            else:
                error_kind = result.get("error_kind", "Unhandled")
                if error_kind in BREAKER_FAULT_KINDS:
                    breaker.record_failure()
                    probe_settled = True
                self.metrics.counter("serve_errors_total").inc()
                response = QueryResponse(
                    status="error",
                    degrade_level=decision.degrade_level,
                    attempts=result.get("attempts", 1),
                    hedged=bool(result.get("hedged")),
                    error_kind=error_kind,
                    error=result.get("error"),
                )
            return self._finish(request, start, response)
        finally:
            if not probe_settled:
                breaker.abandon_probe()

    def _finish(self, request: QueryRequest, start: float,
                response: QueryResponse) -> QueryResponse:
        response.request_id = request.request_id
        response.elapsed_ms = (time.monotonic() - start) * 1000.0
        self.metrics.histogram(
            f"serve_latency_ms_{request.priority}"
        ).observe(response.elapsed_ms)
        self.metrics.counter(f"serve_status_{response.status}_total").inc()
        return response

    async def handle_search_body(self, body: str) -> QueryResponse:
        """Parse-and-handle one ``POST /search`` body."""
        try:
            request = QueryRequest.from_json(body)
        except QueryError as exc:
            self.metrics.counter("serve_bad_requests_total").inc()
            return QueryResponse(status="error", error_kind="QueryError",
                                 error=str(exc))
        return await self.handle_request(request)

    async def handle_batch_body(self, body: str) -> List[QueryResponse]:
        """Handle one ``POST /batch`` JSONL body, preserving line order.

        Every line is admitted independently and runs concurrently --
        a batch is just a burst of single requests sharing a socket.
        """
        lines = [ln for ln in body.splitlines() if ln.strip()]
        return list(await asyncio.gather(
            *(self.handle_search_body(line) for line in lines)))

    # ------------------------------------------------------------------
    def healthz(self) -> Dict[str, Any]:
        alive = self.pool.alive()
        return {
            "status": "ok" if alive > 0 else "degraded",
            "workers_alive": alive,
            "workers": self.workers,
            "backend": self.pool.backend,
        }

    def statz(self) -> Dict[str, Any]:
        """Full observability snapshot: every shed/degrade/retry/breaker/
        crash event of the service's lifetime is visible here."""
        return {
            "metrics": self.metrics.as_dict(),
            "admission": self.admission.state(),
            "queue": {
                "depth": self.gate.queue_depth,
                "active": self.gate.active,
                "capacity": self.gate.capacity,
            },
            "breakers": {tenant: b.as_dict()
                         for tenant, b in sorted(self._breakers.items())},
            "pool": self.pool.stats(),
            "slo_classes": {
                name: {"rank": s.rank, "deadline_ms": s.deadline_ms,
                       "max_retries": s.max_retries, "hedge_ms": s.hedge_ms}
                for name, s in sorted(self.slo_classes.items())
            },
        }


# ----------------------------------------------------------------------
# HTTP layer (stdlib-only, hand-rolled HTTP/1.1 subset)
# ----------------------------------------------------------------------

_MAX_BODY = 16 * 1024 * 1024
_MAX_HEADER = 64 * 1024


async def _read_request(reader: asyncio.StreamReader) \
        -> Optional[Tuple[str, str, Dict[str, str], bytes]]:
    """Read one request; None on clean EOF; ValueError on a bad one."""
    try:
        head = await reader.readuntil(b"\r\n\r\n")
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise ValueError("truncated request head") from None
    except asyncio.LimitOverrunError:
        raise ValueError("request head too large") from None
    if len(head) > _MAX_HEADER:
        raise ValueError("request head too large")
    text = head.decode("latin-1")
    request_line, _, header_block = text.partition("\r\n")
    parts = request_line.split()
    if len(parts) != 3:
        raise ValueError(f"malformed request line: {request_line!r}")
    method, path, _version = parts
    headers: Dict[str, str] = {}
    for line in header_block.split("\r\n"):
        if not line:
            continue
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    length = int(headers.get("content-length", "0") or "0")
    if length < 0 or length > _MAX_BODY:
        raise ValueError(f"unacceptable content-length {length}")
    body = await reader.readexactly(length) if length else b""
    return method, path, headers, body


def _response_bytes(status: int, payload: bytes,
                    content_type: str = "application/json",
                    extra_headers: Optional[Dict[str, str]] = None) -> bytes:
    reasons = {200: "OK", 400: "Bad Request", 404: "Not Found",
               405: "Method Not Allowed", 429: "Too Many Requests",
               500: "Internal Server Error", 503: "Service Unavailable"}
    lines = [
        f"HTTP/1.1 {status} {reasons.get(status, 'Unknown')}",
        f"Content-Type: {content_type}",
        f"Content-Length: {len(payload)}",
        "Connection: keep-alive",
    ]
    for name, value in (extra_headers or {}).items():
        lines.append(f"{name}: {value}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("ascii") + payload


def _retry_after_header(response: QueryResponse) -> Dict[str, str]:
    if response.retry_after_s is None:
        return {}
    return {"Retry-After": f"{max(response.retry_after_s, 0.0):.3f}"}


async def _handle_connection(app: ServeApp,
                             reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
    try:
        while True:
            try:
                parsed = await _read_request(reader)
            except (ValueError, asyncio.IncompleteReadError):
                writer.write(_response_bytes(
                    400, b'{"error": "malformed HTTP request"}'))
                await writer.drain()
                break
            if parsed is None:
                break
            method, path, _headers, body = parsed
            out = await _dispatch(app, method, path, body)
            writer.write(out)
            await writer.drain()
    except (ConnectionResetError, BrokenPipeError):
        pass
    except asyncio.CancelledError:
        pass  # server shutdown reaps parked keep-alive connections
    finally:
        try:
            writer.close()
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError, OSError,
                RuntimeError, asyncio.CancelledError):
            pass


async def _dispatch(app: ServeApp, method: str, path: str,
                    body: bytes) -> bytes:
    path = path.split("?", 1)[0]
    if path == "/healthz":
        if method != "GET":
            return _response_bytes(405, b'{"error": "use GET"}')
        return _response_bytes(
            200, json.dumps(app.healthz(), sort_keys=True).encode())
    if path == "/statz":
        if method != "GET":
            return _response_bytes(405, b'{"error": "use GET"}')
        return _response_bytes(
            200, json.dumps(app.statz(), sort_keys=True).encode())
    if path == "/search":
        if method != "POST":
            return _response_bytes(405, b'{"error": "use POST"}')
        response = await app.handle_search_body(
            body.decode("utf-8", errors="replace"))
        return _response_bytes(
            http_status_for(response), response.to_json().encode(),
            extra_headers=_retry_after_header(response))
    if path == "/batch":
        if method != "POST":
            return _response_bytes(405, b'{"error": "use POST"}')
        responses = await app.handle_batch_body(
            body.decode("utf-8", errors="replace"))
        payload = "\n".join(r.to_json() for r in responses) + "\n"
        # A batch is 200 end-to-end; per-line status lives in each line.
        return _response_bytes(200, payload.encode(),
                               content_type="application/jsonl")
    return _response_bytes(404, b'{"error": "unknown path"}')


async def serve_forever(app: ServeApp, host: str = "127.0.0.1",
                        port: int = 8571,
                        ready: Optional[Callable] = None) -> None:
    """Run the HTTP server until cancelled (CLI entry point)."""
    app.start()
    server = await asyncio.start_server(
        lambda r, w: _handle_connection(app, r, w), host=host, port=port)
    bound = server.sockets[0].getsockname()
    if ready is not None:
        ready(bound)
    try:
        async with server:
            await server.serve_forever()
    finally:
        app.stop()


class ServerHandle:
    """A serve app running on a background thread (tests, chaos, bench).

    Binds port 0 by default so parallel test runs never collide; the
    resolved address is available after :meth:`start` as ``.address``.
    """

    def __init__(self, app: ServeApp, host: str = "127.0.0.1",
                 port: int = 0) -> None:
        self.app = app
        self.host = host
        self.port = port
        self.address: Optional[Tuple[str, int]] = None
        self._thread: Optional[threading.Thread] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._ready = threading.Event()
        self._task: Optional[asyncio.Task] = None

    def start(self, timeout_s: float = 10.0) -> "ServerHandle":
        if self._thread is not None:
            return self

        def _run() -> None:
            loop = asyncio.new_event_loop()
            self._loop = loop
            asyncio.set_event_loop(loop)

            def _on_ready(bound) -> None:
                self.address = (bound[0], bound[1])
                self._ready.set()

            self._task = loop.create_task(serve_forever(
                self.app, host=self.host, port=self.port, ready=_on_ready))
            try:
                loop.run_until_complete(self._task)
            except asyncio.CancelledError:
                pass
            finally:
                # Reap connection handlers still parked on a keep-alive
                # read so the loop closes without "pending task" noise.
                leftovers = asyncio.all_tasks(loop)
                for task in leftovers:
                    task.cancel()
                if leftovers:
                    loop.run_until_complete(asyncio.gather(
                        *leftovers, return_exceptions=True))
                loop.close()

        self._thread = threading.Thread(target=_run, name="serve-http",
                                        daemon=True)
        self._thread.start()
        if not self._ready.wait(timeout=timeout_s):
            raise ReproError("server did not become ready in time")
        return self

    def stop(self, timeout_s: float = 10.0) -> None:
        if self._thread is None or self._loop is None:
            return
        loop, task = self._loop, self._task

        def _cancel() -> None:
            if task is not None:
                task.cancel()

        loop.call_soon_threadsafe(_cancel)
        self._thread.join(timeout=timeout_s)
        self._thread = None
        self._loop = None
        self._task = None

    def __enter__(self) -> "ServerHandle":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
