"""repro.serve -- async query service with admission control.

Layers (each importable and testable on its own):

* :mod:`repro.serve.protocol` -- wire shapes (requests, responses);
* :mod:`repro.serve.admission` -- rate limits, tenant slots and the
  degrade-before-shed pressure state machine;
* :mod:`repro.serve.breaker` -- per-tenant circuit breakers;
* :mod:`repro.serve.retry` -- backoff policy and retryable kinds;
* :mod:`repro.serve.scheduler` -- priority gate, retries, hedging;
* :mod:`repro.serve.supervisor` -- what a pool worker executes, on the
  supervised :class:`repro.runtime.workers.TaskPool` (crash detection,
  re-queue, replenishment) or its thread fallback
  :class:`~repro.runtime.workers.ThreadPool`;
* :mod:`repro.serve.server` -- the application core and the stdlib
  HTTP layer;
* :mod:`repro.serve.client` -- blocking HTTP client;
* :mod:`repro.serve.chaos` -- overload/fault acceptance harness.
"""

from repro.runtime.workers import strip_transient_faults
from repro.serve.admission import AdmissionController, Decision, TokenBucket
from repro.serve.breaker import CLOSED, HALF_OPEN, OPEN, CircuitBreaker
from repro.serve.chaos import (
    ChaosConfig,
    ChaosResult,
    format_result,
    run_chaos,
)
from repro.serve.client import ServeClient
from repro.serve.protocol import (
    QueryRequest,
    QueryResponse,
    STATUSES,
    http_status_for,
)
from repro.serve.retry import BackoffPolicy, RETRYABLE_KINDS, is_retryable
from repro.serve.scheduler import PriorityGate, RequestScheduler
from repro.serve.server import (
    BREAKER_FAULT_KINDS,
    ServeApp,
    ServerHandle,
    serve_forever,
)
from repro.serve.supervisor import (
    EngineContext,
    execute_payload,
    make_pool,
)

__all__ = [
    "AdmissionController",
    "BackoffPolicy",
    "BREAKER_FAULT_KINDS",
    "ChaosConfig",
    "ChaosResult",
    "CircuitBreaker",
    "CLOSED",
    "Decision",
    "EngineContext",
    "HALF_OPEN",
    "OPEN",
    "PriorityGate",
    "QueryRequest",
    "QueryResponse",
    "RequestScheduler",
    "RETRYABLE_KINDS",
    "STATUSES",
    "ServeApp",
    "ServeClient",
    "ServerHandle",
    "TokenBucket",
    "execute_payload",
    "format_result",
    "http_status_for",
    "is_retryable",
    "make_pool",
    "run_chaos",
    "serve_forever",
    "strip_transient_faults",
]
