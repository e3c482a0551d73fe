"""Retry policy: exponential backoff with deterministic jitter.

The scheduler retries *fault-class* failures only (injected faults,
detected corruption, worker crashes) -- a degraded-but-valid anytime
answer is a success, and overload rejections must surface to the
client, not burn more capacity.  Jitter decorrelates retry storms;
the RNG is injectable so tests see fixed delays.

Transient-vs-persistent semantics: one-shot faults (``repeat=False``)
model transient substrate failures, so a retry (or a crash re-queue)
strips them and probes a clean path
(:func:`repro.runtime.workers.strip_transient_faults`).  ``repeat=True`` specs model a
persistently broken dependency and survive the strip -- such requests
exhaust their retries and feed the circuit breaker.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

#: Error kinds (exception class names crossing the worker boundary)
#: that a retry may plausibly fix.
RETRYABLE_KINDS = frozenset((
    "InjectedFaultError",
    "DataCorruptionError",
    "SnapshotCorruptionError",
    "WorkerCrashError",
    "GraphError",
    "ScoringError",
    "Timeout",
))


@dataclass
class BackoffPolicy:
    """Exponential backoff: ``base * factor**attempt``, capped, jittered.

    ``jitter`` is the fraction of the delay randomly *subtracted*
    (decorrelation without ever exceeding the cap); 0 disables it.
    """

    base_ms: float = 10.0
    factor: float = 2.0
    max_ms: float = 1000.0
    jitter: float = 0.5
    rng: random.Random = field(default_factory=lambda: random.Random(0))

    def delay_ms(self, attempt: int) -> float:
        """Backoff before retry number *attempt* (0-based)."""
        delay = min(self.base_ms * (self.factor ** attempt), self.max_ms)
        if self.jitter > 0.0:
            delay *= 1.0 - self.jitter * self.rng.random()
        return delay


def is_retryable(error_kind: str) -> bool:
    return error_kind in RETRYABLE_KINDS
