"""Cooperative budgets and anytime search reports.

Production serving of top-k graph search needs *bounded* work: an
adversarial query, a slow scoring measure, or a faulty substrate must not
stall the engine (see Wang et al., "Semantic Guided and Response Times
Bounded Top-k Similarity Search over Knowledge Graphs", for the
response-time-bounded contract this mirrors; the paper's own Proposition 3
and d-bounded propagation already motivate bounded access internally).

The contract:

* A :class:`Budget` carries a wall-clock deadline plus work-unit caps
  (node visits, propagated messages, join steps).  One instance covers one
  search run; engines *charge* work at cooperative checkpoints.
* A charge that pushes a counter past its cap, or finds the deadline
  passed, **trips** the budget.  In strict mode (``anytime=False``) the
  charge raises :class:`~repro.errors.SearchTimeoutError` /
  :class:`~repro.errors.BudgetExceededError`; in anytime mode it returns
  True and the engine winds down, returning its best-so-far matches.
* A :class:`SearchReport` summarizes how the run ended: ``completed``
  (False when a budget tripped or a substrate fault was recorded --
  degraded results are flagged, never silently wrong), the termination
  reason, counters and elapsed time.

Engines treat ``budget=None`` as "unlimited": every checkpoint is a single
``is not None`` test, so unbudgeted searches keep the seed's exact
behavior and cost (verified by ``benchmarks/bench_runtime_budget.py``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.errors import BudgetExceededError, SearchError, SearchTimeoutError

#: Termination reasons a tripped budget / SearchReport may carry.
REASON_DEADLINE = "deadline"
REASON_NODES = "node_budget"
REASON_MESSAGES = "message_budget"
REASON_JOIN_STEPS = "join_budget"
REASON_FAULT = "fault"


class Budget:
    """Cooperative budget: wall-clock deadline plus work counters.

    Args:
        deadline_ms: wall-clock limit in milliseconds (0 trips at the very
            first checkpoint -- useful for testing the wind-down path).
        max_nodes: cap on node visits (candidate scorings + pivot
            evaluations + backtracking steps, depending on the engine).
        max_messages: cap on propagated messages / pairwise evaluations.
        max_join_steps: cap on rank-join combination attempts.
        anytime: False (strict) makes a tripping charge raise; True makes
            it return True so engines can return best-so-far results.
        clock: monotonic time source (injectable for tests).

    A tripped budget is *sticky*: every later charge reports exhaustion,
    so a budget must not be reused across runs without :meth:`start`.
    Under an anytime budget, engines also route recoverable substrate
    failures here via :meth:`record_fault`.
    """

    __slots__ = (
        "deadline_ms", "max_nodes", "max_messages", "max_join_steps",
        "anytime", "_clock", "_started_at", "_deadline_at",
        "nodes_visited", "messages_sent", "join_steps", "faults",
        "exceeded_reason",
    )

    def __init__(
        self,
        deadline_ms: Optional[float] = None,
        max_nodes: Optional[int] = None,
        max_messages: Optional[int] = None,
        max_join_steps: Optional[int] = None,
        anytime: bool = False,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        for name, value in (
            ("deadline_ms", deadline_ms),
            ("max_nodes", max_nodes),
            ("max_messages", max_messages),
            ("max_join_steps", max_join_steps),
        ):
            if value is not None and value < 0:
                raise SearchError(f"{name} must be >= 0, got {value}")
        self.deadline_ms = deadline_ms
        self.max_nodes = max_nodes
        self.max_messages = max_messages
        self.max_join_steps = max_join_steps
        self.anytime = anytime
        self._clock = clock
        self.start()

    # ------------------------------------------------------------------
    def start(self) -> "Budget":
        """(Re)arm the budget: reset counters, faults and the deadline."""
        self.nodes_visited = 0
        self.messages_sent = 0
        self.join_steps = 0
        self.faults: List[str] = []
        self.exceeded_reason: Optional[str] = None
        self._started_at = self._clock()
        self._deadline_at = (
            self._started_at + self.deadline_ms / 1000.0
            if self.deadline_ms is not None else None
        )
        return self

    @property
    def elapsed_ms(self) -> float:
        return (self._clock() - self._started_at) * 1000.0

    @property
    def exhausted(self) -> bool:
        """True once any limit has tripped."""
        return self.exceeded_reason is not None

    def record_fault(self, description: str) -> None:
        """Log a recovered substrate failure (anytime degradation)."""
        self.faults.append(description)

    # ------------------------------------------------------------------
    def _trip(self, reason: str, timeout: bool) -> bool:
        self.exceeded_reason = reason
        if not self.anytime:
            exc_cls = SearchTimeoutError if timeout else BudgetExceededError
            raise exc_cls(
                f"search budget exceeded ({reason}): "
                f"nodes={self.nodes_visited} messages={self.messages_sent} "
                f"join_steps={self.join_steps} "
                f"elapsed={self.elapsed_ms:.1f}ms"
            )
        return True

    def check(self) -> bool:
        """General checkpoint: sticky-exhausted or past the deadline."""
        if self.exceeded_reason is not None:
            return True
        if self._deadline_at is not None and self._clock() >= self._deadline_at:
            return self._trip(REASON_DEADLINE, timeout=True)
        return False

    def out_of_time(self) -> bool:
        """Deadline-only checkpoint for wind-down phases.

        Unlike :meth:`check` this ignores counter trips, so an engine that
        already tripped a work cap can still drain cheap, precomputed
        state (e.g. emit matches sitting in a heap) until time truly runs
        out.
        """
        if self.exceeded_reason == REASON_DEADLINE:
            return True
        if self._deadline_at is not None and self._clock() >= self._deadline_at:
            return self._trip(REASON_DEADLINE, timeout=True)
        return False

    def charge_nodes(self, n: int = 1) -> bool:
        """Charge *n* node visits; True when the budget has tripped."""
        if self.exceeded_reason is not None:
            return True
        self.nodes_visited += n
        if self.max_nodes is not None and self.nodes_visited > self.max_nodes:
            return self._trip(REASON_NODES, timeout=False)
        return self.check()

    def try_charge_nodes(self, n: int) -> bool:
        """Charge *n* node visits at once if they fit under the node cap.

        False, charging nothing, when the budget has tripped or the cap
        would trip inside the *n*; the caller then does the work visit
        by visit, and the cap trips where it would have anyway.  A
        deadline is checked as in :meth:`charge_nodes`.
        """
        if self.exceeded_reason is not None or (
                self.max_nodes is not None
                and self.nodes_visited + n > self.max_nodes):
            return False
        self.charge_nodes(n)
        return True

    def charge_messages(self, n: int = 1) -> bool:
        """Charge *n* propagated messages; True when tripped."""
        if self.exceeded_reason is not None:
            return True
        self.messages_sent += n
        if self.max_messages is not None and self.messages_sent > self.max_messages:
            return self._trip(REASON_MESSAGES, timeout=False)
        return self.check()

    def charge_join_steps(self, n: int = 1) -> bool:
        """Charge *n* rank-join combination attempts; True when tripped."""
        if self.exceeded_reason is not None:
            return True
        self.join_steps += n
        if self.max_join_steps is not None and self.join_steps > self.max_join_steps:
            return self._trip(REASON_JOIN_STEPS, timeout=False)
        return self.check()

    def __repr__(self) -> str:
        return (
            f"Budget(deadline_ms={self.deadline_ms}, max_nodes={self.max_nodes}, "
            f"max_messages={self.max_messages}, "
            f"max_join_steps={self.max_join_steps}, anytime={self.anytime}, "
            f"exceeded={self.exceeded_reason!r})"
        )


@dataclass
class SearchReport:
    """What a search run did and how it ended.

    ``completed`` is True only for a run that neither tripped a budget nor
    recovered from a fault -- i.e. its results are exactly the unbudgeted
    engine's results.  Anything else is a flagged, best-so-far answer.
    """

    algorithm: str = ""
    completed: bool = True
    reason: Optional[str] = None
    elapsed_ms: float = 0.0
    nodes_visited: int = 0
    messages_sent: int = 0
    join_steps: int = 0
    matches_returned: int = 0
    faults: List[str] = field(default_factory=list)

    @property
    def degraded(self) -> bool:
        """True when results are best-so-far rather than exact."""
        return not self.completed

    def as_dict(self) -> Dict[str, Any]:
        """The report as plain data: :func:`dataclasses.asdict`'s result
        without its recursive walk (``faults`` is the one container
        field; a new nested field must be copied here too)."""
        return dict(vars(self), faults=list(self.faults))

    @classmethod
    def from_budget(
        cls, algorithm: str, budget: Optional[Budget], matches_returned: int
    ) -> "SearchReport":
        """Snapshot *budget* (None = trivially complete) into a report."""
        if budget is None:
            return cls(algorithm=algorithm, matches_returned=matches_returned)
        reason = budget.exceeded_reason
        if reason is None and budget.faults:
            reason = REASON_FAULT
        return cls(
            algorithm=algorithm,
            completed=reason is None,
            reason=reason,
            elapsed_ms=budget.elapsed_ms,
            nodes_visited=budget.nodes_visited,
            messages_sent=budget.messages_sent,
            join_steps=budget.join_steps,
            matches_returned=matches_returned,
            faults=list(budget.faults),
        )

    def summary(self) -> str:
        """One-line human-readable summary (CLI / logs)."""
        state = "completed" if self.completed else f"incomplete ({self.reason})"
        line = (
            f"{self.algorithm or 'search'} {state}: "
            f"{self.matches_returned} match(es) in {self.elapsed_ms:.1f} ms, "
            f"nodes={self.nodes_visited} messages={self.messages_sent} "
            f"join_steps={self.join_steps}"
        )
        if self.faults:
            line += f", faults={len(self.faults)}"
        return line
