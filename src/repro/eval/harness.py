"""Timing harness: run algorithm x workload grids with fair cold caches.

Section VII's protocol: end-to-end query processing time, averaged over
cold runs.  Fairness here means every algorithm sees the same graph, the
same scoring function and the same candidate definitions, and pays the
online scoring cost itself: the shared scorer's memo cache is cleared
before each (algorithm, query) measurement.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.baselines import BeliefPropagation, GraphTA
from repro.core import Star
from repro.core.options import SearchOptions
from repro.core.procedures import star_matcher
from repro.errors import BudgetExceededError, SearchError
from repro.query.model import Query, StarQuery
from repro.runtime.budget import Budget
from repro.similarity.scoring import ScoringFunction

#: Matcher names accepted by :func:`make_matcher`.
ALGORITHMS = ("stark", "stard", "graphta", "bp")


@dataclass
class AlgorithmResult:
    """Aggregated measurements of one algorithm over one workload."""

    algorithm: str
    runtimes: List[float] = field(default_factory=list)
    matches_found: int = 0
    empty_queries: int = 0
    budget_exceeded: int = 0
    faults_recorded: int = 0
    #: :meth:`repro.obs.MetricsRegistry.as_dict` snapshot covering the
    #: run, when observability was enabled around the call; else None.
    metrics: Optional[Dict[str, dict]] = None

    @property
    def total_s(self) -> float:
        return sum(self.runtimes)

    @property
    def avg_ms(self) -> float:
        return 1000.0 * self.total_s / len(self.runtimes) if self.runtimes else 0.0

    @property
    def p50_ms(self) -> float:
        return 1000.0 * statistics.median(self.runtimes) if self.runtimes else 0.0


def make_matcher(
    name: str,
    scorer: ScoringFunction,
    d: int = 1,
    candidate_limit: Optional[int] = None,
) -> Callable[[Query, int], list]:
    """Build a ``search(query, k)`` callable for the named algorithm.

    ``stark``/``stard`` accept star-shaped queries (converted
    internally); ``graphta``/``bp`` take general queries directly.

    Raises:
        SearchError: for unknown algorithm names.
    """
    name = name.lower()
    if name in ("stark", "stard"):
        options = SearchOptions(
            algorithm=name, d=d, candidate_limit=candidate_limit
        )

        def run(query: Query, k: int, budget: Optional[Budget] = None) -> list:
            matcher = star_matcher(scorer, options)
            return matcher.search(StarQuery.from_query(query), k, budget=budget)
        return run
    if name == "graphta":
        def run(query: Query, k: int, budget: Optional[Budget] = None) -> list:
            return GraphTA(
                scorer, d=d, candidate_limit=candidate_limit
            ).search(query, k, budget=budget)
        return run
    if name == "bp":
        def run(query: Query, k: int, budget: Optional[Budget] = None) -> list:
            return BeliefPropagation(
                scorer, d=d, candidate_limit=candidate_limit
            ).search(query, k, budget=budget)
        return run
    raise SearchError(f"unknown algorithm {name!r}; choose from {ALGORITHMS}")


#: Per-query measurement: (elapsed_s, matches, budget_exceeded, faults).
_Measurement = Tuple[float, int, int, int]


def _measure_query(
    run: Callable,
    scorer: ScoringFunction,
    query: Query,
    k: int,
    cold: bool,
    deadline_ms: Optional[float],
    max_nodes: Optional[int],
    anytime: bool,
) -> _Measurement:
    """One (algorithm, query) measurement under the serial protocol."""
    if cold:
        scorer.clear_cache()
    budgeted = deadline_ms is not None or max_nodes is not None
    budget = (
        Budget(deadline_ms=deadline_ms, max_nodes=max_nodes, anytime=anytime)
        if budgeted else None
    )
    start = time.perf_counter()
    try:
        matches = run(query, k, budget=budget)
    except BudgetExceededError:
        matches = []
    elapsed = time.perf_counter() - start
    exceeded = int(budget is not None and budget.exceeded_reason is not None)
    faults = len(budget.faults) if budget is not None else 0
    return elapsed, len(matches), exceeded, faults


def time_algorithm(
    name: str,
    scorer: ScoringFunction,
    workload: Sequence[Query],
    k: int,
    d: int = 1,
    candidate_limit: Optional[int] = None,
    cold: bool = True,
    deadline_ms: Optional[float] = None,
    max_nodes: Optional[int] = None,
    anytime: bool = True,
) -> AlgorithmResult:
    """Measure one algorithm over a workload (cold scorer cache per query).

    A per-query :class:`Budget` is applied when *deadline_ms* or
    *max_nodes* is set.  In anytime mode (default) a budgeted query
    contributes its flagged best-so-far matches and bumps
    ``budget_exceeded``; in strict mode a trip counts the query as empty.
    """
    run = make_matcher(name, scorer, d=d, candidate_limit=candidate_limit)
    result = AlgorithmResult(algorithm=name)

    measurements = [
        _measure_query(
            run, scorer, query, k, cold, deadline_ms, max_nodes, anytime
        )
        for query in workload
    ]
    result.metrics = obs.snapshot()

    for elapsed, n_matches, exceeded, faults in measurements:
        result.runtimes.append(elapsed)
        result.matches_found += n_matches
        if not n_matches:
            result.empty_queries += 1
        result.budget_exceeded += exceeded
        result.faults_recorded += faults
    return result


def disjoint_edge_stream(
    graph,
    count: int,
    avoid: frozenset = frozenset(),
    relation: str = "unrelated_to",
    seed: int = 0,
) -> List[list]:
    """Operation records for *count* cache-survivable edge inserts.

    Generates ``add_edge`` records (for
    :func:`repro.dynamic.apply_operations`) between live nodes outside
    *avoid*, choosing endpoints whose post-insert degree stays strictly
    below the graph's max degree -- so no insert moves the degree-prior
    normalizer and every mutation is one a fine-grained cache can
    provably survive.  This is the "N unrelated edge inserts" half of
    the warm-hit-rate retention experiment (EXPERIMENTS.md): apply the
    stream between two identical workload runs and compare hit rates.

    Returns fewer than *count* records when the graph has too few
    eligible low-degree node pairs.
    """
    import random

    rng = random.Random(seed)
    eligible = [v for v in graph.nodes() if v not in avoid]
    degrees = {v: graph.degree(v) for v in eligible}
    ceiling = graph.max_degree - 1  # post-insert degree must stay <= max
    records: List[list] = []
    attempts = 0
    max_attempts = max(50, count * 50)
    while len(records) < count and attempts < max_attempts:
        attempts += 1
        if len(eligible) < 2:
            break
        a, b = rng.sample(eligible, 2)
        if degrees[a] > ceiling - 1 or degrees[b] > ceiling - 1:
            continue
        records.append(["add_edge", a, b, relation, {}])
        degrees[a] += 1
        degrees[b] += 1
    return records


def run_star_workload(
    scorer: ScoringFunction,
    workload: Sequence[Query],
    algorithms: Sequence[str],
    k: int,
    d: int = 1,
    candidate_limit: Optional[int] = None,
    deadline_ms: Optional[float] = None,
    max_nodes: Optional[int] = None,
    anytime: bool = True,
) -> Dict[str, AlgorithmResult]:
    """Measure several algorithms over a star-query workload."""
    return {
        name: time_algorithm(
            name, scorer, workload, k, d=d, candidate_limit=candidate_limit,
            deadline_ms=deadline_ms, max_nodes=max_nodes, anytime=anytime,
        )
        for name in algorithms
    }


def run_general_workload(
    scorer: ScoringFunction,
    workload: Sequence[Query],
    k: int,
    d: int = 1,
    alpha: float = 0.5,
    method: str = "simdec",
    lam: float = 1.0,
    candidate_limit: Optional[int] = None,
    deadline_ms: Optional[float] = None,
    max_nodes: Optional[int] = None,
    anytime: bool = True,
) -> "JoinRunResult":
    """Measure the STAR framework on general queries; tracks join depth."""
    runtimes: List[float] = []
    depths: List[int] = []
    matches_found = 0
    budget_exceeded = 0
    budgeted = deadline_ms is not None or max_nodes is not None
    for query in workload:
        scorer.clear_cache()
        engine = Star(
            scorer.graph, scorer=scorer, d=d, alpha=alpha,
            decomposition_method=method, lam=lam,
            candidate_limit=candidate_limit,
        )
        budget = (
            Budget(deadline_ms=deadline_ms, max_nodes=max_nodes,
                   anytime=anytime)
            if budgeted else None
        )
        start = time.perf_counter()
        try:
            matches = engine.search(query, k, budget=budget)
        except BudgetExceededError:
            matches = []
        runtimes.append(time.perf_counter() - start)
        matches_found += len(matches)
        depths.append(engine.total_depth or 0)
        if budget is not None and budget.exceeded_reason is not None:
            budget_exceeded += 1
    return JoinRunResult(
        method, alpha, runtimes, depths, matches_found, budget_exceeded
    )


@dataclass
class JoinRunResult:
    """Measurements of one starjoin configuration over a workload."""

    method: str
    alpha: float
    runtimes: List[float]
    depths: List[int]
    matches_found: int
    budget_exceeded: int = 0

    @property
    def avg_ms(self) -> float:
        return 1000.0 * sum(self.runtimes) / len(self.runtimes) if self.runtimes else 0.0

    @property
    def avg_depth(self) -> float:
        return sum(self.depths) / len(self.depths) if self.depths else 0.0

    @property
    def depth_std(self) -> float:
        return statistics.pstdev(self.depths) if len(self.depths) > 1 else 0.0
