"""STAR: fast top-k subgraph search in knowledge graphs.

A from-scratch reproduction of Yang, Han, Wu, Yan: "Fast Top-K Search in
Knowledge Graphs" (ICDE 2016).  See DESIGN.md for the system inventory and
EXPERIMENTS.md for the reproduced evaluation.

Quickstart::

    from repro import Star, star_query, dbpedia_like

    graph = dbpedia_like(scale=0.5)
    query = star_query("Brad", [("collaborated_with", "?"),
                                ("won", "Academy Award")],
                       pivot_type="actor")
    engine = Star(graph)
    for match in engine.search(query, k=5):
        print(match.score, match.assignment)
"""

from repro import obs
from repro.obs import STAT_KEYS, EngineStats, MetricsRegistry, Tracer
from repro.baselines import BeliefPropagation, GraphTA, brute_force_topk
from repro.core import (
    Match,
    SearchOptions,
    Star,
    StarDSearch,
    StarJoin,
    StarKSearch,
    tune_parameters,
)
from repro.errors import (
    BudgetExceededError,
    DataCorruptionError,
    DatasetError,
    DecompositionError,
    GraphError,
    InjectedFaultError,
    OverloadedError,
    QueryError,
    ReproError,
    ScoringError,
    SearchError,
    SearchTimeoutError,
    SnapshotCorruptionError,
    WorkerCrashError,
)
from repro.graph import (
    KnowledgeGraph,
    dbpedia_like,
    freebase_like,
    load_graph,
    save_graph,
    summarize,
    yago2_like,
)
from repro.query import (
    Query,
    StarQuery,
    decompose,
    random_subgraph_query,
    star_query,
    star_workload,
)
from repro.perf import BatchResult, CandidateCache, attach_cache, search_many
from repro.runtime import Budget, FaultSpec, SearchReport, faulty
from repro.similarity import (
    Descriptor,
    ScoringConfig,
    ScoringFunction,
    learn_weights,
)

__version__ = "0.1.0"

__all__ = [
    "BatchResult",
    "BeliefPropagation",
    "Budget",
    "BudgetExceededError",
    "CandidateCache",
    "DataCorruptionError",
    "DatasetError",
    "DecompositionError",
    "Descriptor",
    "EngineStats",
    "FaultSpec",
    "GraphError",
    "GraphTA",
    "InjectedFaultError",
    "KnowledgeGraph",
    "Match",
    "MetricsRegistry",
    "OverloadedError",
    "Query",
    "QueryError",
    "ReproError",
    "STAT_KEYS",
    "ScoringConfig",
    "ScoringError",
    "ScoringFunction",
    "SearchError",
    "SearchOptions",
    "SearchReport",
    "SearchTimeoutError",
    "SnapshotCorruptionError",
    "Star",
    "StarDSearch",
    "StarJoin",
    "StarKSearch",
    "StarQuery",
    "Tracer",
    "WorkerCrashError",
    "attach_cache",
    "obs",
    "brute_force_topk",
    "dbpedia_like",
    "decompose",
    "faulty",
    "freebase_like",
    "learn_weights",
    "load_graph",
    "random_subgraph_query",
    "save_graph",
    "search_many",
    "star_query",
    "star_workload",
    "summarize",
    "tune_parameters",
    "yago2_like",
]
