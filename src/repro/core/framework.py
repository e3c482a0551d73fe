"""Framework STAR (Fig. 4): the end-to-end top-k query engine.

Ties the pieces together: star queries go straight to ``stark`` (d = 1) or
``stard`` (d >= 2); general queries are decomposed (Section VI-B) and the
star match streams are rank-joined by ``starjoin`` with the alpha-scheme.
This is the class a library user instantiates::

    from repro import Star
    engine = Star(graph)                      # default scoring
    matches = engine.search(query, k=10)      # top-10, any query shape
"""

from __future__ import annotations

from typing import List, Optional, Union

from repro import obs
from repro.core.matches import Match
from repro.core.procedures import ALGORITHMS, star_matcher
from repro.core.starjoin import StarJoin
from repro.errors import DecompositionError, SearchError
from repro.graph.knowledge_graph import KnowledgeGraph
from repro.query.decomposition import Decomposition, METHODS, decompose
from repro.query.model import Query, StarQuery
from repro.runtime.budget import Budget, SearchReport
from repro.similarity.scoring import ScoringConfig, ScoringFunction

#: Plan modes: ``static`` = fixed knobs (seed behavior, zero overhead);
#: ``auto`` = a :class:`repro.plan.QueryPlanner` explores cold arms and
#: learns online, exploiting once warm; ``learned`` = exploit only --
#: the planner runs the static plan until its model is warm (usually a
#: fitted model loaded via ``plan_model=``).  Every planned knob is
#: result-preserving, so all three modes return identical matches.
PLAN_MODES = ("static", "auto", "learned")


class Star:
    """The STAR top-k knowledge-graph search engine.

    Args:
        graph: the data graph.
        scorer: a shared :class:`ScoringFunction`; built from *config* (or
            defaults) when omitted.
        config: scoring configuration used when *scorer* is omitted.
        d: search bound -- a query edge may match a path of length <= d.
        alpha: alpha-scheme split for rank joins.
        decomposition_method: one of ``rand / maxdeg / simsize / simtop /
            simdec`` (Section VI-B).
        lam: Eq. 5's lambda trade-off for the optimized decompositions.
        injective: enforce one-to-one matching.
        candidate_limit: optional candidate cutoff for large graphs.
        use_index: ``auto`` | ``on`` | ``off`` -- route candidate
            generation through an upper-bound-pruned
            :class:`repro.index.GraphIndex` (results are byte-identical
            to the linear scan).  ``auto`` (default) engages it only for
            calls with a candidate cutoff; ``off`` never builds one.  A
            scorer with an index already attached keeps it regardless.
        use_semantic: ``auto`` | ``on`` | ``off`` -- attach a
            :class:`repro.ann.SemanticTier` adding ANN-sourced,
            exactly-reranked candidates.  ``auto`` (default) engages
            only when the token shortlist yields zero admissible
            candidates (out-of-vocabulary queries), leaving
            in-vocabulary searches byte-identical to the seed; ``on``
            augments every non-wildcard candidate call; ``off`` never
            attaches.  A scorer with a tier already attached keeps it
            regardless (so callers can pre-tune probe limits or time
            bounds via :func:`repro.ann.attach_semantic`).
    """

    def __init__(
        self,
        graph: KnowledgeGraph,
        scorer: Optional[ScoringFunction] = None,
        config: Optional[ScoringConfig] = None,
        d: int = 1,
        alpha: Optional[float] = None,
        decomposition_method: Optional[str] = None,
        lam: float = 1.0,
        injective: bool = True,
        candidate_limit: Optional[int] = None,
        directed: bool = False,
        use_index: str = "auto",
        use_semantic: str = "auto",
        algorithm: str = "auto",
        plan: str = "static",
        planner=None,
        plan_model: Optional[str] = None,
    ) -> None:
        if d < 1:
            raise SearchError(f"search bound d must be >= 1, got {d}")
        if directed and d != 1:
            raise SearchError("directed matching is defined for d == 1 only")
        # An explicitly passed knob is *pinned*: the planner must never
        # override it (the caller's choice always wins).  ``None`` means
        # "engine default, planner may tune".
        self._alpha_pinned = alpha is not None
        if alpha is None:
            alpha = 0.5
        if not (0.0 <= alpha <= 1.0):
            raise SearchError(f"alpha={alpha} must be in [0, 1]")
        self._method_pinned = decomposition_method is not None
        if decomposition_method is None:
            decomposition_method = "simdec"
        if decomposition_method not in METHODS:
            # Typed, fail-fast validation: without it a bad method name
            # only surfaces on the first *non-star* search, deep inside
            # decompose (and never at all on star-only workloads).
            raise DecompositionError(
                f"unknown decomposition method {decomposition_method!r}; "
                f"choose from {METHODS}"
            )
        if use_index not in ("auto", "on", "off"):
            raise SearchError(
                f"use_index must be auto, on or off, got {use_index!r}"
            )
        if use_semantic not in ("auto", "on", "off"):
            raise SearchError(
                f"use_semantic must be auto, on or off, got {use_semantic!r}"
            )
        if algorithm not in ALGORITHMS:
            raise SearchError(
                f"algorithm must be one of {ALGORITHMS}, got {algorithm!r}"
            )
        if directed and algorithm not in ("auto", "stark"):
            # stard/hybrid do not implement edge orientation; silently
            # ignoring it would change results.
            raise SearchError(
                f"directed matching requires algorithm auto or stark, "
                f"got {algorithm!r}"
            )
        if plan not in PLAN_MODES:
            raise SearchError(
                f"plan must be one of {PLAN_MODES}, got {plan!r}"
            )
        self.directed = directed
        self.graph = graph
        self.scorer = scorer or ScoringFunction(graph, config)
        self.use_index = use_index
        # ``auto`` only ever routes calls that carry a candidate cutoff,
        # so without one there is nothing to build; ``on`` always builds.
        wants_index = use_index == "on" or (
            use_index == "auto" and candidate_limit is not None
        )
        if wants_index and getattr(
                self.scorer, "graph_index", None) is None:
            from repro.index import attach_index

            attach_index(self.scorer, mode=use_index)
        self.use_semantic = use_semantic
        # The tier itself is lazy (the graph embeds on first engagement),
        # so attaching under ``auto``/``on`` costs nothing until a query
        # actually under-fills the token shortlist.
        if use_semantic != "off" and getattr(
                self.scorer, "semantic_tier", None) is None:
            from repro.ann import attach_semantic

            attach_semantic(self.scorer, mode=use_semantic)
        self.d = d
        self.alpha = alpha
        self.decomposition_method = decomposition_method
        self.lam = lam
        self.injective = injective
        self.candidate_limit = candidate_limit
        self.algorithm = algorithm
        self._algorithm_override: Optional[str] = None
        self.plan_mode = plan
        self.planner = planner
        if plan != "static" and self.planner is None:
            from repro.plan import QueryPlanner

            self.planner = QueryPlanner.for_engine(
                mode=plan, model_path=plan_model
            )
        if self.planner is not None and use_index == "auto" and getattr(
                self.scorer, "graph_index", None) is None:
            # The planner's per-query index routing needs an index to
            # route *to*; attach one in ``auto`` mode (inert without a
            # cutoff, so static-default behavior is unchanged).
            from repro.index import attach_index

            attach_index(self.scorer, mode="auto")
        #: The planner's decision for the last search (None under static
        #: planning) -- exposed for tests, tracing and the CLI.
        self.last_plan = None
        self.last_decomposition: Optional[Decomposition] = None
        self.last_join: Optional[StarJoin] = None
        self.last_report: Optional[SearchReport] = None
        #: Unified counter snapshot of the last search under the
        #: :class:`repro.obs.EngineStats` schema -- the *same keys* for
        #: stark, stard and rank-joined general queries (irrelevant
        #: counters stay zero).  The batch API (``repro.perf.search_many``)
        #: merges these across queries by addition.  None before the
        #: first search.
        self.last_stats: Optional[dict] = None
        #: The typed form of :attr:`last_stats` (carries ``algorithm``).
        self.last_engine_stats: Optional[obs.EngineStats] = None

    # ------------------------------------------------------------------
    def _cache_marks(self):
        cache = self.scorer.candidate_cache
        if cache is None:
            return None, 0, 0
        return cache, cache.stats.hits, cache.stats.misses

    def _finish_stats(self, stats: obs.EngineStats, cache, hits0: int,
                      misses0: int) -> None:
        """Publish one search's counters under the unified schema."""
        if cache is not None:
            stats.cache_hits = cache.stats.hits - hits0
            stats.cache_misses = cache.stats.misses - misses0
        self.last_engine_stats = stats
        self.last_stats = stats.as_dict()

    def search_star(
        self, star: StarQuery, k: int, budget: Optional[Budget] = None
    ) -> List[Match]:
        """Top-k matches of a star query (stark / stard / hybrid)."""
        matcher = star_matcher(
            self.scorer, self._algorithm_override or self.algorithm,
            d=self.d, injective=self.injective,
            candidate_limit=self.candidate_limit, directed=self.directed,
        )
        cache, hits0, misses0 = self._cache_marks()
        try:
            return matcher.search(star, k, budget=budget)
        finally:
            self.last_report = matcher.last_report
            stats = obs.EngineStats(
                algorithm=matcher.name, **matcher.stats.as_dict()
            )
            self._finish_stats(stats, cache, hits0, misses0)

    def search(
        self,
        query: Union[Query, StarQuery],
        k: int,
        decomposition: Optional[Decomposition] = None,
        budget: Optional[Budget] = None,
    ) -> List[Match]:
        """Top-k matches of *query* (any shape).

        Star-shaped queries skip decomposition entirely; general queries
        are decomposed (unless a prebuilt *decomposition* is supplied) and
        rank-joined.

        Under a non-static :attr:`plan_mode`, a
        :class:`repro.plan.QueryPlanner` first chooses performance knobs
        (star procedure, index routing, decomposition method, alpha) for
        this query; explicitly pinned constructor knobs are never
        overridden, and the guardrail falls back to the static defaults
        whenever the model is cold or its predicted gain is within
        noise.  Planned searches return the same rankings as static ones
        -- every knob the planner may touch is result-preserving.

        With a :class:`Budget` the search runs under the runtime
        contract: a strict-mode trip raises (partial
        :class:`SearchReport` attached to the exception); an anytime trip
        returns the flagged best-so-far top-k, described by
        :attr:`last_report`.

        Raises:
            SearchError: for non-positive k.
            QueryError / DecompositionError: for invalid queries.
            SearchTimeoutError / BudgetExceededError: on a strict-mode
                budget trip.
        """
        if k <= 0:
            raise SearchError(f"k must be positive, got {k}")
        planner = self.planner
        if planner is None:
            self.last_plan = None
            return self._search_impl(query, k, decomposition, budget)
        decision = planner.plan(
            self, query, k, budget=budget,
            prebuilt_decomposition=decomposition is not None,
        )
        self.last_plan = decision
        restore = self._apply_decision(decision)
        scorer = self.scorer
        index = getattr(scorer, "graph_index", None)
        node_calls0 = scorer.node_score_calls
        edge_calls0 = scorer.edge_score_calls
        scanned0 = index.postings_scanned if index is not None else 0
        try:
            results = self._search_impl(query, k, decomposition, budget)
        finally:
            for obj, attr, value in reversed(restore):
                setattr(obj, attr, value)
        planner.observe(
            decision, self.last_engine_stats,
            node_score_calls=scorer.node_score_calls - node_calls0,
            edge_score_calls=scorer.edge_score_calls - edge_calls0,
            postings_scanned=(
                index.postings_scanned - scanned0 if index is not None else 0
            ),
        )
        return results

    def _apply_decision(self, decision) -> List[tuple]:
        """Apply a plan decision's knob overrides; return restore ops."""
        restore: List[tuple] = []
        overrides = getattr(decision, "overrides", None) or {}
        for attr in ("alpha", "decomposition_method", "candidate_limit"):
            if attr in overrides:
                restore.append((self, attr, getattr(self, attr)))
                setattr(self, attr, overrides[attr])
        if "algorithm" in overrides:
            restore.append(
                (self, "_algorithm_override", self._algorithm_override)
            )
            self._algorithm_override = overrides["algorithm"]
        if "index_mode" in overrides:
            index = getattr(self.scorer, "graph_index", None)
            if index is not None:
                restore.append((index, "mode", index.mode))
                index.mode = overrides["index_mode"]
        return restore

    def _search_impl(
        self,
        query: Union[Query, StarQuery],
        k: int,
        decomposition: Optional[Decomposition] = None,
        budget: Optional[Budget] = None,
    ) -> List[Match]:
        """The static search body (planner overrides already applied)."""
        if isinstance(query, StarQuery):
            return self.search_star(query, k, budget=budget)
        query.validate()
        if decomposition is None and query.is_star():
            self.last_decomposition = None
            self.last_join = None
            return self.search_star(
                StarQuery.from_query(query), k, budget=budget
            )
        if decomposition is None:
            with obs.trace("framework.decompose",
                           method=self.decomposition_method):
                decomposition = decompose(
                    query,
                    method=self.decomposition_method,
                    scorer=self.scorer,
                    lam=self.lam,
                )
        self.last_decomposition = decomposition
        join = StarJoin(
            self.scorer, d=self.d, alpha=self.alpha,
            injective=self.injective, candidate_limit=self.candidate_limit,
            directed=self.directed,
        )
        self.last_join = join
        cache, hits0, misses0 = self._cache_marks()
        try:
            with obs.trace("starjoin.join",
                           stars=len(decomposition.stars), k=k):
                return join.join(decomposition, k, budget=budget)
        finally:
            self.last_report = join.last_report
            self._finish_stats(
                obs.EngineStats(
                    algorithm="starjoin",
                    joins_attempted=join.last_joins_attempted,
                    join_depth=sum(join.last_depths),
                ),
                cache, hits0, misses0,
            )

    # ------------------------------------------------------------------
    @property
    def total_depth(self) -> Optional[int]:
        """Search depth ``D`` of the last general-query search, if any."""
        return self.last_join.total_depth if self.last_join else None
