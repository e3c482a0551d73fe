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
from repro.core.options import SearchOptions
from repro.core.procedures import star_matcher
from repro.core.starjoin import StarJoin
from repro.errors import SearchError
from repro.graph.knowledge_graph import KnowledgeGraph
from repro.query.decomposition import Decomposition, decompose
from repro.query.model import Query, StarQuery
from repro.runtime.budget import Budget, SearchReport
from repro.similarity.scoring import ScoringConfig, ScoringFunction

__all__ = ["Star"]


def _store_index(options: SearchOptions, graph):
    """The ``mmap_store``'s index columns attached to *graph*, or None:
    no store, ``use_index`` off, or *graph* opened from that store and
    written since (overlay writes), which builds as if it had no
    store."""
    if options.mmap_store is None or options.use_index == "off":
        return None
    from repro.store.attach import StaleStoreError, attach_mmap_index

    try:
        return attach_mmap_index(options.mmap_store, graph,
                                 mode=options.use_index)
    except StaleStoreError:
        return None


class Star:
    """The STAR top-k knowledge-graph search engine.

    Args:
        graph: the data graph.
        scorer: a shared :class:`ScoringFunction`; built from *config* (or
            defaults) when omitted.
        config: scoring configuration used when *scorer* is omitted.
        options: a ready :class:`~repro.core.options.SearchOptions`.

    Keyword options: see :class:`~repro.core.options.SearchOptions`.
    The validated record is :attr:`options`.  With ``mmap_store`` the
    store's index columns are attached to the scorer instead of built
    (unless ``use_index`` is off or the scorer already holds an index);
    a graph opened from that store and written since (overlay writes)
    gets the index it would get without a store.
    """

    def __init__(
        self,
        graph: KnowledgeGraph,
        scorer: Optional[ScoringFunction] = None,
        config: Optional[ScoringConfig] = None,
        *,
        options: Optional[SearchOptions] = None,
        **knobs,
    ) -> None:
        options = self.options = SearchOptions.coerce(options, knobs)
        self.graph = graph
        self.scorer = scorer or ScoringFunction(graph, config)
        # Without a store, ``auto`` builds an index only for calls that
        # carry a candidate cutoff; ``on`` always builds one.
        if getattr(self.scorer, "graph_index", None) is None:
            mapped = _store_index(options, graph)
            if mapped is not None:
                self.scorer.graph_index = mapped
            elif options.use_index == "on" or (
                    options.use_index == "auto"
                    and options.candidate_limit is not None):
                from repro.index import attach_index

                attach_index(self.scorer, mode=options.use_index)
        # The tier itself is lazy (the graph embeds on first engagement),
        # so attaching under ``auto``/``on`` costs nothing until a query
        # actually under-fills the token shortlist.
        if options.use_semantic != "off" and getattr(
                self.scorer, "semantic_tier", None) is None:
            from repro.ann import attach_semantic

            attach_semantic(self.scorer, mode=options.use_semantic)
        self.last_decomposition: Optional[Decomposition] = None
        self.last_join: Optional[StarJoin] = None
        self.last_report: Optional[SearchReport] = None
        #: The last search's counters (carries ``algorithm``); None
        #: before the first search.
        self.last_engine_stats: Optional[obs.EngineStats] = None

    @property
    def last_stats(self) -> Optional[dict]:
        """Unified counter snapshot of the last search under the
        :class:`repro.obs.EngineStats` schema -- the *same keys* for
        stark, stard and rank-joined general queries (irrelevant
        counters stay zero).  The batch API (``repro.perf.search_many``)
        merges these across queries by addition.  None before the first
        search; built on each read, so a search that nobody asks about
        pays nothing for it."""
        stats = self.last_engine_stats
        return None if stats is None else stats.as_dict()

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

    def search_star(
        self,
        star: StarQuery,
        k: int,
        budget: Optional[Budget] = None,
    ) -> List[Match]:
        """Top-k matches of a star query (stark / stard)."""
        matcher = star_matcher(self.scorer, self.options)
        cache, hits0, misses0 = self._cache_marks()
        try:
            return matcher.search(star, k, budget=budget)
        finally:
            self.last_report = matcher.last_report
            self._finish_stats(matcher.stats, cache, hits0, misses0)

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
        if isinstance(query, StarQuery):
            return self.search_star(query, k, budget)
        query.validate()
        center = query.star_center() if decomposition is None else None
        if center is not None:
            self.last_decomposition = None
            self.last_join = None
            return self.search_star(StarQuery.around(query, center), k,
                                    budget)
        if decomposition is None:
            method = self.options.decomposition_method
            with obs.trace("framework.decompose", method=method):
                decomposition = decompose(
                    query, method=method, scorer=self.scorer,
                    lam=self.options.lam,
                )
        self.last_decomposition = decomposition
        join = self.last_join = StarJoin(self.scorer, self.options)
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
