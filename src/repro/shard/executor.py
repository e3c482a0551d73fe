"""Sharded star-search execution: pivot-scoped workers, two-round merge.

``ShardedEngine`` splits a star query across the shards of a
:class:`~repro.shard.partition.GraphPartition` and merges the per-shard
monotone match streams back into one exact global top-k:

* every worker holds the **full** graph plus whatever
  :class:`~repro.index.GraphIndex` (in-memory or mmap-attached) and
  semantic tier the parent's scorer holds, by fork inheritance
  (copy-on-write), so
  scores -- IDF, degree normalizers, all corpus statistics -- are
  computed globally and match single-process execution bit for bit;
* a worker's matcher is *pivot-scoped*: its pivot candidates are the
  shard's owned nodes, while leaves and propagation read the whole graph
  (exactness argument in :mod:`repro.shard.partition`), so per-shard
  pivot work shrinks roughly linearly in the shard count;
* the parent merges in two rounds, the threshold shape of TPUT (Cao &
  Wang, PODC 2004).  Round 1 asks every shard for its top k; theta is
  the k-th best score of their union.  Lemma 1 holds per pivot, so each
  shard's stream is exact for its own pivots, and a shard whose k-th
  score beats theta has nothing left that could enter the answer.
  Round 2 asks only the shards whose k-th score *ties* theta, and that
  did not run dry, for every further match scoring ``>= theta``.

Results are byte-identical across shard counts and backends: disjoint
pivot ownership makes shard outputs disjoint, and the union is ranked
by the canonical ``(-score, match.key())`` order, which no arrival
interleaving can perturb.

Fault tolerance: each shard's worker is a
:class:`repro.runtime.workers.ForkWorker` (private duplex pipe,
EOF/broken pipe means death).  A shard dying in either round is
respawned for the next query, and its whole answer is recomputed in
the parent (same pivot-scoped matcher, same messages) and replaces
whatever it delivered before.
Workers are stopped on :meth:`ShardedEngine.close` and by a
``weakref.finalize`` safety net.
"""

from __future__ import annotations

import itertools
import os
import weakref
from typing import Dict, List, Optional, Tuple, Union

from repro import obs
from repro.core.framework import Star
from repro.core.matches import Match
from repro.core.options import SearchOptions
from repro.core.procedures import star_matcher
from repro.errors import SearchError
from repro.query.model import Query, StarQuery
from repro.runtime.budget import Budget, SearchReport
from repro.runtime.workers import ForkWorker, WorkerDied, fork_available
from repro.shard.partition import GraphPartition, partition_graph
from repro.similarity.scoring import ScoringConfig, ScoringFunction

__all__ = ["ShardedEngine", "BACKENDS"]

#: Shard transports.
BACKENDS = ("auto", "fork", "serial")


def _rank(match: Match):
    """The canonical order: score descending, ties by match key."""
    return -match.score, match.key()


class _Shard:
    """One shard's side of the two-round merge, over its pivot-scoped
    matcher.

    ``("top", star, k)`` opens the shard's stream and answers its first
    *k* matches; ``("ties", theta)`` answers every further match scoring
    ``>= theta``.  Either answer is ``(matches, dry)``, *dry* telling
    whether the stream ran out.  The fork child's loop calls
    :meth:`handle`; in process (the ``serial`` backend, crash recovery)
    :meth:`send`/:meth:`recv` stand in for the :class:`ForkWorker` pipe.
    """

    __slots__ = ("matcher", "_stream", "_reply")

    def __init__(self, matcher) -> None:
        self.matcher = matcher
        self._stream = None
        self._reply = None

    def handle(self, msg) -> Tuple[List[Match], bool]:
        if msg[0] == "top":
            _kind, star, k = msg
            self._stream = self.matcher.stream(star)
            top = list(itertools.islice(self._stream, k))
            return top, len(top) < k
        theta = msg[1]
        ties: List[Match] = []
        for match in self._stream:
            if match.score < theta:
                return ties, False
            ties.append(match)
        return ties, True

    def send(self, msg) -> None:
        self._reply = self.handle(msg)

    def recv(self) -> Tuple[List[Match], bool]:
        return self._reply


def _shard_worker_main(conn, graph, config, index, tier, partition,
                       options: SearchOptions, shard_id: int) -> None:
    """One shard's :class:`ForkWorker` target: answer its merge rounds.

    Everything arrives by fork inheritance, *index* and *tier* included:
    whatever the parent's scorer held at spawn (a tier still unbuilt is
    built in the worker, on first need).
    """
    scorer = ScoringFunction(graph, config)
    scorer.graph_index = index
    scorer.semantic_tier = tier
    shard = _Shard(star_matcher(scorer, options, partition.owned[shard_id]))
    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):
            break
        if msg is None:
            break
        if msg[0] == "crash":
            # Test hook: die without cleanup, exactly like a segfault
            # would look from the parent's side of the pipe.
            os._exit(msg[1])
        conn.send(shard.handle(msg))


def _stop_workers(workers: List[ForkWorker]) -> None:
    for worker in workers:
        worker.stop()
    workers.clear()


class ShardedEngine:
    """Drop-in :class:`~repro.core.framework.Star` variant that executes
    star queries across graph shards.

    Star-shaped, unbudgeted queries run sharded; anything else (general
    shapes need the rank join over decompositions, budgets need unified
    accounting) transparently falls back to an internal single-process
    :class:`Star` sharing the same scorer, so results and reports stay
    consistent either way.

    Args:
        shards: the shard count.
        backend: the shard transport -- ``auto`` (fork where available,
            else serial), ``fork`` (serial fallback where fork is
            missing) or ``serial``.
        scorer, config, options: as for :class:`Star`.

    Keyword options: see :class:`~repro.core.options.SearchOptions`;
    shard matchers and the fallback :class:`Star` are built from the
    same record.

    Raises:
        SearchError: for ``shards < 1``, an unknown *backend* or an
            invalid option.
    """

    def __init__(
        self,
        graph,
        scorer: Optional[ScoringFunction] = None,
        config: Optional[ScoringConfig] = None,
        *,
        shards: int = 2,
        backend: str = "auto",
        options: Optional[SearchOptions] = None,
        **knobs,
    ) -> None:
        if shards < 1:
            raise SearchError(f"shards must be >= 1, got {shards}")
        if backend not in BACKENDS:
            raise SearchError(
                f"unknown shard backend {backend!r}; "
                f"expected one of {BACKENDS}")
        self.options = SearchOptions.coerce(options, knobs)
        self.engine = Star(graph, scorer=scorer, config=config,
                           options=self.options)
        self.graph = graph
        self.scorer = self.engine.scorer
        self.num_shards = shards
        self.backend = ("fork" if backend != "serial" and fork_available()
                        else "serial")
        self.last_report: Optional[SearchReport] = None
        self.last_stats: Optional[dict] = None
        self.last_engine_stats = None
        #: Per-search sharding telemetry (mirrors the ``shard.*``
        #: counters); ``None`` before the first sharded search and after
        #: a search that fell back to the single-process engine.
        self.last_shard_stats: Optional[dict] = None
        self._local_matchers: Dict[int, object] = {}
        self._closed = False

        self._partition: Optional[GraphPartition] = None
        #: One fork worker per shard (empty on the serial backend); the
        #: list object outlives every generation, so the safety net below
        #: always sees the current one.
        self._workers: List[ForkWorker] = []
        weakref.finalize(self, _stop_workers, self._workers)
        self._rebuild()

    # ------------------------------------------------------------------
    def _rebuild(self) -> None:
        """(Re)partition and (re)start workers for the current graph
        version; the previous generation is torn down first."""
        _stop_workers(self._workers)
        self._partition = partition_graph(self.graph, self.num_shards)
        self._local_matchers = {}
        if self.backend == "fork":
            index = self.scorer.graph_index
            if index is not None:
                # Workers inherit the index as it is at the fork: sync it
                # (and its IDF column) once here, not once per child.
                index.refresh()
                if index.vocab.idf_stale:
                    index.vocab.refresh_idf(self.scorer.corpus)
            self._workers.extend(
                ForkWorker(
                    _shard_worker_main,
                    (self.graph, self.scorer.config, index,
                     self.scorer.semantic_tier, self._partition,
                     self.options, shard_id),
                    name=f"repro-shard-{shard_id}",
                )
                for shard_id in range(self.num_shards)
            )
        obs.set_gauge("shard.count", self.num_shards)
        obs.set_gauge("shard.replication_factor",
                      self._partition.replication_factor)

    def close(self) -> None:
        """Stop the shard workers (idempotent)."""
        self._closed = True
        _stop_workers(self._workers)

    def refresh(self) -> None:
        """Resynchronize with a mutated graph: refresh the shared scorer,
        re-partition and restart the worker generation."""
        self.scorer.refresh()
        index = self.scorer.graph_index
        if index is not None:
            index.refresh()
        self._rebuild()

    # ------------------------------------------------------------------
    def _local_matcher(self, shard_id: int):
        matcher = self._local_matchers.get(shard_id)
        if matcher is None:
            matcher = star_matcher(self.scorer, self.options,
                                   self._partition.owned[shard_id])
            self._local_matchers[shard_id] = matcher
        return matcher

    # ------------------------------------------------------------------
    def search(
        self,
        query: Union[Query, StarQuery],
        k: int,
        budget: Optional[Budget] = None,
    ) -> List[Match]:
        """Top-k matches of *query*; star shapes run sharded.

        Raises:
            SearchError: for non-positive k or a closed engine.
        """
        if self._closed:
            raise SearchError("ShardedEngine is closed")
        if k <= 0:
            raise SearchError(f"k must be positive, got {k}")
        star: Optional[StarQuery] = None
        if isinstance(query, StarQuery):
            star = query
        else:
            query.validate()
            if query.is_star():
                star = StarQuery.from_query(query)
        if self._partition.graph_version != self.graph.version:
            self.refresh()
        if star is None or budget is not None:
            obs.count("shard.fallback_queries")
            self.last_shard_stats = None
            try:
                return self.engine.search(query, k, budget=budget)
            finally:
                self.last_report = self.engine.last_report
                self.last_stats = self.engine.last_stats
                self.last_engine_stats = self.engine.last_engine_stats
        return self._search_star(star, k)

    # ------------------------------------------------------------------
    def _search_star(self, star: StarQuery, k: int) -> List[Match]:
        n = self.num_shards
        # Each shard's answer so far, and whether its stream ran dry.
        got: List[List[Match]] = [[] for _ in range(n)]
        dry = [False] * n
        stats = {
            "shards": n,
            "streams_opened": n,
            "chunks": 0,
            "worker_crashes": 0,
            "inline_fallbacks": 0,
        }
        obs.count("shard.searches")
        obs.count("shard.streams_opened", n)
        # Re-published per search: tracers are usually enabled after the
        # engine was built, and gauges merge by max across snapshots.
        obs.set_gauge("shard.count", n)
        obs.set_gauge("shard.replication_factor",
                      self._partition.replication_factor)

        with obs.trace("shard.search", shards=n, k=k):
            endpoints = self._workers or [
                _Shard(self._local_matcher(i)) for i in range(n)]
            top = ("top", star, k)
            self._round(endpoints, range(n), [top], got, dry, stats)
            merged = sorted(itertools.chain.from_iterable(got), key=_rank)
            if len(merged) >= k:
                # A shard whose k-th score beats theta has nothing left
                # at theta or above; one whose k-th score ties it may.
                theta = merged[k - 1].score
                tied = [i for i in range(n)
                        if not dry[i] and got[i][-1].score == theta]
                if tied:
                    self._round(endpoints, tied, [top, ("ties", theta)],
                                got, dry, stats)
                    merged = sorted(itertools.chain.from_iterable(got),
                                    key=_rank)

        results = merged[:k]
        stats["matches_pulled"] = [len(answer) for answer in got]
        stats["bound_terminated"] = dry.count(False)
        stats["merged"] = len(results)
        obs.count_many({
            "shard.matches_pulled": sum(stats["matches_pulled"]),
            "shard.chunks": stats["chunks"],
            "shard.bound_terminated": stats["bound_terminated"],
        })
        self.last_shard_stats = stats
        self.last_report = SearchReport.from_budget("shard", None,
                                                    len(results))
        self.last_stats = None
        self.last_engine_stats = None
        return results

    def _round(self, endpoints, shard_ids, msgs, got, dry, stats) -> None:
        """Send ``msgs[-1]`` to every shard in *shard_ids*, then extend
        each one's answer with its reply.

        All sends go out before the first receive: that split is the
        parallelism.  A shard whose worker died is answered in process
        instead, replaying *msgs* from the top, and that answer replaces
        everything the shard delivered before -- disjoint pivot
        ownership needs no dedup.
        """
        msg = msgs[-1]
        dead = set()
        for i in shard_ids:
            stats["chunks"] += 1
            try:
                endpoints[i].send(msg)
            except WorkerDied:
                dead.add(i)
        for i in shard_ids:
            if i not in dead:
                try:
                    matches, dry[i] = endpoints[i].recv()
                    got[i].extend(matches)
                    continue
                except WorkerDied:
                    pass
            stats["worker_crashes"] += 1
            stats["inline_fallbacks"] += 1
            obs.count_many({"shard.worker_crashes": 1,
                            "shard.inline_fallbacks": 1})
            self._workers[i].respawn()
            shard = _Shard(self._local_matcher(i))
            got[i] = []
            for replay in msgs:
                matches, dry[i] = shard.handle(replay)
                got[i].extend(matches)

    # ------------------------------------------------------------------
    @property
    def partition(self) -> GraphPartition:
        return self._partition

    def __enter__(self) -> "ShardedEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
