"""Sharded star-search execution: pivot-scoped workers + global rank merge.

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
* the parent treats each shard stream as a rank-join input
  (:class:`~repro.core.rankmerge.RankMerger`): streams are pulled in
  chunks, the k-th pooled score is the HRJN threshold, and a shard
  whose last score can no longer reach the threshold is *stopped*
  without draining (``shard.bound_terminated``).

Results are byte-identical across shard counts and backends: disjoint
pivot ownership makes shard outputs disjoint, and the merger ranks by
the canonical ``(-score, match.key())`` order, which no arrival
interleaving can perturb.

Fault tolerance: each shard's worker is a
:class:`repro.runtime.workers.ForkWorker` (private duplex pipe,
EOF/broken pipe means death).  A shard stream is stateful, so instead of
the task pool's re-queue the dead shard's stream is re-run inline in
the parent (same pivot-scoped matcher, same results -- the merger dedups
the re-offered half-delivered chunk) and the worker is respawned for the
next query.
Workers are stopped on :meth:`ShardedEngine.close` and by a
``weakref.finalize`` safety net.
"""

from __future__ import annotations

import dataclasses
import os
import weakref
from typing import Dict, List, Optional, Tuple, Union

from repro import obs
from repro.core.framework import Star
from repro.core.matches import Match
from repro.core.options import BACKENDS, SearchOptions
from repro.core.procedures import star_matcher
from repro.core.rankmerge import RankMerger
from repro.errors import SearchError
from repro.query.model import Query, StarQuery
from repro.runtime.budget import Budget, SearchReport
from repro.runtime.workers import ForkWorker, WorkerDied, fork_available
from repro.shard.partition import GraphPartition, partition_graph
from repro.similarity.scoring import ScoringConfig, ScoringFunction

__all__ = ["ShardedEngine", "BACKENDS"]


def _pull_chunk(stream, n: int) -> Tuple[List[Match], bool]:
    """Up to *n* matches off a monotone stream; empty only at the end."""
    out: List[Match] = []
    for _ in range(n):
        match = next(stream, None)
        if match is None:
            return out, True
        out.append(match)
    return out, False


def _shard_worker_main(conn, graph, config, index, tier, partition,
                       options: SearchOptions, shard_id: int) -> None:
    """One shard's :class:`ForkWorker` target: serve its match stream.

    Everything arrives by fork inheritance, *index* and *tier* included:
    whatever the parent's scorer held at spawn (a tier still unbuilt is
    built in the worker, on first need).
    """
    scorer = ScoringFunction(graph, config)
    scorer.graph_index = index
    scorer.semantic_tier = tier
    matcher = star_matcher(scorer, options, partition.owned[shard_id])
    stream = None
    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):
            break
        if msg is None:
            break
        kind = msg[0]
        if kind == "search":
            star, chunk = msg[1], msg[2]
            stream = matcher.stream(star)
            conn.send(_pull_chunk(stream, chunk))
        elif kind == "more":
            if stream is None:
                conn.send(([], True))
            else:
                conn.send(_pull_chunk(stream, msg[1]))
        elif kind == "stop":
            stream = None
        elif kind == "crash":
            # Test hook: die without cleanup, exactly like a segfault
            # would look from the parent's side of the pipe.
            os._exit(msg[1])


class _ShardStream:
    """Parent-side view of one shard's monotone match stream."""

    __slots__ = ("shard_id", "buffer", "last_score", "exhausted",
                 "stopped", "requested")

    def __init__(self, shard_id: int) -> None:
        self.shard_id = shard_id
        self.buffer: List[Match] = []
        self.last_score: Optional[float] = None
        self.exhausted = False
        self.stopped = False
        self.requested = False

    @property
    def live(self) -> bool:
        return not (self.exhausted or self.stopped)

    def accept(self, matches: List[Match], exhausted: bool) -> None:
        self.requested = False
        self.buffer.extend(matches)
        if matches:
            self.last_score = matches[-1].score
        if exhausted:
            self.exhausted = True


class _ForkTransport:
    def __init__(self, workers: List[ForkWorker]) -> None:
        self.workers = workers

    def request(self, state: _ShardStream, msg) -> None:
        self.workers[state.shard_id].send(msg)
        state.requested = True

    def collect(self, state: _ShardStream) -> None:
        matches, exhausted = self.workers[state.shard_id].recv()
        state.accept(matches, exhausted)

    def stop(self, state: _ShardStream) -> None:
        self.workers[state.shard_id].send(("stop",))


class _SerialTransport:
    """In-process transport: same chunked protocol, no processes.

    Used as the ``serial`` backend, as the per-shard inline fallback
    after a worker crash, and by differential tests that need sharded
    semantics without fork overhead.
    """

    def __init__(self, engine: "ShardedEngine") -> None:
        self.engine = engine
        self._streams: Dict[int, object] = {}

    def request(self, state: _ShardStream, msg) -> None:
        if msg[0] == "search":
            star, chunk = msg[1], msg[2]
            matcher = self.engine._local_matcher(state.shard_id)
            self._streams[state.shard_id] = stream = matcher.stream(star)
            state.accept(*_pull_chunk(stream, chunk))
        else:  # ("more", chunk)
            stream = self._streams[state.shard_id]
            state.accept(*_pull_chunk(stream, msg[1]))
        state.requested = False

    def collect(self, state: _ShardStream) -> None:
        pass  # request() already delivered synchronously

    def stop(self, state: _ShardStream) -> None:
        self._streams.pop(state.shard_id, None)


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
        backend: the keyword spelling of the ``shard_backend`` option --
            ``auto`` (fork where available, else serial), ``fork``
            (serial fallback where fork is missing) or ``serial``.
        chunk_size: matches pulled per shard round trip; defaults to
            each search's ``k`` (the global top-k is contained in the
            union of per-shard top-k, so one round usually suffices).
        scorer, config, options: as for :class:`Star`.

    Keyword options: see :class:`~repro.core.options.SearchOptions`
    (``shards`` defaults to 2 here); shard matchers and the fallback
    :class:`Star` are built from the same record.
    """

    def __init__(
        self,
        graph,
        scorer: Optional[ScoringFunction] = None,
        config: Optional[ScoringConfig] = None,
        *,
        backend: Optional[str] = None,
        chunk_size: Optional[int] = None,
        options: Optional[SearchOptions] = None,
        **knobs,
    ) -> None:
        if backend is not None:
            knobs["shard_backend"] = backend
        options = SearchOptions.coerce(options, knobs)
        if options.shards is None:
            options = dataclasses.replace(options, shards=2)
        if chunk_size is not None and chunk_size < 1:
            raise SearchError(f"chunk_size must be >= 1, got {chunk_size}")
        self.options = options
        self.engine = Star(graph, scorer=scorer, config=config,
                           options=options)
        self.graph = graph
        self.scorer = self.engine.scorer
        self.num_shards = options.shards
        self.chunk_size = chunk_size
        self.backend = (
            "fork" if options.shard_backend in ("auto", "fork")
            and fork_available() else "serial"
        )
        self.last_report: Optional[SearchReport] = None
        self.last_stats: Optional[dict] = None
        self.last_engine_stats = None
        #: Per-search sharding telemetry (mirrors the ``shard.*``
        #: counters); ``None`` until the first sharded search.
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
        if star is None or budget is not None:
            obs.count("shard.fallback_queries")
            try:
                return self.engine.search(query, k, budget=budget)
            finally:
                self.last_report = self.engine.last_report
                self.last_stats = self.engine.last_stats
                self.last_engine_stats = self.engine.last_engine_stats
        if self._partition.graph_version != self.graph.version:
            self.refresh()
        return self._search_star(star, k)

    # ------------------------------------------------------------------
    def _search_star(self, star: StarQuery, k: int) -> List[Match]:
        chunk = self.chunk_size or k
        transport = (
            _ForkTransport(self._workers) if self.backend == "fork"
            else _SerialTransport(self)
        )
        states = [_ShardStream(i) for i in range(self.num_shards)]
        merger = RankMerger(k)
        stats = {
            "shards": self.num_shards,
            "streams_opened": self.num_shards,
            "matches_pulled": [0] * self.num_shards,
            "chunks": 0,
            "bound_terminated": 0,
            "dedup_hits": 0,
            "worker_crashes": 0,
            "inline_fallbacks": 0,
        }
        obs.count("shard.searches")
        obs.count("shard.streams_opened", self.num_shards)
        # Re-published per search: tracers are usually enabled after the
        # engine was built, and gauges merge by max across snapshots.
        obs.set_gauge("shard.count", self.num_shards)
        obs.set_gauge("shard.replication_factor",
                      self._partition.replication_factor)

        with obs.trace("shard.search", shards=self.num_shards, k=k):
            # Open every stream first (fork workers start concurrently),
            # then collect -- the send/collect split is the parallelism.
            for state in states:
                self._request(transport, state, ("search", star, chunk),
                              star, chunk, stats)
            while True:
                for state in states:
                    if state.requested:
                        self._collect(transport, state, star, chunk, stats)
                for state in states:
                    for match in state.buffer:
                        stats["matches_pulled"][state.shard_id] += 1
                        if not merger.offer(match):
                            stats["dedup_hits"] += 1
                    state.buffer.clear()
                # HRJN bound per shard: the stream is monotone, so its
                # last delivered score bounds everything still unseen.
                for state in states:
                    if state.live and not merger.wants(state.last_score):
                        state.stopped = True
                        stats["bound_terminated"] += 1
                        try:
                            transport.stop(state)
                        except WorkerDied:
                            # Dying after being told to stop loses
                            # nothing; respawn for the next query.
                            self._note_crash(state, stats)
                live = [s for s in states if s.live]
                if not live:
                    break
                for state in live:
                    self._request(transport, state, ("more", chunk),
                                  star, chunk, stats)

        results = merger.results()
        obs.count_many({
            "shard.matches_pulled": sum(stats["matches_pulled"]),
            "shard.chunks": stats["chunks"],
            "shard.bound_terminated": stats["bound_terminated"],
            "shard.dedup_hits": stats["dedup_hits"],
        })
        stats["merged"] = len(results)
        self.last_shard_stats = stats
        self.last_report = SearchReport.from_budget("shard", None,
                                                    len(results))
        self.last_stats = None
        self.last_engine_stats = None
        return results

    def _request(self, transport, state: _ShardStream, msg,
                 star: StarQuery, chunk: int, stats) -> None:
        stats["chunks"] += 1
        try:
            transport.request(state, msg)
        except WorkerDied:
            self._note_crash(state, stats)
            self._restart_inline(state, star, chunk, stats)

    def _collect(self, transport, state: _ShardStream, star: StarQuery,
                 chunk: int, stats) -> None:
        try:
            transport.collect(state)
        except WorkerDied:
            self._note_crash(state, stats)
            self._restart_inline(state, star, chunk, stats)

    def _restart_inline(self, state: _ShardStream, star: StarQuery,
                        chunk: int, stats) -> None:
        # The chunks already merged from this shard stay valid (the
        # merger dedups re-offered matches); restart its stream from
        # the top, inline, to recover the remainder exactly.
        state.buffer.clear()
        state.last_score = None
        state.exhausted = False
        self._run_inline(state, ("search", star, chunk), stats)

    def _note_crash(self, state: _ShardStream, stats) -> None:
        stats["worker_crashes"] += 1
        obs.count("shard.worker_crashes")
        if self._workers:
            self._workers[state.shard_id].respawn()

    def _run_inline(self, state: _ShardStream, msg, stats) -> None:
        """Serve one shard's request in-process after its worker died."""
        stats["inline_fallbacks"] += 1
        obs.count("shard.inline_fallbacks")
        inline = _SerialTransport(self)
        inline.request(state, msg)
        stream = inline._streams.get(state.shard_id)
        while not state.exhausted:
            state.accept(*_pull_chunk(stream, 1 << 12))

    # ------------------------------------------------------------------
    @property
    def partition(self) -> GraphPartition:
        return self._partition

    def __enter__(self) -> "ShardedEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
