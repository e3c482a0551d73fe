"""Reference rank join the hash join in ``repro.core.starjoin`` is checked
against.

This is the nested-loop join ``starjoin`` ran before it indexed its
fetched lists: every newly fetched star match is merged against *every*
earlier match of every other star, ``merge`` discovers a joint-node
mismatch afterwards, and the two HRJN bounds are summed inline.  Kept
deliberately plain; ``tests/test_starjoin_hash.py`` requires the engine
to return the same ranked (score, assignment) lists and the same
per-star depths, with no more join attempts.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

from repro.core.matches import Match
from repro.core.rankmerge import MonotoneStream, ScoredPool
from repro.core.starjoin import StarJoin, alpha_weights
from repro.query.decomposition import Decomposition


def reference_is_injective(match: Match) -> bool:
    values = list(match.assignment.values())
    return len(values) == len(set(values))


def reference_merge(a: Match, b: Match) -> Optional[Match]:
    """``Match.merge`` as the nested loop used it: build, then find out."""
    merged_assignment = dict(a.assignment)
    for qid, data_node in b.assignment.items():
        existing = merged_assignment.get(qid)
        if existing is not None and existing != data_node:
            return None
        merged_assignment[qid] = data_node
    node_scores = dict(a.node_scores)
    node_scores.update(b.node_scores)
    edge_scores = dict(a.edge_scores)
    edge_scores.update(b.edge_scores)
    edge_hops = dict(a.edge_hops)
    edge_hops.update(b.edge_hops)
    return Match(
        a.score + b.score,
        merged_assignment,
        node_scores,
        edge_scores,
        edge_hops,
    )


class _ReferenceStream(MonotoneStream):
    __slots__ = ("fetched",)

    def __init__(self, iterator) -> None:
        super().__init__(iterator)
        self.fetched: List[Tuple[int, Match]] = []

    def fetch(self, seq: int) -> Optional[Match]:
        match = self.pull()
        if match is not None:
            self.fetched.append((seq, match))
        return match


class ReferenceJoin:
    """Nested-loop rank join over the engine's own star streams.

    Streams come from :meth:`StarJoin._streams`, the engine's one stream
    source (plans cut to each other at ``d == 1``), so both joins
    consume identical monotone inputs; everything downstream of the
    streams is the reference's own.
    """

    def __init__(self, scorer, d: int = 1, alpha: float = 0.5,
                 injective: bool = True, **knobs) -> None:
        self.engine = StarJoin(scorer, d=d, alpha=alpha, injective=injective,
                               **knobs)
        self.alpha = alpha
        self.injective = injective
        self.last_depths: List[int] = []
        self.last_joins_attempted = 0
        #: every complete combination in the order it was offered
        self.offered: List[Match] = []

    def join(self, decomposition: Decomposition, k: int) -> List[Match]:
        stars = decomposition.stars
        assert len(stars) > 1, "the reference covers the multi-star path"
        weights = alpha_weights(decomposition, self.alpha)
        self.last_joins_attempted = 0
        self.offered = []
        sources = self.engine._streams(decomposition, weights)
        if sources is None:  # a star with no match: nothing is fetched
            self.last_depths = [0] * len(stars)
            return []
        streams = [_ReferenceStream(source) for source in sources]
        pool = ScoredPool(k)
        seq = 0

        def offer(match: Match) -> None:
            self.offered.append(match)
            pool.offer(match.score, match)

        theta = pool.theta

        for idx, stream in enumerate(streams):
            if stream.fetch(seq) is None:
                self.last_depths = [len(s.fetched) for s in streams]
                return []
            self._join_new(streams, idx, seq, offer)
            seq += 1

        progressed = True
        while progressed:
            progressed = False
            for idx, stream in enumerate(streams):
                match = stream.fetch(seq)
                if match is None:
                    continue
                seq += 1
                progressed = True
                self._join_new(streams, idx, seq - 1, offer)
                bound = match.score + sum(
                    s.top_score
                    for j, s in enumerate(streams) if j != idx
                )
                if bound < theta():
                    stream.dropped = True
            if len(pool) >= k:
                bounds = [
                    s.last_score + sum(
                        o.top_score
                        for j, o in enumerate(streams) if j != i
                    )
                    for i, s in enumerate(streams)
                    if not (s.dropped or s.exhausted)
                ]
                if not bounds or max(bounds) <= theta():
                    break

        self.last_depths = [len(s.fetched) for s in streams]
        return pool.ranked()

    def _join_new(self, streams, new_idx: int, new_seq: int,
                  offer: Callable[[Match], None]) -> None:
        new_match = streams[new_idx].fetched[-1][1]
        others = [i for i in range(len(streams)) if i != new_idx]

        def recurse(pos: int, partial: Match) -> None:
            if pos == len(others):
                offer(partial)
                return
            for cand_seq, candidate in streams[others[pos]].fetched:
                if cand_seq > new_seq:
                    break  # fetched lists are in sequence order
                self.last_joins_attempted += 1
                merged = reference_merge(partial, candidate)
                if merged is None:
                    continue
                if self.injective and not reference_is_injective(merged):
                    continue
                recurse(pos + 1, merged)

        recurse(0, new_match)
