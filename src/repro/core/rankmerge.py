"""Reusable rank-merge machinery: bounded pools + HRJN-style merging.

Two consumers share this module:

* :mod:`repro.core.starjoin` -- the paper's HRJN rank join over star
  streams (Section VI-A).  It keeps its candidate joins in a
  :class:`ScoredPool` and terminates on the classic threshold test:
  the k-th pooled score beats every live stream's upper bound
  (:func:`hrjn_bound`).
* :mod:`repro.shard` -- the sharded execution layer.  Each shard's
  ``stark``/``stard`` stream is monotone non-increasing, so the union
  of per-shard streams is a degenerate (single-input) rank join per
  stream: a shard's *bound* is simply the score of the last match it
  delivered, and the global merge may stop pulling from a shard as
  soon as the k-th global score beats that bound.  The
  :class:`RankMerger` implements that merge with canonical
  ``(-score, match.key())`` tie-breaking -- which makes the merged
  top-k invariant under the number of shards -- plus duplicate
  suppression for matches offered twice (a crashed shard's stream
  re-run inline re-offers what it already delivered).

:class:`MonotoneStream` is the shared bookkeeping for one monotone
match stream (top score, last score, exhaustion, drop flag); the join's
``_StarStream`` extends it with the fetched list ``L_i`` and its hash
index.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Iterator, List, Optional, Sequence, Tuple

from repro.core.matches import Match
from repro.errors import SearchError

__all__ = ["MonotoneStream", "RankMerger", "ScoredPool", "hrjn_bound"]


class MonotoneStream:
    """Bookkeeping for one monotone non-increasing match stream.

    Tracks the first (``top_score``) and most recent (``last_score``)
    delivered scores -- the two ingredients of every HRJN-style bound --
    plus exhaustion and the rank join's per-stream drop flag.
    """

    __slots__ = ("iterator", "top_score", "last_score", "exhausted",
                 "dropped")

    def __init__(self, iterator: Iterator[Match]) -> None:
        self.iterator = iterator
        self.top_score: Optional[float] = None
        self.last_score: Optional[float] = None
        self.exhausted = False
        self.dropped = False

    def pull(self) -> Optional[Match]:
        """Next match of the stream, or None once exhausted/dropped."""
        if self.exhausted or self.dropped:
            return None
        match = next(self.iterator, None)
        if match is None:
            self.exhausted = True
            return None
        if self.top_score is None:
            self.top_score = match.score
        self.last_score = match.score
        return match

    @property
    def live(self) -> bool:
        """True while the stream can still deliver matches."""
        return not (self.exhausted or self.dropped)


def hrjn_bound(streams: Sequence[MonotoneStream]) -> Callable[[int], float]:
    """The HRJN upper bound over *streams*, every one already primed.

    Returns ``bound(i)``: no join that uses a match stream ``i`` has yet
    to deliver can score above its last delivered score plus the other
    streams' top scores (Eq. 4 generalized to m streams).  A top score
    is fixed by the first pull, so each stream's sum over the others is
    taken once, here, in stream order.
    """
    tops = [stream.top_score for stream in streams]
    rest = [
        sum(top for j, top in enumerate(tops) if j != i)
        for i in range(len(tops))
    ]

    def bound(i: int) -> float:
        return streams[i].last_score + rest[i]

    return bound


class ScoredPool:
    """Bounded top-k pool with arrival-order tie-breaking.

    A min-heap of the best ``<= k`` offered items.  Every offer consumes
    a serial number whether or not the item is admitted, and ties at
    equal score keep the *earlier* arrival -- exactly the behavior the
    rank join's bounded pool always had, now shared.
    """

    __slots__ = ("k", "_heap", "_serial")

    def __init__(self, k: int) -> None:
        if k <= 0:
            raise SearchError(f"k must be positive, got {k}")
        self.k = k
        self._heap: List[Tuple[float, int, Any]] = []
        self._serial = 0

    def __len__(self) -> int:
        return len(self._heap)

    def admits(self, score: float) -> bool:
        """Would :meth:`offer` keep an item of this *score*?

        Lets a caller skip building an item the pool would discard; an
        offer never made leaves the arrival order of the admitted ones
        as it was.
        """
        return len(self._heap) < self.k or score > self._heap[0][0]

    def offer(self, score: float, item: Any) -> None:
        """Consider ``item`` for the pool (kept only if top-k so far)."""
        self._serial += 1
        if len(self._heap) < self.k:
            heapq.heappush(self._heap, (score, self._serial, item))
        elif score > self._heap[0][0]:
            heapq.heapreplace(self._heap, (score, self._serial, item))

    def theta(self) -> float:
        """The k-th best score so far; ``-inf`` while underfull.

        This is HRJN's termination threshold: a stream whose upper
        bound falls to or below ``theta`` cannot improve the top-k.
        """
        if len(self._heap) < self.k:
            return float("-inf")
        return self._heap[0][0]

    def ranked(self) -> List[Any]:
        """Pool contents in decreasing score order (ties: arrival order)."""
        ordered = sorted(self._heap, key=lambda t: (-t[0], t[1]))
        return [item for _score, _serial, item in ordered]


class RankMerger:
    """Merge deduplicated matches from monotone streams into a top-k.

    Unlike :class:`ScoredPool` this keeps *every* distinct offered match
    and resolves ties canonically by ``(-score, match.key())``, so the
    final ranking is a pure function of the offered match *set* -- the
    property that makes sharded results byte-identical regardless of
    shard count or stream arrival order.  The
    bounded memory argument still holds: callers stop offering from a
    stream once :meth:`wants` rejects its bound, so at most
    ``O(k + ties)`` matches per stream are ever gathered.
    """

    __slots__ = ("k", "_by_key", "_scores", "offered", "dedup_hits")

    def __init__(self, k: int) -> None:
        if k <= 0:
            raise SearchError(f"k must be positive, got {k}")
        self.k = k
        self._by_key: dict = {}
        #: Min-heap of the k best scores (for the theta threshold only;
        #: score ties never move theta, so dedup order is irrelevant).
        self._scores: List[float] = []
        self.offered = 0
        self.dedup_hits = 0

    def __len__(self) -> int:
        return len(self._by_key)

    def offer(self, match: Match) -> bool:
        """Add *match*; False (and no effect) if its key was seen before."""
        self.offered += 1
        key = match.key()
        if key in self._by_key:
            self.dedup_hits += 1
            return False
        self._by_key[key] = match
        score = match.score
        if len(self._scores) < self.k:
            heapq.heappush(self._scores, score)
        elif score > self._scores[0]:
            heapq.heapreplace(self._scores, score)
        return True

    def theta(self) -> float:
        """The k-th best distinct score so far; ``-inf`` while underfull."""
        if len(self._scores) < self.k:
            return float("-inf")
        return self._scores[0]

    def wants(self, bound: Optional[float]) -> bool:
        """Can a stream whose next score is ``<= bound`` still contribute?

        True while the pool is underfull, or while ``bound >= theta`` --
        the ``>=`` keeps pulling through score ties at the threshold, so
        every boundary tie is gathered and the canonical tie-break sees
        all contenders (shard-count invariance depends on this).
        A ``None`` bound means the stream has not delivered yet, which
        always warrants a pull.
        """
        if bound is None or len(self._scores) < self.k:
            return True
        return bound >= self._scores[0]

    def results(self) -> List[Match]:
        """Final top-k in decreasing score, ties by ascending match key."""
        ordered = sorted(
            self._by_key.items(), key=lambda kv: (-kv[1].score, kv[0])
        )
        return [match for _key, match in ordered[:self.k]]
