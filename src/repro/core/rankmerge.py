"""Rank-join machinery for starjoin: bounded pool + HRJN bound.

:mod:`repro.core.starjoin` -- the paper's HRJN rank join over star
streams (Section VI-A) -- is the one consumer.  It keeps its candidate
joins in a :class:`ScoredPool` and terminates on the classic threshold
test: the k-th pooled score beats every live stream's upper bound
(:func:`hrjn_bound`).

:class:`MonotoneStream` is the bookkeeping for one monotone match
stream (top score, last score, exhaustion, drop flag); the join's
``_StarStream`` extends it with the fetched list ``L_i`` and its hash
index.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Iterator, List, Optional, Sequence, Tuple

from repro.core.matches import Match
from repro.errors import SearchError

__all__ = ["MonotoneStream", "ScoredPool", "hrjn_bound"]


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

