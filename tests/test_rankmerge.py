"""Unit tests for the rank-join machinery.

:mod:`repro.core.rankmerge` backs the starjoin rank join; these tests
pin its per-stream bookkeeping and its bounded pool's tie rule.
"""

from __future__ import annotations

import pytest

from repro.core.rankmerge import MonotoneStream, ScoredPool
from repro.errors import SearchError


class FakeMatch:
    """Minimal stand-in: a stream only reads ``score`` and ``key()``."""

    __slots__ = ("score", "_key")

    def __init__(self, score: float, key) -> None:
        self.score = score
        self._key = key

    def key(self):
        return self._key


class TestMonotoneStream:
    def test_tracks_top_and_last_scores(self):
        stream = MonotoneStream(iter([FakeMatch(0.9, "a"),
                                      FakeMatch(0.5, "b")]))
        assert stream.live
        first = stream.pull()
        assert first.key() == "a"
        assert stream.top_score == 0.9 and stream.last_score == 0.9
        stream.pull()
        assert stream.top_score == 0.9 and stream.last_score == 0.5
        assert stream.pull() is None
        assert stream.exhausted and not stream.live

    def test_dropped_stream_stops_delivering(self):
        stream = MonotoneStream(iter([FakeMatch(1.0, "a")]))
        stream.dropped = True
        assert stream.pull() is None
        assert not stream.live


class TestScoredPool:
    def test_k_validated(self):
        with pytest.raises(SearchError):
            ScoredPool(0)

    def test_theta_underfull_is_minus_inf(self):
        pool = ScoredPool(2)
        pool.offer(0.5, "a")
        assert pool.theta() == float("-inf")
        pool.offer(0.3, "b")
        assert pool.theta() == 0.3

    def test_ties_keep_earlier_arrival(self):
        pool = ScoredPool(2)
        pool.offer(0.5, "first")
        pool.offer(0.5, "second")
        pool.offer(0.5, "third")  # tie with the floor: not admitted
        assert pool.ranked() == ["first", "second"]

    def test_ranked_is_decreasing(self):
        pool = ScoredPool(3)
        for score, item in ((0.1, "d"), (0.9, "a"), (0.4, "c"), (0.7, "b")):
            pool.offer(score, item)
        assert pool.ranked() == ["a", "b", "c"]

