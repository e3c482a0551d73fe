"""Match objects: the results every matcher returns.

A :class:`Match` carries the matching function ``phi`` (query node id ->
data node id), the per-element score breakdown, and the aggregate score.
Star matchers produce star matches; ``starjoin`` merges them into complete
matches of the original query.  All matchers (STAR, graphTA, BP, the
brute-force oracle) return the same type, so tests compare them directly.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple


class Match:
    """One match of a (sub)query in the data graph.

    Attributes:
        score: aggregate score -- for star matches under the alpha-scheme
            this is the *weighted* score ``F'``; for standalone searches
            weights are 1.0 and it equals Eq. 2's ``F``.
        assignment: query node id -> data node id.
        node_scores: query node id -> unweighted ``F_N`` contribution.
        edge_scores: query edge id -> ``F_E`` contribution.
        edge_hops: query edge id -> matched path length (1 = direct edge).
    """

    __slots__ = ("score", "assignment", "node_scores", "edge_scores", "edge_hops")

    def __init__(
        self,
        score: float,
        assignment: Dict[int, int],
        node_scores: Dict[int, float],
        edge_scores: Dict[int, float],
        edge_hops: Dict[int, int],
    ) -> None:
        self.score = score
        self.assignment = assignment
        self.node_scores = node_scores
        self.edge_scores = edge_scores
        self.edge_hops = edge_hops

    def is_injective(self) -> bool:
        """True if distinct query nodes map to distinct data nodes."""
        assignment = self.assignment
        return len(set(assignment.values())) == len(assignment)

    def key(self) -> Tuple[Tuple[int, int], ...]:
        """Canonical hashable identity of the matching function."""
        return tuple(sorted(self.assignment.items()))

    def consistent_with(self, other: "Match", injective: bool = False) -> bool:
        """Can *other* be joined onto this match?

        True when the two agree on every shared query node and -- with
        *injective* -- the union still maps distinct query nodes to
        distinct data nodes.  Decides exactly what ``merge`` followed by
        ``is_injective`` would, without building the merged match.
        """
        mine = self.assignment
        theirs = other.assignment
        shared = 0
        for qid, data_node in theirs.items():
            existing = mine.get(qid)
            if existing is not None:
                if existing != data_node:
                    return False
                shared += 1
        if not injective:
            return True
        values = set(mine.values())
        values.update(theirs.values())
        return len(values) == len(mine) + len(theirs) - shared

    def merge(self, other: "Match") -> Optional["Match"]:
        """Join two star matches into one (starjoin's combine step).

        Returns None if the matches disagree on a shared query node.
        """
        if not self.consistent_with(other):
            return None
        return self.merge_checked(other)

    def merge_checked(self, other: "Match") -> "Match":
        """:meth:`merge` for a pair already known :meth:`consistent_with`.

        Scores add up; under the alpha-scheme the shared-node weights sum
        to 1 across stars, so the sum is the complete match's ``F``.
        Unweighted per-element breakdowns are merged (shared elements keep
        one copy; they are equal by construction).
        """
        assignment = dict(self.assignment)
        assignment.update(other.assignment)
        node_scores = dict(self.node_scores)
        node_scores.update(other.node_scores)
        edge_scores = dict(self.edge_scores)
        edge_scores.update(other.edge_scores)
        edge_hops = dict(self.edge_hops)
        edge_hops.update(other.edge_hops)
        return Match(
            self.score + other.score,
            assignment,
            node_scores,
            edge_scores,
            edge_hops,
        )

    def __repr__(self) -> str:
        pairs = ", ".join(f"{q}->{v}" for q, v in sorted(self.assignment.items()))
        return f"<Match {self.score:.3f} {{{pairs}}}>"


def scores_of(matches: Iterable[Match]) -> List[float]:
    """Score list of *matches* (test helper: compare score multisets)."""
    return [m.score for m in matches]


def is_monotone_non_increasing(matches: Iterable[Match], tol: float = 1e-9) -> bool:
    """True if match scores never increase along the sequence."""
    prev: Optional[float] = None
    for match in matches:
        if prev is not None and match.score > prev + tol:
            return False
        prev = match.score
    return True


def distinct_by(matches: Iterable[Match], query_node: int) -> Iterable[Match]:
    """Keep only the first (best) match per assignment of *query_node*.

    Star-query top-k lists are often dominated by one strong pivot with
    many leaf variations; filtering a monotone stream through
    ``distinct_by(stream, star.pivot.id)`` yields "top-k distinct
    pivots" -- each surviving match is exactly that entity's best match.

    >>> from repro.core.matches import Match
    >>> ms = [Match(3.0, {0: 7, 1: 1}, {}, {}, {}),
    ...       Match(2.5, {0: 7, 1: 2}, {}, {}, {}),
    ...       Match(2.0, {0: 8, 1: 1}, {}, {}, {})]
    >>> [m.score for m in distinct_by(ms, 0)]
    [3.0, 2.0]
    """
    seen = set()
    for match in matches:
        value = match.assignment.get(query_node)
        if value in seen:
            continue
        seen.add(value)
        yield match
