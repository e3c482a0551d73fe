"""Cursor-lattice enumeration of per-pivot matches in score order.

Section V-A, step (2): for a pivot node ``v`` with sorted leaf candidate
lists ``L_1 .. L_s``, matches pivoted at ``v`` form a lattice of cursor
tuples ``(l_1, .., l_s)`` whose aggregate score is monotone non-increasing
along every lattice edge.  ``stark`` pops the best cursor from a priority
queue and pushes its ``s`` successors -- exactly the scheme analyzed in
the paper (cost ``s log k`` per pop).

Injective matching is enforced here: a popped cursor whose leaf
assignments collide (or touch the pivot -- excluded at list-construction
time) is *skipped but still expanded*, which preserves completeness
because scores only decrease along the lattice.
"""

from __future__ import annotations

import heapq
from operator import itemgetter
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.core.matches import Match


class LeafEntry:
    """One leaf candidate: a data node with its score breakdown."""

    __slots__ = ("combined", "node", "node_score", "edge_score", "hops")

    def __init__(
        self, combined: float, node: int, node_score: float,
        edge_score: float, hops: int,
    ) -> None:
        self.combined = combined
        self.node = node
        self.node_score = node_score
        self.edge_score = edge_score
        self.hops = hops


_raw_score = itemgetter(0)
_raw_node = itemgetter(1)


def make_leaf_list(
    entries: Sequence[Tuple[float, int, float, float, int]],
    keep: Optional[int] = None,
) -> List[LeafEntry]:
    """Build a sorted leaf list from raw ``(combined, node, node_score,
    edge_score, hops)`` tuples (decreasing combined score, ties by node).

    *keep* bounds the list to its first *keep* entries in that order (a
    prefix of the full list), selected before any entry object is made.
    """
    if keep is not None and len(entries) > keep:
        # Only the keep-th best score and what beats or ties it is ranked.
        cut = sorted(map(_raw_score, entries), reverse=True)[keep - 1]
        entries = [raw for raw in entries if raw[0] >= cut]
    # Two stable passes: by node, then by score with equal scores left
    # in node order.
    ranked = sorted(sorted(entries, key=_raw_node),
                    key=_raw_score, reverse=True)
    return [LeafEntry(*raw) for raw in ranked[:keep]]


class PivotMatchGenerator:
    """Generates matches pivoted at one data node in non-increasing order.

    Args:
        pivot_qid: pivot query-node id.
        pivot_node: the data node matched to the pivot.
        pivot_score: (weighted) ``F_N`` of the pivot match.
        pivot_raw_score: unweighted pivot ``F_N`` (for breakdowns).
        leaf_positions: ``[(leaf_qid, edge_qid), ...]`` parallel to
            *leaf_lists*.
        leaf_lists: per-position sorted :class:`LeafEntry` lists.
        injective: enforce one-to-one assignments.
    """

    __slots__ = (
        "pivot_qid", "pivot_node", "pivot_score", "pivot_raw_score",
        "leaf_positions", "leaf_lists", "injective", "_heap", "_visited",
        "_exhausted", "pops",
    )

    def __init__(
        self,
        pivot_qid: int,
        pivot_node: int,
        pivot_score: float,
        pivot_raw_score: float,
        leaf_positions: Sequence[Tuple[int, int]],
        leaf_lists: Sequence[List[LeafEntry]],
        injective: bool = True,
    ) -> None:
        self.pivot_qid = pivot_qid
        self.pivot_node = pivot_node
        self.pivot_score = pivot_score
        self.pivot_raw_score = pivot_raw_score
        self.leaf_positions = list(leaf_positions)
        self.leaf_lists = list(leaf_lists)
        self.injective = injective
        self._heap: List[Tuple[float, Tuple[int, ...]]] = []
        self._visited = set()
        self._exhausted = not all(self.leaf_lists)
        self.pops = 0
        if not self._exhausted:
            start = tuple([0] * len(self.leaf_lists))
            self._push(start)

    # ------------------------------------------------------------------
    def _cursor_score(self, cursor: Tuple[int, ...]) -> float:
        total = self.pivot_score
        for pos, idx in enumerate(cursor):
            total += self.leaf_lists[pos][idx].combined
        return total

    def _push(self, cursor: Tuple[int, ...]) -> None:
        if cursor in self._visited:
            return
        self._visited.add(cursor)
        heapq.heappush(self._heap, (-self._cursor_score(cursor), cursor))

    def _expand(self, cursor: Tuple[int, ...]) -> None:
        for pos in range(len(cursor)):
            if cursor[pos] + 1 < len(self.leaf_lists[pos]):
                successor = cursor[:pos] + (cursor[pos] + 1,) + cursor[pos + 1:]
                self._push(successor)

    def _valid(self, cursor: Tuple[int, ...]) -> bool:
        if not self.injective:
            return True
        seen = {self.pivot_node}
        for pos, idx in enumerate(cursor):
            node = self.leaf_lists[pos][idx].node
            if node in seen:
                return False
            seen.add(node)
        return True

    def _materialize(self, cursor: Tuple[int, ...], score: float) -> Match:
        assignment: Dict[int, int] = {self.pivot_qid: self.pivot_node}
        node_scores: Dict[int, float] = {self.pivot_qid: self.pivot_raw_score}
        edge_scores: Dict[int, float] = {}
        edge_hops: Dict[int, int] = {}
        for pos, idx in enumerate(cursor):
            leaf_qid, edge_qid = self.leaf_positions[pos]
            entry = self.leaf_lists[pos][idx]
            assignment[leaf_qid] = entry.node
            node_scores[leaf_qid] = entry.node_score
            edge_scores[edge_qid] = entry.edge_score
            edge_hops[edge_qid] = entry.hops
        return Match(score, assignment, node_scores, edge_scores, edge_hops)

    # ------------------------------------------------------------------
    def peek_score(self) -> Optional[float]:
        """Upper bound on the next match's score (None when exhausted).

        This is the best *cursor* score in the queue; the next valid match
        scores at most this much.
        """
        if self._exhausted or not self._heap:
            return None
        return -self._heap[0][0]

    def next_match(self) -> Optional[Match]:
        """The next-best match pivoted here, or None when exhausted."""
        while self._heap:
            neg_score, cursor = heapq.heappop(self._heap)
            self.pops += 1
            self._expand(cursor)
            if self._valid(cursor):
                return self._materialize(cursor, -neg_score)
        self._exhausted = True
        return None

    def __iter__(self) -> Iterator[Match]:
        while True:
            match = self.next_match()
            if match is None:
                return
            yield match
