"""Message propagation for ``stard`` (Section V-B).

A message originating at a leaf match ``w`` is the triple
``<(u*, w), F_N(u*, w), h>``: "within ``h`` hops there is a node ``w``
matching leaf ``u*`` with score ``F``".  Propagation keeps, per graph node
and hop count, the **two best** messages with *distinct origins* -- the
paper's fix for the ping-pong effect: when the best origin is the pivot
itself (or must be excluded), the runner-up is still available, so top-1
estimates never silently vanish.

``B[h][v]`` after propagation holds the best (top-2) leaf-match scores
reachable from ``v`` by a walk of exactly ``h`` hops; combined with the
monotone edge-path bound this yields the per-pivot upper bounds stard
sorts by.  Space is ``O(d |V|)`` per distinct leaf constraint, matching
the paper's bound.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional

from repro.graph.knowledge_graph import KnowledgeGraph
from repro.runtime.budget import Budget


class Top2:
    """The two best (score, origin) pairs with distinct origins."""

    __slots__ = ("s1", "o1", "s2", "o2")

    def __init__(self, score: float, origin: int) -> None:
        self.s1 = score
        self.o1 = origin
        self.s2 = float("-inf")
        self.o2 = -1

    def offer(self, score: float, origin: int) -> None:
        """Merge a candidate message into the top-2."""
        if origin == self.o1:
            if score > self.s1:
                self.s1 = score
            return
        if score > self.s1:
            self.s2, self.o2 = self.s1, self.o1
            self.s1, self.o1 = score, origin
        elif score > self.s2 and origin != self.o1:
            self.s2, self.o2 = score, origin

    def copy(self) -> "Top2":
        """An independent top-2 holding the same two messages."""
        clone = Top2(self.s1, self.o1)
        clone.s2, clone.o2 = self.s2, self.o2
        return clone

    def merge(self, other: "Top2") -> None:
        """Merge another node's top-2 (one propagation step)."""
        self.offer(other.s1, other.o1)
        if other.o2 >= 0:
            self.offer(other.s2, other.o2)

    def best_excluding(self, banned: Optional[int]) -> Optional[float]:
        """Best score whose origin differs from *banned* (None = no ban)."""
        if banned is None or self.o1 != banned:
            return self.s1
        if self.o2 >= 0:
            return self.s2
        return None

    def __repr__(self) -> str:
        return f"Top2({self.s1:.3f}@{self.o1}, {self.s2:.3f}@{self.o2})"


def propagate(
    graph: KnowledgeGraph,
    seeds: Mapping[int, float],
    d: int,
    budget: Optional[Budget] = None,
    adjacent: Optional[Dict[int, List[int]]] = None,
) -> List[Dict[int, Top2]]:
    """Run *d* rounds of message propagation from *seeds*.

    Args:
        seeds: leaf-match node -> ``F_N`` score (already thresholded).
        d: number of rounds.  ``stard`` runs ``d - 1`` here, for a
            search bound ``d``, and merges ``B[d-1]`` over each pivot
            candidate's row itself
            (:meth:`repro.core.stard.StarDSearch._bounding_provider`).
        budget: optional :class:`Budget`; each round charges its message
            count and checks the deadline.  After an anytime trip the
            remaining rounds are returned as *empty* layers (shape is
            preserved), which makes the downstream pivot estimates
            under-estimates -- the stard stream then degrades to a
            flagged best-so-far answer instead of an exact one.
        adjacent: an empty dict, filled by round 1 -- the one walk of
            every seed's edges -- with, per node, the seeds adjacent to
            it (once per edge): the inverted adjacency the d-bounded
            leaf provider reads its last hop from
            (:func:`repro.core.stark.bounded_leaf_provider`).  Complete
            only when round 1 ran.

    Returns:
        ``B`` with ``B[h][v]`` = top-2 seed scores reachable from ``v`` by
        a walk of exactly ``h`` hops (``B[0]`` = the seeds themselves).
    """
    layers: List[Dict[int, Top2]] = []
    current: Dict[int, Top2] = {}
    for node, score in seeds.items():
        current[node] = Top2(score, node)
    layers.append(current)
    for round_ in range(1, d + 1):
        if budget is not None and budget.check():
            break
        nxt: Dict[int, Top2] = {}
        if round_ == 1:
            # The walk of every seed's edges.  A seed's message is its own
            # singleton, offered as is; a node first reached here starts
            # its inverted-adjacency list.
            inverting = adjacent is not None
            for node, score in seeds.items():
                for nbr, _eid in graph.neighbors(node):
                    existing = nxt.get(nbr)
                    if existing is None:
                        nxt[nbr] = Top2(score, node)
                        if inverting:
                            adjacent[nbr] = [node]
                        continue
                    if score > existing.s2:  # else neither slot can change
                        existing.offer(score, node)
                    if inverting:
                        adjacent[nbr].append(node)
        else:
            for node, top2 in layers[-1].items():
                for nbr, _eid in graph.neighbors(node):
                    existing = nxt.get(nbr)
                    if existing is None:
                        nxt[nbr] = top2.copy()
                    elif top2.s1 > existing.s2:
                        existing.merge(top2)
        layers.append(nxt)
        if budget is not None and budget.charge_messages(len(nxt)):
            break
    while len(layers) < d + 1:
        layers.append({})
    return layers


def pull(
    layer: Mapping[int, Top2], neighbours: Iterable[int], banned: Optional[int]
) -> Optional[float]:
    """One propagation round read at one node *v*: the best score of
    ``layer`` merged over *v*'s *neighbours* whose origin is not
    *banned* (None = no ban).

    With ``layer = B[h]`` this is ``B[h+1][v].best_excluding(banned)``
    as the pushed round gives it -- adjacency is symmetric, a neighbour
    merged twice (parallel edges) changes nothing, and the best origin
    over a merge is the best over its parts -- except that ``-inf``
    stands for a merge holding only *banned*'s own messages.  None means
    no neighbour holds a message: the round leaves *v* no entry.
    ``stard`` pulls its last round this way at each pivot candidate's
    row.
    """
    best: Optional[float] = None
    for top2 in filter(None, map(layer.get, neighbours)):
        score = top2.s1 if top2.o1 != banned else top2.s2
        if best is None or score > best:
            best = score
    return best
