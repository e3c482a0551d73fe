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

from typing import Collection, Dict, List, Mapping, Optional

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


def pulls_last_round(
    targets: Optional[Collection[int]], frontier: Mapping[int, Top2]
) -> bool:
    """Whether :func:`propagate` pulls its last round at *targets*.

    Pulling costs the targets' degrees, pushing the frontier's; the
    smaller side is walked.
    """
    return targets is not None and len(targets) <= len(frontier)


def propagate(
    graph: KnowledgeGraph,
    seeds: Mapping[int, float],
    d: int,
    budget: Optional[Budget] = None,
    targets: Optional[Collection[int]] = None,
) -> List[Dict[int, Top2]]:
    """Run *d* rounds of message propagation from *seeds*.

    Args:
        seeds: leaf-match node -> ``F_N`` score (already thresholded).
        d: number of rounds (the search bound).
        budget: optional :class:`Budget`; each round charges its message
            count and checks the deadline.  After an anytime trip the
            remaining rounds are returned as *empty* layers (shape is
            preserved), which makes the downstream pivot estimates
            under-estimates -- the stard stream then degrades to a
            flagged best-so-far answer instead of an exact one.
        targets: the only nodes ``B[d]`` will be read at (stard's pivot
            candidates).  When they are no more than ``B[d-1]`` holds,
            the last round is *pulled*: each target merges ``B[d-1]``
            over its own neighbours and no other node gets an entry.
            Adjacency is symmetric and a :class:`Top2` does not depend
            on merge order, so ``B[d][v]`` is the pushed one for every
            target ``v``.

    Returns:
        ``B`` with ``B[h][v]`` = top-2 seed scores reachable from ``v`` by
        a walk of exactly ``h`` hops (``B[0]`` = the seeds themselves);
        ``B[d]`` covers *targets* only when they were given.
    """
    layers: List[Dict[int, Top2]] = []
    current: Dict[int, Top2] = {}
    for node, score in seeds.items():
        current[node] = Top2(score, node)
    layers.append(current)
    for round_ in range(1, d + 1):
        if budget is not None and budget.check():
            break
        previous = layers[-1]
        nxt: Dict[int, Top2] = {}
        if round_ == d and pulls_last_round(targets, previous):
            for node in targets:
                merged: Optional[Top2] = None
                for nbr, _eid in graph.neighbors(node):
                    top2 = previous.get(nbr)
                    if top2 is None:
                        continue
                    if merged is None:
                        merged = nxt[node] = top2.copy()
                    elif top2.s1 > merged.s2:  # else neither slot can change
                        merged.merge(top2)
        else:
            for node, top2 in previous.items():
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


def estimate_leaf_bound(
    layers: List[Dict[int, Top2]],
    pivot: int,
    d: int,
    edge_upper_bound,
    edge_threshold: float,
    exclude_pivot: bool,
) -> Optional[float]:
    """Upper bound on a leaf's (node + edge) contribution at *pivot*.

    ``max over h in 1..d of (best F_N at walk distance h, pivot excluded
    as origin under injective matching) + edge bound for h``.  Hop counts
    whose edge bound already fails the edge threshold are skipped.
    Returns None when the leaf is unreachable within *d* hops.
    """
    banned = pivot if exclude_pivot else None
    best: Optional[float] = None
    for hops in range(1, d + 1):
        bound = edge_upper_bound(hops)
        if bound < edge_threshold:
            continue
        top2 = layers[hops].get(pivot)
        if top2 is None:
            continue
        node_bound = top2.best_excluding(banned)
        if node_bound is None:
            continue
        total = node_bound + bound
        if best is None or total > best:
            best = total
    return best
