"""Message propagation for ``stard`` (Section V-B).

A message originating at a leaf match ``w`` is the triple
``<(u*, w), F_N(u*, w), h>``: "within ``h`` hops there is a node ``w``
matching leaf ``u*`` with score ``F``".  Propagation keeps, per graph node
and hop count, the **two best** messages with *distinct origins* -- the
paper's fix for the ping-pong effect: when the best origin is the pivot
itself (or must be excluded), the runner-up is still available, so top-1
estimates never silently vanish.

``B[h]`` after propagation holds, per node ``v``, the best (top-2) leaf-match
scores reachable from ``v`` by a walk of exactly ``h`` hops; combined with
the monotone edge-path bound this yields the per-pivot upper bounds stard
sorts by.  Space is ``O(d |V|)`` per distinct leaf constraint, matching
the paper's bound.

Both kernels are array passes over the graph's id columns
(:meth:`~repro.graph.knowledge_graph.KnowledgeGraph.columns`): a round is
one top-2 scatter-max (:func:`propagate`), and the round read at a set of
nodes is one gather-max over their rows (:func:`pull`).  Max, gather and
one addition per term are exact, so every score is the float the
per-node walk gives.
"""

from __future__ import annotations

from typing import List, Mapping, NamedTuple, Optional, Tuple

import numpy as np

from repro.graph.columns import Columns
from repro.runtime.budget import Budget

_NO_SCORE = -np.inf


class Layer(NamedTuple):
    """``B[h]`` over the graph's node slots: per node the best message
    ``(s1, o1)`` and the best one from another origin ``(s2, o2)``;
    ``-inf`` and ``-1`` where there is none."""

    s1: np.ndarray
    o1: np.ndarray
    s2: np.ndarray
    o2: np.ndarray

    @classmethod
    def empty(cls, slots: int) -> "Layer":
        """A layer in which no node holds a message."""
        return cls(np.full(slots, _NO_SCORE), np.full(slots, -1),
                   np.full(slots, _NO_SCORE), np.full(slots, -1))

    def reached(self) -> np.ndarray:
        """The nodes holding a message, ascending."""
        return np.flatnonzero(self.o1 >= 0)

    def count(self) -> int:
        """How many nodes hold a message."""
        return int(np.count_nonzero(self.o1 >= 0))

    def best_excluding(self, nodes: np.ndarray,
                       injective: bool) -> np.ndarray:
        """Per node of *nodes*, its best score whose origin is not the
        node itself (any origin unless *injective*); ``-inf`` for none."""
        best = self.s1[nodes]
        if injective:
            best = np.where(self.o1[nodes] == nodes, self.s2[nodes], best)
        return best


def _top2(slots: int, targets: np.ndarray, scores: np.ndarray,
          origins: np.ndarray) -> Layer:
    """The layer the messages ``(scores, origins)`` sent to *targets*
    leave: per target the best, then the best of the other origins."""
    s1 = np.full(slots, _NO_SCORE)
    np.maximum.at(s1, targets, scores)
    o1 = np.full(slots, -1)
    won = scores == s1[targets]
    o1[targets[won]] = origins[won]  # one winner per target, any on a tie
    rest = origins != o1[targets]
    targets, scores, origins = targets[rest], scores[rest], origins[rest]
    s2 = np.full(slots, _NO_SCORE)
    np.maximum.at(s2, targets, scores)
    o2 = np.full(slots, -1)
    won = scores == s2[targets]
    o2[targets[won]] = origins[won]
    return Layer(s1, o1, s2, o2)


def propagate(
    graph,
    seeds: Mapping[int, float],
    d: int,
    budget: Optional[Budget] = None,
) -> List[Layer]:
    """Run *d* rounds of message propagation from *seeds*.

    Args:
        graph: a graph, read through its id columns (``columns()``).
        seeds: leaf-match node -> ``F_N`` score (already thresholded).
        d: number of rounds.  ``stard`` runs ``d - 1`` here, for a
            search bound ``d``, and reads ``B[d]`` off ``B[d-1]`` with
            :func:`pull` at its pivot candidates.
        budget: optional :class:`Budget`; each round charges its message
            count and checks the deadline.  After an anytime trip the
            remaining rounds are returned as *empty* layers (shape is
            preserved), which makes the downstream pivot estimates
            under-estimates -- the stard stream then degrades to a
            flagged best-so-far answer instead of an exact one.

    Returns:
        ``B`` with ``B[h]`` = top-2 seed scores reachable from each node
        by a walk of exactly ``h`` hops (``B[0]`` = the seeds themselves).
        Round 1 sends each seed's own message along its rows; every later
        round sends both messages of every node reached.
    """
    columns = graph.columns()
    slots = columns.num_slots
    nodes = np.fromiter(seeds.keys(), dtype=np.int64, count=len(seeds))
    scores = np.fromiter(seeds.values(), dtype=np.float64, count=len(seeds))
    first = Layer.empty(slots)
    first.s1[nodes] = scores
    first.o1[nodes] = nodes
    layers = [first]
    origins = nodes
    for _round in range(d):
        if budget is not None and budget.check():
            break
        targets, lengths = columns.rows(nodes)
        layer = _top2(slots, targets, np.repeat(scores, lengths),
                      np.repeat(origins, lengths))
        layers.append(layer)
        if budget is not None and budget.charge_messages(layer.count()):
            break
        reached = layer.reached()
        second = reached[layer.o2[reached] >= 0]
        nodes = np.concatenate((reached, second))
        scores = np.concatenate((layer.s1[reached], layer.s2[second]))
        origins = np.concatenate((layer.o1[reached], layer.o2[second]))
    while len(layers) < d + 1:
        layers.append(Layer.empty(slots))
    return layers


def pull(columns: Columns, layer: Layer, nodes: np.ndarray,
         injective: bool) -> Tuple[np.ndarray, np.ndarray]:
    """One more round of *layer*, read at each of *nodes* only.

    Per node ``v`` of *nodes*: the best score of ``layer`` over ``v``'s
    row whose origin is not ``v`` under *injective*, and whether any
    neighbour holds a message at all.  That is what the pushed round
    would give at ``v`` -- adjacency is symmetric, a neighbour repeated
    (parallel edges) changes no max, and the best origin over a merge is
    the best over its parts -- except that ``-inf`` with the flag set
    stands for a merge holding only ``v``'s own messages.  ``stard``
    pulls its last round this way, once for all its pivot candidates.
    """
    ids, lengths = columns.rows(nodes)
    scores = layer.s1[ids]
    if injective:
        owners = np.repeat(nodes, lengths)
        scores = np.where(layer.o1[ids] == owners, layer.s2[ids], scores)
    best = np.full(len(nodes), _NO_SCORE)
    reached = np.zeros(len(nodes), dtype=bool)
    read = lengths > 0
    if read.any():
        starts = (np.cumsum(lengths) - lengths)[read]
        best[read] = np.maximum.reduceat(scores, starts)
        reached[read] = np.logical_or.reduceat(layer.o1[ids] >= 0, starts)
    return best, reached
