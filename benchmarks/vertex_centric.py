"""Vertex-centric execution of the stard message propagation.

Section V-B, Remark: "The implementation of stard allows multi-level of
parallelism.  In an extreme case of vertex-centric programming [20], each
node can exchange messages between their neighbors in parallel, which can
complete all message propagation in at most d rounds of communication."

This module provides that formulation: a small Pregel-style engine
(supersteps, per-vertex compute, message combining, halting) plus the
stard propagation written as a vertex program.  Execution here is
sequential -- the point is the *program structure*: the engine partitions
vertices across simulated workers and accounts cross-partition message
traffic, so the communication volume a distributed deployment would pay
is measurable.  ``propagate_vertex_centric`` is verified equivalent to
the array kernels of :mod:`repro.core.messages`.

No engine path runs it (sharded search splits pivots over workers that
each read the whole graph), so it lives here, beside its one caller,
``bench_ablation_design.py``.
"""

from __future__ import annotations

from typing import Callable, Dict, Generic, Hashable, List, Mapping, Optional, Tuple, TypeVar

from repro.errors import SearchError
from repro.graph.knowledge_graph import KnowledgeGraph

Message = TypeVar("Message")
State = TypeVar("State")


class Top2:
    """One vertex's two best ``(score, origin)`` messages with distinct
    origins (``s2 = -inf``, ``o2 = -1`` until there is a runner-up)."""

    __slots__ = ("s1", "o1", "s2", "o2")

    def __init__(self, score: float, origin: int) -> None:
        self.s1 = score
        self.o1 = origin
        self.s2 = float("-inf")
        self.o2 = -1

    def offer(self, score: float, origin: int) -> None:
        """Merge one message into the top-2."""
        if origin == self.o1:
            if score > self.s1:
                self.s1 = score
            return
        if score > self.s1:
            self.s2, self.o2 = self.s1, self.o1
            self.s1, self.o1 = score, origin
        elif score > self.s2:
            self.s2, self.o2 = score, origin


class VertexProgram(Generic[State, Message]):
    """A Pregel-style vertex program.

    Subclasses define per-vertex state, how incoming messages update it,
    and what gets sent to neighbors next superstep.  A vertex halts by
    sending nothing; the engine stops when no messages are in flight.
    """

    def initial_messages(
        self, graph: KnowledgeGraph
    ) -> Dict[int, List[Message]]:
        """Messages delivered at superstep 0 (seeding)."""
        raise NotImplementedError

    def compute(
        self,
        vertex: int,
        state: Optional[State],
        incoming: List[Message],
        superstep: int,
    ) -> Tuple[Optional[State], List[Message]]:
        """Process *incoming*; return (new state, messages to neighbors).

        Returned messages are broadcast to every neighbor of *vertex*.
        """
        raise NotImplementedError

    def combine(self, messages: List[Message]) -> List[Message]:
        """Optional combiner: reduce a vertex's inbox before compute.

        Default keeps the inbox as-is; override to implement Pregel
        combiners (stard's Top2 merge, sums, max, ...).
        """
        return messages


class PregelEngine:
    """Superstep executor with simulated worker partitions.

    Args:
        graph: data graph (undirected adjacency = communication topology).
        num_workers: simulated partition count; vertices are assigned
            round-robin.  Only accounting changes with this value, never
            results.

    Attributes populated by :meth:`run`:
        supersteps_run: rounds executed.
        messages_sent: total messages emitted.
        cross_partition_messages: messages whose endpoints live on
            different workers (the distributed deployment's network cost).
    """

    def __init__(self, graph: KnowledgeGraph, num_workers: int = 4) -> None:
        if num_workers < 1:
            raise SearchError(f"num_workers must be >= 1, got {num_workers}")
        self.graph = graph
        self.num_workers = num_workers
        self.supersteps_run = 0
        self.messages_sent = 0
        self.cross_partition_messages = 0

    def _worker_of(self, vertex: int) -> int:
        return vertex % self.num_workers

    def run(
        self,
        program: VertexProgram,
        max_supersteps: int,
    ) -> Dict[int, object]:
        """Execute *program* for at most *max_supersteps* rounds.

        Returns the final per-vertex states (vertices that never received
        a message are absent).

        Raises:
            SearchError: for non-positive *max_supersteps*.
        """
        if max_supersteps <= 0:
            raise SearchError(
                f"max_supersteps must be positive, got {max_supersteps}"
            )
        self.supersteps_run = 0
        self.messages_sent = 0
        self.cross_partition_messages = 0

        states: Dict[int, object] = {}
        inboxes: Dict[int, List[object]] = {
            v: msgs for v, msgs in program.initial_messages(self.graph).items()
            if msgs
        }
        for superstep in range(max_supersteps):
            if not inboxes:
                break
            self.supersteps_run += 1
            outboxes: Dict[int, List[object]] = {}
            for vertex, inbox in inboxes.items():
                combined = program.combine(inbox)
                new_state, outgoing = program.compute(
                    vertex, states.get(vertex), combined, superstep
                )
                if new_state is not None:
                    states[vertex] = new_state
                if not outgoing:
                    continue
                src_worker = self._worker_of(vertex)
                for nbr, _eid in self.graph.neighbors(vertex):
                    for message in outgoing:
                        outboxes.setdefault(nbr, []).append(message)
                        self.messages_sent += 1
                        if self._worker_of(nbr) != src_worker:
                            self.cross_partition_messages += 1
            inboxes = outboxes
        return states


class StardPropagation(VertexProgram):
    """The stard leaf-score propagation as a vertex program.

    State: per-hop :class:`Top2` tables ``{hop: Top2}`` -- the vertex's
    best (two, distinct-origin) leaf scores per walk distance.  Messages:
    ``(score, origin)`` pairs; the combiner merges an inbox into a single
    Top2 so each vertex processes O(1) data per superstep, the property
    that makes the d-round communication bound of the Remark real.
    """

    def __init__(self, seeds: Mapping[int, float], d: int) -> None:
        if d < 1:
            raise SearchError(f"propagation depth d must be >= 1, got {d}")
        self.seeds = dict(seeds)
        self.d = d

    def initial_messages(self, graph) -> Dict[int, List[Tuple[float, int]]]:
        return {v: [(score, v)] for v, score in self.seeds.items()}

    def combine(self, messages):
        if not messages:
            return messages
        top2 = Top2(messages[0][0], messages[0][1])
        for score, origin in messages[1:]:
            top2.offer(score, origin)
        out = [(top2.s1, top2.o1)]
        if top2.o2 >= 0:
            out.append((top2.s2, top2.o2))
        return out

    def compute(self, vertex, state, incoming, superstep):
        # Superstep s delivers walk-distance-s information (s=0: seeds).
        table: Dict[int, Top2] = dict(state) if state else {}
        merged: Optional[Top2] = None
        for score, origin in incoming:
            if merged is None:
                merged = Top2(score, origin)
            else:
                merged.offer(score, origin)
        if merged is not None:
            table[superstep] = merged
        # Keep propagating until hop d has been delivered everywhere.
        if superstep >= self.d:
            return table, []
        return table, list(incoming)


def propagate_vertex_centric(
    graph: KnowledgeGraph,
    seeds: Mapping[int, float],
    d: int,
    num_workers: int = 4,
) -> Tuple[List[Dict[int, Top2]], PregelEngine]:
    """Run stard's propagation on the Pregel engine.

    Returns ``(layers, engine)`` where ``layers[h][v]`` holds the scores
    :func:`repro.core.messages.propagate`'s layer ``h`` holds at ``v``,
    and *engine* carries the communication accounting.
    """
    engine = PregelEngine(graph, num_workers=num_workers)
    program = StardPropagation(seeds, d)
    states = engine.run(program, max_supersteps=d + 1)
    layers: List[Dict[int, Top2]] = [dict() for _ in range(d + 1)]
    for vertex, table in states.items():
        for hop, top2 in table.items():
            layers[hop][vertex] = top2
    return layers, engine
