"""Id-only CSR columns of a graph's adjacency, for array kernels.

:meth:`KnowledgeGraph.columns` hands out one :class:`Columns` per state
of the adjacency: ``indptr`` and ``indices`` as read-only numpy arrays,
row ``v`` being ``indices[indptr[v]:indptr[v + 1]]`` -- the neighbor
ids of ``graph.neighbors(v)``, in its order, a neighbor repeated once
per parallel edge.  The columns carry no edge ids and no labels: labels
come only from ``grouped_relations``.  ``stard``'s message passing
(:mod:`repro.core.messages`) and the d-bounded last hop
(:func:`repro.core.stark.bounded_leaf_provider`) read them; every other
traversal stays on ``graph.neighbors``.

An in-memory graph builds them in one bulk pass over its endpoint
column (:func:`from_endpoints`); an mmap'd store hands over its
``csr.indptr`` / ``csr.indices`` sections (see
:mod:`repro.store.lazygraph`).
"""

from __future__ import annotations

from array import array
from typing import Tuple

import numpy as np


class Columns:
    """``indptr`` / ``indices`` of one state of a graph's adjacency
    (see the module docstring)."""

    __slots__ = ("indptr", "indices")

    def __init__(self, indptr: np.ndarray, indices: np.ndarray) -> None:
        self.indptr = indptr
        self.indices = indices

    @property
    def num_slots(self) -> int:
        """Node slots covered (tombstones included)."""
        return len(self.indptr) - 1

    def rows(self, nodes: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """The rows of *nodes* (an integer array), concatenated in
        *nodes*' order, and each row's length."""
        starts = self.indptr[nodes].astype(np.int64)
        lengths = self.indptr[nodes + 1] - starts
        ends = np.cumsum(lengths)
        total = int(ends[-1]) if len(ends) else 0
        # output position i, in the row starting at output offset o,
        # reads indices[start + i - o]
        shift = np.repeat(starts - (ends - lengths), lengths)
        return self.indices[np.arange(total) + shift], lengths

    def restricted_to(self, nodes: np.ndarray) -> "Columns":
        """Columns over the same slots whose row ``v`` lists the nodes of
        *nodes* adjacent to ``v`` (once per edge): the rows of *nodes*,
        turned around -- adjacency is symmetric."""
        ids, lengths = self.rows(nodes)
        indptr, order = _grouped(ids, self.num_slots)
        return Columns(indptr, np.repeat(nodes, lengths)[order])


def from_endpoints(ends: array, slots: int) -> Columns:
    """Columns from a flat endpoint column: ``src, dst`` per edge slot,
    ``-1, -1`` for a removed edge.

    Row ``v`` lists the other end of each live edge touching ``v`` in
    edge-id order, which is ``graph.neighbors(v)``'s order: ``add_edge``
    appends to both ends' lists, and removal keeps the survivors' order.
    """
    flat = np.frombuffer(ends, dtype=np.int32)
    if len(flat) and flat.min() < 0:
        flat = flat[flat >= 0]  # both ends of a removed edge go together
    indptr, order = _grouped(flat, slots)
    # position p holds one end of edge p // 2; p ^ 1 holds the other
    order ^= 1
    indices = flat[order]
    indices.flags.writeable = False
    return Columns(indptr, indices)


def _grouped(keys: np.ndarray, slots: int) -> Tuple[np.ndarray, np.ndarray]:
    """``indptr`` over *slots* rows for entries keyed by row (*keys*,
    non-negative ints below *slots*), and the order that groups them:
    ``argsort(keys, kind="stable")``, as one or two 16-bit radix passes
    (numpy sorts 16-bit keys by radix, wider ones by timsort, several
    times slower)."""
    indptr = np.zeros(slots + 1, dtype=np.int64)
    np.cumsum(np.bincount(keys, minlength=slots), out=indptr[1:])
    indptr.flags.writeable = False
    if slots <= 1 << 16:
        return indptr, np.argsort(keys.astype(np.uint16), kind="stable")
    low = np.argsort((keys & 0xFFFF).astype(np.uint16), kind="stable")
    high = np.argsort((keys[low] >> 16).astype(np.uint16), kind="stable")
    return indptr, low[high]
