"""CSR columns of a graph's adjacency, for array kernels.

:meth:`KnowledgeGraph.columns` hands out one :class:`Columns` per state
of the adjacency: ``indptr``, ``indices`` and ``relations`` as read-only
numpy arrays, row ``v`` being ``indices[indptr[v]:indptr[v + 1]]`` --
the neighbor ids of ``graph.neighbors(v)``, in its order, a neighbor
repeated once per parallel edge -- and ``relations`` the relation id of
each entry's edge (:meth:`KnowledgeGraph.relation_names` names them).
The columns carry no edge ids and no orientation; grouped labels come
only from ``grouped_relations``.  ``stard``'s message passing
(:mod:`repro.core.messages`), the star plans' column bounds
(:func:`repro.core.stark.column_bounds`), starjoin's cut and the
d-bounded last hop (:func:`repro.core.stark.bounded_leaf_provider`) read
them; every other traversal stays on ``graph.neighbors``.

An in-memory graph builds them in one bulk pass over its endpoint and
relation columns (:func:`from_endpoints`); an mmap'd store hands over
its ``csr.indptr`` / ``csr.indices`` / ``csr.rels`` sections (see
:mod:`repro.store.lazygraph`).  After a few edges come, go or change
relation, the rows they touched are spliced into the last columns
(:meth:`Columns.spliced`) rather than rebuilding them all.
"""

from __future__ import annotations

from array import array
from typing import Mapping, Optional, Sequence, Tuple

import numpy as np

#: A row as :meth:`Columns.spliced` takes it: its neighbor ids and the
#: relation id of each entry.
Row = Tuple[Sequence[int], Sequence[int]]


class Columns:
    """``indptr`` / ``indices`` / ``relations`` of one state of a graph's
    adjacency (see the module docstring); ``relations`` is None for
    columns that are not a graph's own (:meth:`restricted_to`)."""

    __slots__ = ("indptr", "indices", "relations")

    def __init__(self, indptr: np.ndarray, indices: np.ndarray,
                 relations: Optional[np.ndarray] = None) -> None:
        self.indptr = indptr
        self.indices = indices
        self.relations = relations

    @property
    def num_slots(self) -> int:
        """Node slots covered (tombstones included)."""
        return len(self.indptr) - 1

    def spans(self, nodes: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Where the rows of *nodes* (an integer array) start, and their
        lengths."""
        starts = self.indptr[nodes].astype(np.int64, copy=False)
        return starts, self.indptr[nodes + 1] - starts

    @staticmethod
    def positions(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
        """The entry positions of the rows at *starts* of *lengths*,
        concatenated in order."""
        ends = np.cumsum(lengths)
        # output position i, in the row starting at output offset o,
        # reads entry start + i - o
        return np.arange(int(ends[-1]) if len(ends) else 0) + np.repeat(
            starts - (ends - lengths), lengths)

    def rows(self, nodes: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """The rows of *nodes* (an integer array), concatenated in
        *nodes*' order, and each row's length."""
        starts, lengths = self.spans(nodes)
        return self.indices[self.positions(starts, lengths)], lengths

    def spliced(self, rows: Mapping[int, Row], slots: int) -> "Columns":
        """These columns over *slots* slots (at least :attr:`num_slots`)
        with each row of *rows* (node -> its neighbor and relation ids)
        put in place of the old one, or added past the old slots; the
        other rows are copied over, one slice per run of unchanged rows.
        Without a row to put in, these columns themselves."""
        old = self.num_slots
        if not rows and slots == old:
            return self
        lengths = np.zeros(slots, dtype=np.int64)
        lengths[:old] = np.diff(self.indptr)
        changed = sorted(rows)
        for node in changed:
            lengths[node] = len(rows[node][0])
        indptr = np.zeros(slots + 1, dtype=np.int64)
        np.cumsum(lengths, out=indptr[1:])
        indices = np.empty(indptr[-1], dtype=self.indices.dtype)
        relations = np.empty(indptr[-1], dtype=self.relations.dtype)
        done = 0  # the rows before this one are in place
        for node in [node for node in changed if node < old] + [old]:
            new, was = slice(indptr[done], indptr[node]), \
                slice(self.indptr[done], self.indptr[node])
            indices[new] = self.indices[was]
            relations[new] = self.relations[was]
            done = node + 1
        for node in changed:
            at = slice(indptr[node], indptr[node + 1])
            indices[at], relations[at] = rows[node]
        for column in (indptr, indices, relations):
            column.flags.writeable = False
        return Columns(indptr, indices, relations)

    def restricted_to(self, nodes: np.ndarray) -> "Columns":
        """Columns over the same slots whose row ``v`` lists the nodes of
        *nodes* adjacent to ``v`` (once per edge): the rows of *nodes*,
        turned around -- adjacency is symmetric."""
        ids, lengths = self.rows(nodes)
        indptr, order = _grouped(ids, self.num_slots)
        return Columns(indptr, np.repeat(nodes, lengths)[order])


def from_endpoints(ends: array, relations: array, slots: int) -> Columns:
    """Columns from a flat endpoint column, ``src, dst`` per edge slot
    (``-1, -1`` for a removed edge), and a relation id per edge slot.

    Row ``v`` lists the other end of each live edge touching ``v`` in
    edge-id order, which is ``graph.neighbors(v)``'s order: ``add_edge``
    appends to both ends' lists, and removal keeps the survivors' order.
    """
    flat = np.frombuffer(ends, dtype=np.int32)
    per_edge = np.frombuffer(relations, dtype=np.int32)
    if len(flat) and flat.min() < 0:
        live = flat[0::2] >= 0  # both ends of a removed edge go together
        flat = flat.reshape(-1, 2)[live].ravel()
        per_edge = per_edge[live]
    indptr, order = _grouped(flat, slots)
    # position p holds one end of edge p // 2; p ^ 1 holds the other
    indices = flat[order ^ 1]
    labels = per_edge[order >> 1]
    indices.flags.writeable = False
    labels.flags.writeable = False
    return Columns(indptr, indices, labels)


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
