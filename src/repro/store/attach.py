"""Attach a read-only :class:`~repro.index.GraphIndex` to an RKGS2 file.

The one zero-copy attach path for state that outlives a process: every
process -- serve pool workers, batch workers, one-shot CLI runs -- maps
the same store file, so the numeric columns occupy one set of OS
page-cache pages machine-wide and attaching needs no owner, no export
step and no unlink hygiene.  (In-memory state reaches fork workers by
inheritance instead; a shard worker inherits its parent's index
whether it was built or attached here.)  The attached index serves
byte-identical candidates to one built in memory (same values, same
orders) and refuses maintenance past its pinned version.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Iterator, Tuple, Union

from repro.index.features import FEATURE_COLUMNS, NodeFeatures
from repro.index.graph_index import MODES, GraphIndex
from repro.index.postings import PostingIndex
from repro.index.vocab import Vocabulary
from repro.store.format import StoreReader
from repro.store.lazygraph import MmapKnowledgeGraph

__all__ = ["MmapGraphIndex", "StaleStoreError", "attach_mmap_index"]


class StaleStoreError(ValueError):
    """The graph is the store's own, opened from it and written since
    (overlay writes): the store's columns describe the graph as it was
    at the open, and an index must be built from the graph instead."""


class MmapGraphIndex(GraphIndex):
    """A read-only :class:`GraphIndex` whose columns are mmap views.

    Maintenance is disabled: the graph version is pinned at open; past
    it, callers re-compact (``repro compact``) and re-attach instead of
    refreshing in place.
    """

    def __init__(self) -> None:  # constructed via attach_mmap_index only
        raise TypeError("use repro.store.attach_mmap_index")

    def refresh(self) -> bool:
        if self.graph.version == self._version:
            return False
        raise RuntimeError(
            "mmap-attached index cannot refresh past graph version "
            f"{self._version} (graph is at {self.graph.version}); "
            "run `repro compact` and re-attach instead"
        )

    def detach(self) -> None:
        """Drop every view (and the reader, when this attach opened it).

        Callers must drop retained ``NodeFootprint`` objects first --
        footprints wrap posting views, and a live exported pointer keeps
        the mapping open.
        """
        self.postings.postings = []
        self.postings.alive = bytearray()
        self._plans = {}
        self.vocab.idf = None
        for attr, _code in FEATURE_COLUMNS:
            setattr(self.features, attr, None)
        reader = self._reader
        if reader is not None:
            self._reader = None
            if self._owns_reader:
                reader.close()


def _overlay_of(graph, reader: StoreReader) -> bool:
    """True when *graph* was opened from *reader*'s file at the version
    the file holds: its later versions are overlay writes."""
    if not isinstance(graph, MmapKnowledgeGraph):
        return False
    own = graph._store
    return graph.base_version == reader.meta.version and (
        own is reader
        or os.path.realpath(own.path) == os.path.realpath(reader.path))


@contextmanager
def _store_of(source, graph) -> Iterator[Tuple[StoreReader, bool]]:
    """Resolve *source* (see :func:`attach_mmap_index`) to ``(reader,
    opened here?)`` once the store is known to hold *graph*: same name,
    node-slot count and version.  A reader opened here is closed if
    that check, or anything in the ``with`` body, fails."""
    if isinstance(source, MmapKnowledgeGraph):
        source = source._store
    owns = not isinstance(source, StoreReader)
    reader = StoreReader(source) if owns else source
    try:
        meta = reader.meta
        if getattr(graph, "name", None) != meta.name:
            raise ValueError(
                f"store {reader.path} holds graph {meta.name!r}, "
                f"not {graph.name!r}")
        if graph.version != meta.version:
            raise (StaleStoreError if _overlay_of(graph, reader)
                   else ValueError)(
                f"store {reader.path} was compacted at graph version "
                f"{meta.version}, but the graph is at {graph.version}")
        if graph.num_node_slots != meta.node_slots:
            raise ValueError(
                f"store {reader.path} lays out {meta.node_slots} node "
                f"slot(s), but the graph has {graph.num_node_slots}")
        yield reader, owns
    except BaseException:
        if owns:
            reader.close()
        raise


def attach_mmap_index(
    source: Union[str, "StoreReader", MmapKnowledgeGraph],
    graph,
    mode: str = "auto",
) -> MmapGraphIndex:
    """Attach the index columns of an RKGS2 store to *graph*.

    Args:
        source: a store path, an open :class:`StoreReader`, or an
            :class:`MmapKnowledgeGraph` (whose own reader is shared --
            graph and index then read the same mapping).
        graph: the graph the index will generate candidates for.  Must
            match the store's graph (same name, node-slot count) at the
            exact version the store was compacted from; a fork-inherited
            or freshly opened graph of the same file is the normal case.
        mode: ``use_index`` routing mode for the attached index.

    Raises:
        StaleStoreError: the graph was opened from this store and has
            overlay writes since (a :class:`ValueError`, like every
            other mismatch).
    """
    if mode not in MODES:
        raise ValueError(
            f"use_index mode must be one of {MODES}, got {mode!r}")
    with _store_of(source, graph) as (reader, owns):
        meta = reader.meta
        counts = meta.counts
        vocab = Vocabulary()
        vocab.strings = reader.strings("vocab", counts["vocab"]).materialize()
        vocab._ids = {token: tid for tid, token in enumerate(vocab.strings)}
        vocab.idf = reader.section("idf")
        vocab.idf_stale = False

        postings = PostingIndex()
        data = reader.section("post.data")
        offsets = reader.section("post.offs")
        postings.postings = [
            data[offsets[i]:offsets[i + 1]] for i in range(len(offsets) - 1)
        ]
        postings.alive = reader.section("node.alive")
        postings.live_nodes = meta.node_slots - meta.removed_nodes
        postings.dead_nodes = 0

        features = NodeFeatures()
        for attr, _code in FEATURE_COLUMNS:
            setattr(features, attr, reader.section(f"feat.{attr}"))
        features.pool_strings = reader.strings(
            "pool", counts["pool"]).materialize()
        features.pool = {v: i for i, v in enumerate(features.pool_strings)}

    index = object.__new__(MmapGraphIndex)
    index.graph = graph
    index.mode = mode
    index.vocab = vocab
    index.postings = postings
    index.features = features
    index.postings_scanned = 0
    index.pruned = 0
    index.evaluated = 0
    index._plans = {}
    index._version = meta.version
    index._reader = reader
    index._owns_reader = owns
    return index
