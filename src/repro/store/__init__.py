"""``repro.store``: the mmap-able zero-copy graph store (``RKGS2``).

Write with :func:`write_store` (= :meth:`KnowledgeGraph.save`, ``repro
compact``; the target is replaced atomically), open with
:meth:`KnowledgeGraph.open_mmap` / :func:`open_graph`, and attach the
index kernels with :func:`attach_mmap_index` (an engine gets them
through ``Star(graph, mmap_store=...)``, which builds its index in
memory instead once overlay writes have moved the store's own graph
past it).  The store carries no semantic-tier columns:
:class:`repro.ann.SemanticTier` embeds the graph in memory on its first
probe.  See :mod:`repro.store.format` for the
on-disk layout and :mod:`repro.store.lazygraph` for the copy-on-write
overlay semantics.
"""

from repro.store.attach import (MmapGraphIndex, StaleStoreError,
                                attach_mmap_index)
from repro.store.format import (
    MAGIC2,
    PAGE_SIZE,
    STORE_VERSION,
    StoreReader,
    write_store,
)
from repro.store.lazygraph import MmapKnowledgeGraph, open_graph

__all__ = [
    "MAGIC2",
    "PAGE_SIZE",
    "STORE_VERSION",
    "MmapGraphIndex",
    "MmapKnowledgeGraph",
    "StaleStoreError",
    "StoreReader",
    "attach_mmap_index",
    "open_graph",
    "write_store",
]
