"""Inverted index: ``token_id -> sorted array('I') of node ids``.

A compact mirror of the graph's ``_token_index`` (which stores one
Python ``set`` per token): each posting list is an ``array('I')`` of
node ids in ascending order, about 4 bytes per entry instead of the
~32+ bytes a set slot costs.  The candidate generator walks these
arrays directly.

Incremental maintenance mirrors the delta journal:

* **appends** -- node ids are allocated densely and never reused, so a
  node added after the build has an id larger than every existing
  posting entry; appending keeps every list sorted with no re-sort;
* **tombstone masking** -- removals flip a bit in the shared ``alive``
  byte-map instead of rewriting every affected array.  Walks skip dead
  entries; correctness never depends on compaction;
* **compaction** -- once the dead fraction passes a threshold the
  arrays are rewritten without dead entries (fresh array objects; any
  older array still referenced, e.g. by a cache entry's dependency
  footprint, keeps its frozen contents, which is exactly the
  conservative superset those footprints want).
"""

from __future__ import annotations

from array import array
from typing import Dict, Iterable, List

from repro.index.vocab import Vocabulary

_EMPTY = array("I")

#: Compact once more than this fraction of posting entries reference
#: tombstoned nodes (and at least ``_COMPACT_MIN_DEAD`` nodes died).
COMPACT_DEAD_FRACTION = 0.25
_COMPACT_MIN_DEAD = 64


class PostingIndex:
    """Array-backed inverted index over node descriptions."""

    __slots__ = ("postings", "alive", "dead_nodes", "live_nodes")

    def __init__(self) -> None:
        #: token id -> ascending ``array('I')`` of node ids.
        self.postings: List[array] = []
        #: node id -> 1 if live, 0 if tombstoned (indexed by slot).
        self.alive = bytearray()
        self.dead_nodes = 0
        self.live_nodes = 0

    # -- construction ---------------------------------------------------
    @classmethod
    def build(cls, graph, vocab: Vocabulary) -> "PostingIndex":
        """Build from the live graph (tombstones never enter the lists)."""
        index = cls()
        index.alive = bytearray(graph.num_node_slots)
        for node_id in graph.nodes():
            index.alive[node_id] = 1
            index.live_nodes += 1
        by_tid: Dict[int, array] = {}
        # Spelling order, not the token index's: that one follows
        # per-node token-set iteration, i.e. PYTHONHASHSEED.
        token_index = graph._token_index
        for token in sorted(token_index):
            members = sorted(token_index[token])
            by_tid[vocab.intern(token)] = array("I", members)
        size = len(vocab)
        index.postings = [by_tid.get(tid, array("I")) for tid in range(size)]
        return index

    # -- access ---------------------------------------------------------
    def posting(self, tid: int) -> array:
        """Posting array for token id *tid* (may contain dead entries)."""
        if tid >= len(self.postings):
            return _EMPTY
        return self.postings[tid]

    def entry_count(self) -> int:
        return sum(len(arr) for arr in self.postings)

    # -- incremental maintenance ---------------------------------------
    def grow(self, num_slots: int) -> None:
        """Extend the alive map to cover *num_slots* node slots."""
        if num_slots > len(self.alive):
            self.alive.extend(b"\x00" * (num_slots - len(self.alive)))

    def add_node(self, node_id: int, tokens: Iterable[str],
                 vocab: Vocabulary) -> None:
        """Index a newly added node (its id exceeds every existing one)."""
        self.grow(node_id + 1)
        if self.alive[node_id]:
            return  # already indexed (idempotent replay)
        self.alive[node_id] = 1
        self.live_nodes += 1
        postings = self.postings
        for token in set(tokens):
            tid = vocab.intern(token)
            while tid >= len(postings):
                postings.append(array("I"))
            postings[tid].append(node_id)

    def kill(self, node_id: int) -> None:
        """Tombstone a removed node (postings are masked, not rewritten)."""
        if node_id < len(self.alive) and self.alive[node_id]:
            self.alive[node_id] = 0
            self.dead_nodes += 1
            self.live_nodes -= 1

    def should_compact(self) -> bool:
        dead = self.dead_nodes
        if dead < _COMPACT_MIN_DEAD:
            return False
        return dead > COMPACT_DEAD_FRACTION * max(1, self.live_nodes)

    def compact(self) -> None:
        """Rewrite every posting list without tombstoned entries.

        Allocates fresh arrays -- existing references (cache dependency
        footprints) keep seeing the pre-compaction contents.
        """
        alive = self.alive
        self.postings = [
            array("I", [nid for nid in arr if alive[nid]])
            for arr in self.postings
        ]
        self.dead_nodes = 0
