"""Per-node feature arrays consumed by the score upper bounds.

One flat array per feature, indexed by node id (slot), so the bound
evaluator reads a handful of ints per candidate instead of building (or
fetching) a full :class:`~repro.similarity.descriptors.Descriptor`.
Every feature is derived from the node's *immutable* description (name,
type, keywords), so rows are written once when a node is indexed and
never touched again; degree -- the one mutable input the bounds need --
is read live from the graph.

Strings the bounds compare exactly (type labels, initials) are interned
into a shared pool and stored as ids, letting query plans memoize exact
per-distinct-value measure evaluations (e.g. the full type-measure
family per distinct type id, acronym/initials matches per distinct
initials id).
"""

from __future__ import annotations

from array import array
from typing import Dict, List, Tuple

from repro.index.vocab import NO_TOKEN, Vocabulary
from repro.similarity.strings import initials, ngrams, rough_phonetic
from repro.textutil import tokenize_tuple

#: Flag bits in :attr:`NodeFeatures.flags`.
HAS_NUMBERS = 1
HAS_MEASUREMENT = 2

#: ``(attribute, array typecode)`` of every per-node column, in the order
#: the RKGS2 store lays them out (:mod:`repro.store.format`).
FEATURE_COLUMNS: Tuple[Tuple[str, str], ...] = (
    ("first_tid", "I"), ("last_tid", "I"), ("name_token_count", "I"),
    ("distinct_name_count", "I"), ("kw_count", "I"), ("name_len", "I"),
    ("bigram_count", "I"), ("trigram_count", "I"), ("phon_len", "I"),
    ("first_char", "I"), ("last_char", "I"), ("initials_id", "I"),
    ("type_id", "I"), ("flags", "B"),
)


class NodeFeatures:
    """Columnar per-node description features (see module doc)."""

    __slots__ = (
        "first_tid", "last_tid", "name_token_count", "distinct_name_count",
        "kw_count", "name_len", "bigram_count", "trigram_count", "phon_len",
        "first_char", "last_char", "initials_id", "type_id", "flags",
        "pool", "pool_strings",
    )

    def __init__(self) -> None:
        self.first_tid = array("I")
        self.last_tid = array("I")
        self.name_token_count = array("I")
        self.distinct_name_count = array("I")
        self.kw_count = array("I")
        self.name_len = array("I")
        self.bigram_count = array("I")
        self.trigram_count = array("I")
        self.phon_len = array("I")
        self.first_char = array("I")
        self.last_char = array("I")
        self.initials_id = array("I")
        self.type_id = array("I")
        self.flags = array("B")
        #: Shared intern pool for exact-compared strings (types, initials).
        self.pool: Dict[str, int] = {}
        self.pool_strings: List[str] = []

    def __len__(self) -> int:
        return len(self.flags)

    def intern(self, value: str) -> int:
        pid = self.pool.get(value)
        if pid is None:
            pid = len(self.pool_strings)
            self.pool[value] = pid
            self.pool_strings.append(value)
        return pid

    # ------------------------------------------------------------------
    def _append_blank(self) -> None:
        self.first_tid.append(NO_TOKEN)
        self.last_tid.append(NO_TOKEN)
        self.name_token_count.append(0)
        self.distinct_name_count.append(0)
        self.kw_count.append(0)
        self.name_len.append(0)
        self.bigram_count.append(0)
        self.trigram_count.append(0)
        self.phon_len.append(0)
        self.first_char.append(0)
        self.last_char.append(0)
        self.initials_id.append(NO_TOKEN)
        self.type_id.append(NO_TOKEN)
        self.flags.append(0)

    def grow(self, num_slots: int) -> None:
        """Pad with blank rows up to *num_slots* (tombstones stay blank)."""
        while len(self.flags) < num_slots:
            self._append_blank()

    def set_node(self, node_id: int, data, vocab: Vocabulary) -> None:
        """Fill node *node_id*'s row from its ``NodeData``.

        The derivations mirror ``Descriptor.__init__`` exactly -- the
        bounds must describe the same strings the measures will see.
        """
        self.grow(node_id + 1)
        name_lower = data.name.lower().strip()
        name_tokens = tokenize_tuple(data.name)
        if name_tokens:
            self.first_tid[node_id] = vocab.intern(name_tokens[0])
            self.last_tid[node_id] = vocab.intern(name_tokens[-1])
        self.name_token_count[node_id] = len(name_tokens)
        self.distinct_name_count[node_id] = len(set(name_tokens))
        self.kw_count[node_id] = len({
            t for kw in data.keywords for t in tokenize_tuple(kw)
        })
        self.name_len[node_id] = len(name_lower)
        self.bigram_count[node_id] = len(ngrams(name_lower, 2))
        self.trigram_count[node_id] = len(ngrams(name_lower, 3))
        self.phon_len[node_id] = len(rough_phonetic("".join(name_tokens)))
        if name_lower:
            self.first_char[node_id] = ord(name_lower[0])
            self.last_char[node_id] = ord(name_lower[-1])
        self.initials_id[node_id] = self.intern(initials(name_tokens))
        self.type_id[node_id] = self.intern(data.type)
        flags = 0
        if any(t.isdigit() for t in name_tokens):
            flags |= HAS_NUMBERS
        if any(name_tokens[i].isdigit()
               for i in range(len(name_tokens) - 1)):
            flags |= HAS_MEASUREMENT
        self.flags[node_id] = flags

    @classmethod
    def build(cls, graph, vocab: Vocabulary) -> "NodeFeatures":
        features = cls()
        for node_id in graph.nodes():
            features.set_node(node_id, graph._nodes[node_id], vocab)
        features.grow(graph.num_node_slots)
        return features
