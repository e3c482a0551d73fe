"""Random-hyperplane LSH over the embedding columns.

Classic SimHash banding (Charikar 2002): each node's vector is reduced
to ``bands`` signatures of ``band_bits`` sign bits; two vectors whose
angle is small agree on at least one whole band with high probability.
Probing hashes the query the same way, gathers every node sharing a
band bucket (plus 1-bit-flip multiprobe neighbors for recall), and
ranks the union by exact cosine against the stored columns.

Everything here is deterministic: hyperplanes come from a seeded
``random.Random`` (drawn on first use, in one fixed order), bucket
tables are built by ascending node id, and probe results sort by
``(-cosine, node_id)``.

Dot products run over the query side's non-zero *lanes* only
(:func:`lanes`): a description embeds to a dozen or two of the 64
lanes.  Skipping a zero lane is bit-identical to adding its term: the
term is a signed zero, adding a signed zero to a running double leaves
it unchanged, and the sum starts at ``+0.0`` and never becomes
``-0.0`` (round-to-nearest turns an exact cancellation into ``+0.0``),
so every sign test and cosine reads the same bits as the dense loop.
The other factor must be finite (a zero lane times an infinity is a
NaN); planes are Gaussian draws and stored vectors are normalised.
Summation stays a plain left-to-right loop in ascending lane order --
``sum()`` of floats is compensated from Python 3.12 on and BLAS
reorders, either of which would change the bits.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence, Tuple

#: Default banding: 8 bands x 8 bits keeps per-bucket occupancy tiny on
#: graphs up to ~10^5 nodes while still matching paraphrases whose
#: cosine is well under 1.0 (one agreeing band out of 8 suffices).
DEFAULT_BANDS = 8
DEFAULT_BAND_BITS = 8
DEFAULT_SEED = 0x5EED


def hyperplanes(dim: int, bands: int, band_bits: int,
                seed: int) -> List[List[float]]:
    """The ``bands * band_bits`` Gaussian hyperplanes, seed-determined.

    Data side and query side share one :class:`BandIndex`, so node and
    query signatures come from the same planes.
    """
    rng = random.Random(seed)
    return [
        [rng.gauss(0.0, 1.0) for _ in range(dim)]
        for _ in range(bands * band_bits)
    ]


def lanes(vec: Sequence[float]) -> List[Tuple[int, float]]:
    """``(lane, value)`` of every non-zero lane of *vec*, ascending."""
    return [(i, v) for i, v in enumerate(vec) if v]


def signatures(vec: Sequence[float], planes: List[List[float]],
               bands: int, band_bits: int) -> List[int]:
    """Per-band sign-bit signatures of one vector (ints in [0, 2^bits))."""
    return _lane_signatures(lanes(vec), planes, bands, band_bits)


def _lane_signatures(nonzero: List[Tuple[int, float]],
                     planes: List[List[float]], bands: int,
                     band_bits: int) -> List[int]:
    sigs: List[int] = []
    p = 0
    for _ in range(bands):
        sig = 0
        for _ in range(band_bits):
            plane = planes[p]
            p += 1
            dot = 0.0
            for i, v in nonzero:
                dot += v * plane[i]
            sig = (sig << 1) | (1 if dot >= 0.0 else 0)
        sigs.append(sig)
    return sigs


def cosine(a: Sequence[float], b: Sequence[float]) -> float:
    """Dot product -- vectors are L2-normalized at embedding time."""
    dot = 0.0
    for i, x in enumerate(a):
        dot += x * b[i]
    return dot


class BandIndex:
    """Bucketed LSH signatures plus exact-cosine probe ranking.

    The index does not own its data: ``vecs`` is any flat float sequence
    of ``slots * dim`` values and ``sigs`` any flat int sequence of
    ``slots * bands`` band signatures.  ``alive`` maps slot -> liveness;
    dead slots (tombstoned nodes) never leave a probe.

    Bucket tables are rebuilt lazily from the flat signature column --
    iterating slots in ascending order -- whenever the owner marks them
    dirty, so bucket list order (and therefore probe order under cosine
    ties) is a pure function of the column contents.
    """

    __slots__ = ("dim", "bands", "band_bits", "seed", "_planes",
                 "vecs", "sigs", "alive", "slots", "_tables")

    def __init__(self, dim: int, bands: int = DEFAULT_BANDS,
                 band_bits: int = DEFAULT_BAND_BITS,
                 seed: int = DEFAULT_SEED) -> None:
        if bands < 1 or band_bits < 1 or band_bits > 32:
            raise ValueError(
                f"bad banding: bands={bands} band_bits={band_bits}")
        self.dim = dim
        self.bands = bands
        self.band_bits = band_bits
        self.seed = seed
        self._planes: Optional[List[List[float]]] = None
        self.vecs: Sequence[float] = ()
        self.sigs: Sequence[int] = ()
        self.alive: Sequence[int] = ()
        self.slots = 0
        self._tables: Optional[List[Dict[int, List[int]]]] = None

    @property
    def planes(self) -> List[List[float]]:
        """The hyperplanes, drawn on first use: an index that never
        signs a vector (a tier that never engages) draws none."""
        if self._planes is None:
            self._planes = hyperplanes(self.dim, self.bands,
                                       self.band_bits, self.seed)
        return self._planes

    # ------------------------------------------------------------------
    def bind(self, vecs: Sequence[float], sigs: Sequence[int],
             alive: Sequence[int], slots: int) -> None:
        """Point the index at (possibly new) backing columns."""
        self.vecs = vecs
        self.sigs = sigs
        self.alive = alive
        self.slots = slots
        self._tables = None

    def invalidate(self) -> None:
        """Drop bucket tables; they rebuild on the next probe."""
        self._tables = None

    def signatures_of(self, vec: Sequence[float]) -> List[int]:
        return signatures(vec, self.planes, self.bands, self.band_bits)

    def _ensure_tables(self) -> List[Dict[int, List[int]]]:
        tables = self._tables
        if tables is None:
            tables = [dict() for _ in range(self.bands)]
            sigs = self.sigs
            alive = self.alive
            bands = self.bands
            for slot in range(self.slots):
                if not alive[slot]:
                    continue
                base = slot * bands
                for b in range(bands):
                    tables[b].setdefault(sigs[base + b], []).append(slot)
            self._tables = tables
        return tables

    # ------------------------------------------------------------------
    def probe(self, qvec: Sequence[float], limit: int,
              multiprobe: bool = True) -> List[Tuple[float, int]]:
        """Nearest stored slots to *qvec* by exact cosine.

        Gathers every slot sharing a band bucket with the query (and,
        with *multiprobe*, every bucket one sign-bit away -- the
        standard recall boost that costs ``bands * band_bits`` extra
        dict lookups, not a second pass over the data).  Candidates are
        then ranked by exact cosine over the stored columns and
        truncated to *limit*.  Only strictly positive cosines return:
        a non-positive angle carries no paraphrase evidence -- so the
        zero vector (a description with no features) returns ``[]``
        before any bucket is read.

        Returns ``[(cos, slot), ...]`` sorted by ``(-cos, slot)``.
        """
        nonzero = lanes(qvec)
        if self.slots == 0 or limit <= 0 or not nonzero:
            return []
        tables = self._ensure_tables()
        qsigs = _lane_signatures(nonzero, self.planes, self.bands,
                                 self.band_bits)
        hit_slots: set = set()
        for b, sig in enumerate(qsigs):
            table = tables[b]
            bucket = table.get(sig)
            if bucket:
                hit_slots.update(bucket)
            if multiprobe:
                for bit in range(self.band_bits):
                    bucket = table.get(sig ^ (1 << bit))
                    if bucket:
                        hit_slots.update(bucket)
        if not hit_slots:
            return []
        vecs = self.vecs
        dim = self.dim
        ranked: List[Tuple[float, int]] = []
        for slot in hit_slots:
            base = slot * dim
            dot = 0.0
            for i, q in nonzero:
                dot += q * vecs[base + i]
            if dot > 0.0:
                ranked.append((dot, slot))
        ranked.sort(key=lambda t: (-t[0], t[1]))
        if len(ranked) > limit:
            ranked = ranked[:limit]
        return ranked

    def __repr__(self) -> str:
        return (f"BandIndex(dim={self.dim}, bands={self.bands}, "
                f"band_bits={self.band_bits}, slots={self.slots})")
