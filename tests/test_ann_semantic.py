"""Tests for ``repro.ann``: the two-stage semantic candidate tier."""

from array import array

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.ann import (
    DEFAULT_BAND_BITS,
    DEFAULT_BANDS,
    DEFAULT_DIM,
    DEFAULT_RERANK_PERCENTILE,
    DEFAULT_SEED,
    BandIndex,
    NgramEmbedder,
    SemanticTier,
    attach_semantic,
    build_columns,
    cosine,
    detach_semantic,
    hyperplanes,
    signatures,
)
from repro.core import Star, node_candidates
from repro.errors import SearchError
from repro.graph.generators import dbpedia_like
from repro.query import Query, parse_query
from repro.runtime.budget import Budget
from repro.similarity import ScoringConfig, ScoringFunction
from repro.store import open_graph, write_store

from tests.conftest import build_movie_graph

#: Out-of-vocabulary paraphrases score under the default 0.25 node
#: threshold (no token overlap -> only char-level evidence), so tier
#: tests run at the threshold the recall benchmark uses.
LOW = ScoringConfig(node_threshold=0.1)


def qnode(label, type=""):
    q = Query()
    q.add_node(label, type=type)
    return q.nodes[0]


# ----------------------------------------------------------------------
# Embedding kernel
# ----------------------------------------------------------------------
class TestNgramEmbedder:
    def test_deterministic_and_float32(self):
        emb = NgramEmbedder()
        a = emb.embed("Brad Pitt", "actor", ("drama",))
        b = emb.embed("Brad Pitt", "actor", ("drama",))
        assert a == b
        assert a.typecode == "f"
        assert len(a) == DEFAULT_DIM

    def test_normalized(self):
        vec = NgramEmbedder().embed("Brad Pitt", "actor", ())
        assert sum(x * x for x in vec) == pytest.approx(1.0, abs=1e-5)

    def test_empty_description_is_zero_vector(self):
        vec = NgramEmbedder().embed("", "", ())
        assert not any(vec)

    def test_paraphrase_nearer_than_stranger(self):
        emb = NgramEmbedder()
        brad = emb.embed("Brad Pitt", "actor", ())
        typo = emb.embed("bradpitt", "", ())
        other = emb.embed("Kathryn Bigelow", "director", ())
        assert cosine(typo, brad) > cosine(typo, other)

    def test_dim_validated(self):
        with pytest.raises(ValueError):
            NgramEmbedder(dim=4)


# ----------------------------------------------------------------------
# LSH band index
# ----------------------------------------------------------------------
class TestBandIndex:
    def test_hyperplanes_seed_determined(self):
        a = hyperplanes(16, 2, 4, seed=7)
        b = hyperplanes(16, 2, 4, seed=7)
        c = hyperplanes(16, 2, 4, seed=8)
        assert a == b
        assert a != c

    def test_planes_drawn_on_first_use(self):
        index = BandIndex(DEFAULT_DIM)
        assert index._planes is None
        vec = NgramEmbedder().embed("Boyhood", "film", ())
        sigs = index.signatures_of(vec)
        planes = hyperplanes(DEFAULT_DIM, DEFAULT_BANDS, DEFAULT_BAND_BITS,
                             DEFAULT_SEED)
        assert index.planes is index.planes == planes
        assert sigs == signatures(vec, planes, DEFAULT_BANDS,
                                  DEFAULT_BAND_BITS)
        # An engine whose tier never engages draws none.
        engine = Star(build_movie_graph())
        engine.search(parse_query("(Brad:actor) -[?]- (?:film)"), 2)
        assert engine.scorer.semantic_tier.index._planes is None

    def test_signature_range(self):
        planes = hyperplanes(DEFAULT_DIM, DEFAULT_BANDS, DEFAULT_BAND_BITS,
                             DEFAULT_SEED)
        vec = NgramEmbedder().embed("Boyhood", "film", ())
        sigs = signatures(vec, planes, DEFAULT_BANDS, DEFAULT_BAND_BITS)
        assert len(sigs) == DEFAULT_BANDS
        assert all(0 <= s < (1 << DEFAULT_BAND_BITS) for s in sigs)

    def test_probe_deterministic_and_sorted(self):
        g = build_movie_graph()
        vecs, sigs, alive = build_columns(g)
        index = BandIndex(DEFAULT_DIM)
        index.bind(vecs, sigs, alive, g.num_node_slots)
        qvec = NgramEmbedder().embed("bradpitt", "", ())
        a = index.probe(qvec, 10)
        b = index.probe(qvec, 10)
        assert a == b
        coss = [cos for cos, _ in a]
        assert coss == sorted(coss, reverse=True)
        assert all(cos > 0.0 for cos in coss)

    def test_probe_skips_dead_slots(self):
        g = build_movie_graph()
        vecs, sigs, alive = build_columns(g)
        index = BandIndex(DEFAULT_DIM)
        index.bind(vecs, sigs, alive, g.num_node_slots)
        qvec = NgramEmbedder().embed("bradpitt", "", ())
        assert any(nid == 0 for _, nid in index.probe(qvec, 10))
        alive[0] = 0  # tombstone Brad Pitt
        index.invalidate()
        assert all(nid != 0 for _, nid in index.probe(qvec, 10))

    def test_probe_respects_limit(self):
        g = build_movie_graph()
        vecs, sigs, alive = build_columns(g)
        index = BandIndex(DEFAULT_DIM)
        index.bind(vecs, sigs, alive, g.num_node_slots)
        qvec = NgramEmbedder().embed("a", "", ())
        assert len(index.probe(qvec, 2)) <= 2


# ----------------------------------------------------------------------
# SemanticTier: construction (when it engages: test_candidate_pipeline)
# ----------------------------------------------------------------------
class TestEngagement:
    def make(self, mode="auto"):
        g = build_movie_graph()
        scorer = ScoringFunction(g, LOW)
        tier = attach_semantic(scorer, mode=mode)
        return g, scorer, tier

    def test_mode_validated(self):
        g = build_movie_graph()
        for mode in ("always", "", None):
            with pytest.raises(ValueError, match="use_semantic mode"):
                SemanticTier(g, mode=mode)
        for mode in ("auto", "on", "off"):
            assert SemanticTier(g, mode=mode).mode == mode

    def test_attach_is_lazy(self):
        _, _, tier = self.make()
        assert not tier.built


# ----------------------------------------------------------------------
# SemanticTier: probe + exact rerank
# ----------------------------------------------------------------------
class TestAugment:
    def test_out_of_vocab_recovers_entity(self):
        g = build_movie_graph()
        scorer = ScoringFunction(g, LOW)
        tier = attach_semantic(scorer, mode="auto")
        # The token shortlist cannot see "bradpitt" (no shared token)...
        detach_semantic(scorer)
        assert node_candidates(scorer, qnode("bradpitt")) == []
        # ...but the tier probes it back and the exact rerank admits it.
        scorer.semantic_tier = tier
        cands = node_candidates(scorer, qnode("bradpitt"))
        assert cands and cands[0][0] == 0  # Brad Pitt

    def test_rerank_scores_are_exact(self):
        g = build_movie_graph()
        scorer = ScoringFunction(g, LOW)
        attach_semantic(scorer, mode="auto")
        q = qnode("bradpitt")
        for nid, score in node_candidates(scorer, q):
            assert score == scorer.node_score(q.descriptor, nid)
            assert score >= LOW.node_threshold

    def test_counters_move(self):
        g = build_movie_graph()
        scorer = ScoringFunction(g, LOW)
        tier = attach_semantic(scorer, mode="auto")
        node_candidates(scorer, qnode("bradpitt"))
        assert tier.probed > 0
        assert tier.reranked > 0
        assert tier.probed == tier.reranked + tier.skipped

    def test_percentile_skip_bounds_rerank(self):
        g = build_movie_graph()
        scorer = ScoringFunction(g, LOW)
        tier = attach_semantic(scorer, mode="auto")
        _, probed = tier.augment(scorer, qnode("linklater boyhood"), [])
        assert len(probed) > 1
        keep_n = max(1, len(probed)
                     - int(len(probed) * DEFAULT_RERANK_PERCENTILE))
        assert tier.reranked == keep_n < len(probed)
        assert tier.skipped == len(probed) - keep_n

    def test_exclude_and_scored_are_deduped(self):
        g = build_movie_graph()
        scorer = ScoringFunction(g, LOW)
        tier = attach_semantic(scorer, mode="on")
        extra, _ = tier.augment(
            scorer, qnode("bradpitt"), [(0, 0.9)], exclude=frozenset({1}))
        ids = {nid for nid, _ in extra}
        assert 0 not in ids and 1 not in ids

    def test_caller_budget_trip_is_not_internal_truncation(self):
        g = build_movie_graph()
        scorer = ScoringFunction(g, LOW)
        tier = attach_semantic(scorer, mode="on")
        budget = Budget(max_nodes=0, anytime=True)
        extra, probed = tier.augment(
            scorer, qnode("bradpitt"), [], budget=budget)
        assert extra == []
        assert probed  # the probe ran; the caller's budget stopped reranks
        assert tier.reranked == 0
        assert budget.exhausted

    def test_cache_token_tracks_configuration(self):
        g = build_movie_graph()
        a = SemanticTier(g)
        b = SemanticTier(g, mode="auto")
        c = SemanticTier(g, mode="on")
        assert a.cache_token == b.cache_token
        assert a.cache_token != c.cache_token


# ----------------------------------------------------------------------
# Delta-journal refresh
# ----------------------------------------------------------------------
class TestRefresh:
    def probe_ids(self, tier, name, type=""):
        # Probing with a node's exact description guarantees a bucket
        # hit (identical signatures), isolating refresh mechanics from
        # LSH recall probabilities.
        qvec = tier.embedder.embed(name, type, ())
        return {nid for _, nid in tier.index.probe(qvec, 16)}

    def test_added_node_becomes_probeable(self):
        g = build_movie_graph()
        tier = SemanticTier(g)
        tier.ensure_built()
        nid = g.add_node("Quentin Tarantino", "director")
        assert tier.refresh()
        assert nid in self.probe_ids(tier, "Quentin Tarantino", "director")
        assert tier.synced()

    def test_removed_node_is_tombstoned(self):
        g = build_movie_graph()
        tier = SemanticTier(g)
        tier.ensure_built()
        assert 0 in self.probe_ids(tier, "Brad Pitt", "actor")
        g.remove_node(0)
        assert tier.refresh()
        assert 0 not in self.probe_ids(tier, "Brad Pitt", "actor")

    def test_noop_when_synced(self):
        g = build_movie_graph()
        tier = SemanticTier(g)
        tier.ensure_built()
        assert not tier.refresh()


# ----------------------------------------------------------------------
# Engine integration
# ----------------------------------------------------------------------
class TestEngineIntegration:
    QUERY = "(?m:director) -[collaborated_with]- (Brad:actor)"

    def results(self, engine, k=3):
        from repro.query import parse_query
        return [
            (m.score, tuple(sorted(m.assignment.items())))
            for m in engine.search(parse_query(self.QUERY), k)
        ]

    def test_use_semantic_validated(self):
        with pytest.raises(SearchError):
            Star(build_movie_graph(), use_semantic="sometimes")

    def test_off_matches_detached_scorer(self):
        base = Star(build_movie_graph(), use_semantic="off")
        assert base.scorer.semantic_tier is None
        on = Star(build_movie_graph(), use_semantic="auto")
        assert on.scorer.semantic_tier is not None
        assert self.results(base) == self.results(on)

    def test_auto_is_invisible_in_vocabulary(self, movie_graph):
        # Every label in the query resolves through the token shortlist,
        # so auto never engages and results match the seed path exactly.
        off = Star(build_movie_graph(), use_semantic="off")
        auto = Star(build_movie_graph(), use_semantic="auto")
        assert self.results(off) == self.results(auto)
        assert auto.scorer.semantic_tier.probed == 0


# ----------------------------------------------------------------------
# Store-backed graphs: the tier embeds them in memory like any other
# ----------------------------------------------------------------------
class TestMmapTier:
    def test_parity_with_in_memory(self, tmp_path):
        store_path = tmp_path / "movies.rkgs2"
        write_store(build_movie_graph(), store_path)
        mem_scorer = ScoringFunction(build_movie_graph(), LOW)
        mem_tier = attach_semantic(mem_scorer, mode="on")
        mmap_scorer = ScoringFunction(open_graph(store_path), LOW)
        mmap_tier = attach_semantic(mmap_scorer, mode="on")
        q = qnode("bradpitt")
        via_mmap = mmap_tier.augment(mmap_scorer, q, [])
        assert via_mmap[0]
        assert mem_tier.augment(mem_scorer, q, []) == via_mmap


# ----------------------------------------------------------------------
# Sparse lanes: bit-identical to the dense loops they replaced
# ----------------------------------------------------------------------
def dense_signatures(vec, planes, bands, band_bits):
    """Reference: every lane of *vec* against every plane, in order."""
    sigs = []
    p = 0
    for _ in range(bands):
        sig = 0
        for _ in range(band_bits):
            plane = planes[p]
            p += 1
            dot = 0.0
            for i, v in enumerate(vec):
                dot += v * plane[i]
            sig = (sig << 1) | (1 if dot >= 0.0 else 0)
        sigs.append(sig)
    return sigs


def dense_probe(index, qvec, limit, multiprobe=True):
    """Reference: the probe with a full-width dot product per slot."""
    if index.slots == 0 or limit <= 0:
        return []
    tables = index._ensure_tables()
    qsigs = dense_signatures(qvec, index.planes, index.bands,
                             index.band_bits)
    hit_slots = set()
    for b, sig in enumerate(qsigs):
        table = tables[b]
        bucket = table.get(sig)
        if bucket:
            hit_slots.update(bucket)
        if multiprobe:
            for bit in range(index.band_bits):
                bucket = table.get(sig ^ (1 << bit))
                if bucket:
                    hit_slots.update(bucket)
    vecs = index.vecs
    ranked = []
    for slot in hit_slots:
        base = slot * index.dim
        dot = 0.0
        for i, q in enumerate(qvec):
            dot += q * vecs[base + i]
        if dot > 0.0:
            ranked.append((dot, slot))
    ranked.sort(key=lambda t: (-t[0], t[1]))
    return ranked[:limit]


#: float32 lanes: zeros of both signs heavily represented (a description
#: embeds to a dozen or two of the 64 lanes), unit-range values whose
#: sums round, and any finite float32.
LANE = st.one_of(
    st.just(0.0), st.just(-0.0),
    st.floats(-1.0, 1.0, width=32),
    st.floats(width=32, allow_nan=False, allow_infinity=False),
)


class TestSparseLanes:
    DIM, BANDS, BITS = 8, 3, 3

    @given(vec=st.lists(LANE, min_size=DIM, max_size=DIM),
           seed=st.integers(-1, 3))
    # Summed in lane order this is exactly -1.0; summed any other way,
    # +-0.0 (a sign bit that flips).
    @example(vec=[1e20, -1e20, -1.0] + [0.0] * 5, seed=-1)
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_signatures_equal_dense(self, vec, seed):
        # Seed -1: all-ones planes, under which lane sums cancel exactly.
        planes = ([[1.0] * self.DIM] * (self.BANDS * self.BITS)
                  if seed < 0 else
                  hyperplanes(self.DIM, self.BANDS, self.BITS, seed))
        for qvec in (array("f", vec), array("f", [0.0] * self.DIM)):
            assert signatures(qvec, planes, self.BANDS, self.BITS) == \
                dense_signatures(qvec, planes, self.BANDS, self.BITS)

    @given(rows=st.lists(st.lists(LANE, min_size=DIM, max_size=DIM),
                         min_size=1, max_size=12),
           alive=st.lists(st.booleans(), min_size=12, max_size=12),
           qvec=st.lists(LANE, min_size=DIM, max_size=DIM),
           limit=st.integers(0, 6),
           multiprobe=st.booleans())
    # A cosine of exactly 1.0 in lane order; 0.0 summed any other way.
    @example(rows=[[1.0] * DIM], alive=[True] * 12,
             qvec=[1e20, -1e20, 1.0] + [0.0] * 5, limit=1, multiprobe=True)
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_probe_equals_dense(self, rows, alive, qvec, limit, multiprobe):
        index = BandIndex(self.DIM, self.BANDS, self.BITS, seed=3)
        vecs = array("f", [x for row in rows for x in row])
        sigs = array("Q", [
            sig for row in rows
            for sig in dense_signatures(array("f", row), index.planes,
                                        self.BANDS, self.BITS)])
        index.bind(vecs, sigs, bytearray(alive[:len(rows)]), len(rows))
        for q in (array("f", qvec), array("f", [0.0] * self.DIM)):
            got = index.probe(q, limit, multiprobe)
            assert got == dense_probe(index, q, limit, multiprobe)

    def test_tier_columns_equal_dense_build(self):
        g = dbpedia_like(0.15, 7)
        vecs, sigs, alive = build_columns(g)
        embedder = NgramEmbedder(DEFAULT_DIM)
        planes = hyperplanes(DEFAULT_DIM, DEFAULT_BANDS, DEFAULT_BAND_BITS,
                             DEFAULT_SEED)
        ref_vecs = array("f", bytes(4 * DEFAULT_DIM * g.num_node_slots))
        ref_sigs = array("Q", bytes(8 * DEFAULT_BANDS * g.num_node_slots))
        ref_alive = bytearray(g.num_node_slots)
        for nid in g.nodes():
            data = g.node(nid)
            vec = embedder.embed(data.name, data.type, data.keywords)
            ref_vecs[nid * DEFAULT_DIM:(nid + 1) * DEFAULT_DIM] = vec
            ref_sigs[nid * DEFAULT_BANDS:(nid + 1) * DEFAULT_BANDS] = array(
                "Q", dense_signatures(vec, planes, DEFAULT_BANDS,
                                      DEFAULT_BAND_BITS))
            ref_alive[nid] = 1
        assert vecs.tobytes() == ref_vecs.tobytes()
        assert sigs.tobytes() == ref_sigs.tobytes()
        assert alive == ref_alive


class _Unreadable:
    """A column that fails the test if anything reads it."""

    def __getitem__(self, index):
        raise AssertionError(f"column read at {index}")


class TestZeroVector:
    def test_probe_reads_no_bucket(self):
        index = BandIndex(DEFAULT_DIM)
        index.bind(_Unreadable(), _Unreadable(), _Unreadable(), 4)
        zero = NgramEmbedder().embed("", "", ())
        assert not any(zero)
        assert index.probe(zero, 10) == []
        assert index._tables is None

    def test_augment_of_featureless_label_probes_nothing(self):
        scorer = ScoringFunction(build_movie_graph(), LOW)
        tier = attach_semantic(scorer, mode="on")
        assert tier.augment(scorer, qnode("  "), []) == ([], frozenset())
        assert tier.index._tables is None
        assert tier.probed == 0
