"""Tests for ``repro.ann``: the two-stage semantic candidate tier."""

import pytest

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
from repro.query import Query
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
