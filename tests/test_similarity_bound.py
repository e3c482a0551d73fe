"""The query-bound scoring kernel against the plain catalog.

``bind_measures`` binds a query descriptor once and scores many data
descriptors; it must return *bit-identical* floats to summing
``weight * fn(q, d, ctx)`` over the catalog in order -- including the
terms it drops as provably zero and the results it memoizes across
data descriptors.  ``ScoringFunction`` keeps one such evaluator per
query descriptor, so their lifetime is part of the scorer's
correctness: a refresh that moves the corpus statistics must not
leave an evaluator with the old ones.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.similarity import ontology, scoring
from repro.similarity.descriptors import CorpusContext, Descriptor
from repro.similarity.functions import (
    EDGE_FUNCTIONS,
    NODE_FUNCTIONS,
    bind_measures,
)
from repro.similarity.scoring import (
    ScoringConfig,
    ScoringFunction,
    selected_edge_weights,
    selected_node_weights,
)
from tests.conftest import build_movie_graph

# Names chosen so every family fires somewhere: wildcards and empty
# names, numerals and <number> <unit> phrases, single-token acronyms of
# multi-token names, synonym and abbreviation table entries, typos.
NAMES = [
    "?", "", " ", "Brad Pitt", "brad", "Pitt Brad", "Brad Pit", "bp", "jj",
    "Jacob Jones", "J.J. Abrams", "Jeffrey Jacob Abrams", "jja",
    "teacher", "educator", "film award 1999", "1999", "2001 prize",
    "5 km", "5000 m", "3 kg run", "intl film corp", "international film",
    "univ", "University of Somewhere", "ABC", "a b c", "ÉCOLE normale",
]
TYPES = ["", "actor", "person", "director", "film", "movie", "Type Label", "!"]
KEYWORDS = [(), ("drama",), ("war", "film award"), ("brad",), ("1999", "km")]

descriptors = st.builds(
    Descriptor,
    st.sampled_from(NAMES),
    st.sampled_from(TYPES),
    st.sampled_from(KEYWORDS),
    st.integers(0, 40),
)

CTX = CorpusContext(
    idf={"brad": 0.5, "pitt": 0.75, "film": 0.125, "award": 0.3, "km": 0.9},
    max_degree=30,
)


def catalog_sum(catalog, weights, q, d, ctx):
    score = 0.0
    for name, fn in catalog:
        weight = weights.get(name)
        if weight is not None:
            score += weight * fn(q, d, ctx)
    return score


class TestBoundEvaluator:
    @settings(max_examples=300, deadline=None)
    @given(descriptors, st.lists(descriptors, min_size=1, max_size=6),
           st.booleans())
    def test_node_catalog_bit_identical(self, q, data, fast):
        weights = selected_node_weights(ScoringConfig(fast=fast))
        evaluate = bind_measures(NODE_FUNCTIONS, weights, q, CTX)
        # Twice over the same data: the second round answers from the
        # evaluator's token-pair and type memos.
        for d in data + data:
            assert evaluate(d) == catalog_sum(NODE_FUNCTIONS, weights, q, d, CTX)

    @given(descriptors, descriptors)
    def test_edge_catalog_bit_identical(self, q, d):
        weights = selected_edge_weights(ScoringConfig())
        evaluate = bind_measures(EDGE_FUNCTIONS, weights, q, CTX)
        assert evaluate(d) == catalog_sum(EDGE_FUNCTIONS, weights, q, d, CTX)

    def test_dropped_measures_by_query_shape(self):
        """What binding may skip, spelled out per query shape."""
        def dropped(q):
            return {name for name, fn in NODE_FUNCTIONS
                    if fn.bind(q, CTX) is None}

        plain = dropped(Descriptor("Brad Pitt"))
        assert plain == {
            "acronym_forward", "synonym_token", "type_exact", "type_synonym",
            "type_ontology", "type_subsumption", "type_token_overlap",
            "keyword_jaccard", "keyword_overlap", "keyword_in_name",
            "numeric_exact", "numeric_close", "unit_convert_match",
            "wildcard",
        }
        rich = dropped(Descriptor("teacher 5 km", "actor", ("drama",)))
        assert rich == {"acronym_forward", "wildcard"}
        assert "acronym_forward" not in dropped(Descriptor("bp"))
        assert "wildcard" not in dropped(Descriptor("?"))


class TestScorerUsesBoundEvaluators:
    @pytest.mark.parametrize("fast", [False, True])
    def test_node_score_is_clamped_catalog_sum(self, fast):
        g = build_movie_graph()
        scorer = ScoringFunction(g, ScoringConfig(fast=fast))
        for q in (Descriptor("Brad Pitt", "actor"), Descriptor("brad"),
                  Descriptor("award", "", ("war",)), Descriptor("bp")):
            for v in g.nodes():
                expected = catalog_sum(
                    NODE_FUNCTIONS, scorer.node_weights, q,
                    scorer.descriptors.get(v), scorer.corpus)
                assert scorer.node_score(q, v) == min(1.0, max(0.0, expected))

    def test_variable_node_formula(self):
        g = build_movie_graph()
        scorer = ScoringFunction(g)
        log_max = scorer.corpus.log_max_degree
        for q_type in ("", "director", "person"):
            q = Descriptor("?", q_type)
            for v in g.nodes():
                d = scorer.descriptors.get(v)
                expected = 0.4 + 0.2 * min(1.0, math.log1p(d.degree) / log_max)
                if q_type:
                    if ontology.is_subtype(d.type, q_type):
                        expected += 0.2
                    else:
                        expected -= 0.3
                assert scorer.node_score(q, v) == expected

    def test_binding_is_lazy_and_counted_per_miss(self):
        g = build_movie_graph()
        scorer = ScoringFunction(g)
        assert not scorer._evaluators  # nothing precomputed at build
        q = Descriptor("Brad Pitt")
        scorer.node_score(q, 0)
        scorer.node_score(q, 0)
        scorer.node_score(Descriptor("Brad Pitt"), 1)  # equal content
        assert scorer.node_score_calls == 2
        assert len(scorer._evaluators) == 1
        scorer.clear_cache()
        assert not scorer._evaluators

    def test_evaluator_table_is_bounded(self, monkeypatch):
        monkeypatch.setattr(scoring, "_EVALUATORS_MAX", 3)
        g = build_movie_graph()
        scorer = ScoringFunction(g)
        fresh = ScoringFunction(g)
        for i in range(10):
            q = Descriptor(f"Brad Pitt {i}")
            assert scorer.node_score(q, 0) == fresh.node_score(q, 0)
            assert len(scorer._evaluators) <= 3

    def test_refresh_rebinds_after_idf_moving_insert(self):
        """Evaluators hoist IDF and the degree normalizer: a refresh
        that rebuilds the corpus must drop them with the memos."""
        g = build_movie_graph()
        scorer = ScoringFunction(g)
        queries = [Descriptor("Brad Pitt", "actor"), Descriptor("award drama"),
                   Descriptor("?", "film")]
        before = [scorer.node_score(q, 0) for q in queries]
        hub = g.add_node("Brad Award", "actor", ["drama"])
        for v in range(8):
            g.add_edge(hub, v, "knows")  # moves max_degree too
        assert scorer.refresh() is True
        fresh = ScoringFunction(g)
        after = []
        for q in queries:
            for v in g.nodes():
                assert scorer.node_score(q, v) == fresh.node_score(q, v)
            after.append(scorer.node_score(q, 0))
        assert after != before  # the insert did move the statistics
