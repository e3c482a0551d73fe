"""Differential fuzzing: engines vs the brute-force oracle, traced or not.

Satellite of the observability PR: Hypothesis generates random graphs and
queries; every engine's top-k must match ``brute_force`` in score *and*
assignment (tie-tolerantly, via :mod:`tests.oracle`) with metrics
**disabled and enabled** -- and the two modes must return identical
results, proving instrumentation never perturbs search behavior.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro import obs
from repro.query import star_query

from tests.conftest import scorer_for, star_of, triangle_query
from tests.oracle import (
    assert_against_oracle,
    assert_same_results,
    run_algorithm,
)

def check_both_modes(name, scorer, query, k, d=1, **opts):
    """Oracle-check with metrics off, then on; results must be identical."""
    got_off, _full = assert_against_oracle(
        name, scorer, query, k, d=d, **opts
    )
    with obs.capture() as tracer:
        got_on, _full = assert_against_oracle(
            name, scorer, query, k, d=d, **opts
        )
    assert_same_results(got_on, got_off)
    return tracer, got_on


class TestStarkDifferential:
    @given(
        seed=st.integers(min_value=0, max_value=50),
        size_choice=st.integers(min_value=0, max_value=2),
        k=st.integers(min_value=1, max_value=6),
    )
    @settings(max_examples=25, deadline=None)
    def test_stark_matches_oracle_traced_and_untraced(
        self, seed, size_choice, k
    ):
        scorer = scorer_for(seed)
        tracer, got = check_both_modes(
            "stark", scorer, star_of(size_choice), k, d=1
        )
        if got:  # a non-empty traced search must have produced spans
            assert any(
                span.name == "stark.search" for span in tracer.roots
            )


class TestStardDifferential:
    @given(
        seed=st.integers(min_value=0, max_value=40),
        size_choice=st.integers(min_value=0, max_value=2),
        k=st.integers(min_value=1, max_value=5),
        d=st.integers(min_value=2, max_value=3),
    )
    @settings(max_examples=20, deadline=None)
    def test_stard_matches_oracle_traced_and_untraced(
        self, seed, size_choice, k, d
    ):
        scorer = scorer_for(seed)
        tracer, got = check_both_modes(
            "stard", scorer, star_of(size_choice), k, d=d
        )
        if got:
            assert any(
                span.name == "stard.search" for span in tracer.roots
            )


class TestStarjoinDifferential:
    @given(
        seed=st.integers(min_value=0, max_value=40),
        k=st.integers(min_value=1, max_value=4),
        alpha=st.sampled_from([0.1, 0.5, 0.9]),
    )
    @settings(max_examples=20, deadline=None)
    def test_starjoin_matches_oracle_traced_and_untraced(
        self, seed, k, alpha
    ):
        scorer = scorer_for(seed)
        tracer, got = check_both_modes(
            "starjoin", scorer, triangle_query(), k, d=1, alpha=alpha
        )
        if got:
            assert any(
                span.name == "starjoin.join" for span in tracer.roots
            )


class TestTracingNeverChangesResults:
    """Focused non-Hypothesis spot check on a denser fixture graph."""

    @pytest.mark.parametrize("name,d", [("stark", 1), ("stard", 2)])
    def test_modes_identical_on_dense_graph(self, dense_scorer, name, d):
        star = star_query(
            "?", [("acted_in", "?"), ("born_in", "?")],
            pivot_type="actor",
        )
        plain = run_algorithm(name, dense_scorer, star, 5, d=d)
        assert plain, "spot check must exercise a non-empty result"
        with obs.capture():
            traced = run_algorithm(name, dense_scorer, star, 5, d=d)
        assert_same_results(traced, plain)
