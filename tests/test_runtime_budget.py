"""Budget / anytime-search contract tests for the runtime layer."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import BeliefPropagation, GraphTA, brute_force_star
from repro.core import (
    Star,
    StarDSearch,
    StarJoin,
    StarKSearch,
)
from repro.core.rankmerge import ScoredPool
from repro.core.stark import _MIN_PIVOTS_AFTER_TRIP
from repro.errors import (
    BudgetExceededError,
    InjectedFaultError,
    SearchError,
    SearchTimeoutError,
)
from repro.graph.generators import dbpedia_like
from repro.perf import attach_cache
from repro.query import Query, StarQuery, decompose, star_query, star_workload
from repro.query.parser import parse_query
from repro.runtime import (
    MAX_DEGRADE_LEVEL,
    MODES,
    REASON_DEADLINE,
    REASON_FAULT,
    REASON_JOIN_STEPS,
    REASON_MESSAGES,
    REASON_NODES,
    SLO_CLASSES,
    Budget,
    FaultSpec,
    SearchReport,
    derive_budget_spec,
    faulty,
)
from repro.runtime.faults import FaultInjector, FaultyScorer
from repro.similarity import ScoringFunction

from tests.join_oracle import ReferenceJoin


class FakeClock:
    """Deterministic monotonic clock for deadline tests."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class TestBudgetUnit:
    def test_negative_limits_rejected(self):
        for kwargs in (
            {"deadline_ms": -1},
            {"max_nodes": -1},
            {"max_messages": -5},
            {"max_join_steps": -2},
        ):
            with pytest.raises(SearchError):
                Budget(**kwargs)

    def test_unlimited_budget_never_trips(self):
        b = Budget()
        for _ in range(1000):
            assert not b.charge_nodes()
        assert not b.check()
        assert b.exceeded_reason is None

    def test_node_cap_strict_raises(self):
        b = Budget(max_nodes=3)
        for _ in range(3):
            assert not b.charge_nodes()
        with pytest.raises(BudgetExceededError):
            b.charge_nodes()
        assert b.exceeded_reason == REASON_NODES

    def test_node_cap_anytime_returns_true_and_sticks(self):
        b = Budget(max_nodes=2, anytime=True)
        assert not b.charge_nodes()
        assert not b.charge_nodes()
        assert b.charge_nodes()
        # Sticky: every later charge (of any kind) reports exhaustion.
        assert b.charge_messages()
        assert b.charge_join_steps()
        assert b.check()

    def test_deadline_strict_raises_timeout_subclass(self):
        clock = FakeClock()
        b = Budget(deadline_ms=10, clock=clock)
        assert not b.check()
        clock.advance(0.011)
        with pytest.raises(SearchTimeoutError):
            b.check()
        # SearchTimeoutError is catchable as BudgetExceededError.
        assert issubclass(SearchTimeoutError, BudgetExceededError)

    def test_deadline_zero_trips_first_checkpoint(self):
        b = Budget(deadline_ms=0, anytime=True)
        assert b.check()
        assert b.exceeded_reason == REASON_DEADLINE

    def test_out_of_time_ignores_counter_trips(self):
        clock = FakeClock()
        b = Budget(deadline_ms=1000, max_nodes=1, anytime=True, clock=clock)
        b.charge_nodes()
        assert b.charge_nodes()  # tripped on nodes
        assert not b.out_of_time()  # but wall clock is fine: keep draining
        clock.advance(1.5)
        assert b.out_of_time()

    def test_start_rearms(self):
        b = Budget(max_nodes=1, anytime=True)
        b.charge_nodes()
        assert b.charge_nodes()
        b.start()
        assert b.exceeded_reason is None
        assert b.nodes_visited == 0
        assert not b.charge_nodes()

    def test_report_from_budget(self):
        b = Budget(max_nodes=1, anytime=True)
        b.charge_nodes()
        b.charge_nodes()
        report = SearchReport.from_budget("stark", b, 2)
        assert not report.completed
        assert report.degraded
        assert report.reason == REASON_NODES
        assert report.matches_returned == 2
        assert "incomplete" in report.summary()

    def test_report_flags_faults_without_trip(self):
        b = Budget(anytime=True)
        b.record_fault("scorer exploded")
        report = SearchReport.from_budget("stard", b, 1)
        assert not report.completed
        assert report.reason == REASON_FAULT
        assert report.faults == ["scorer exploded"]

    def test_report_without_budget_is_complete(self):
        report = SearchReport.from_budget("stark", None, 3)
        assert report.completed
        assert not report.degraded


class TestAlphaValidation:
    def test_star_rejects_alpha_outside_unit_interval(self, movie_graph):
        for alpha in (-0.1, 1.5):
            with pytest.raises(SearchError):
                Star(movie_graph, alpha=alpha)

    def test_star_accepts_boundary_alphas(self, movie_graph):
        for alpha in (0.0, 0.5, 1.0):
            Star(movie_graph, alpha=alpha)


def _star():
    return star_query("Brad", [("acted_in", "?")], pivot_type="actor")


#: Every arm of the one Lemma-1 pivot loop:
#: ``(matcher class, d, SearchReport.algorithm)``.
PROCEDURES = [
    (StarKSearch, 1, "stark"), (StarKSearch, 2, "stark"),
    (StarDSearch, 2, "stard"),
]


def _general_query():
    q = Query(name="general")
    a = q.add_node("Brad", type="actor")
    f = q.add_node("?", type="film")
    d = q.add_node("?", type="director")
    q.add_edge(a, f, "acted_in")
    q.add_edge(d, f, "directed")
    return q


def _cycle_query():
    # A 4-cycle cannot be covered by one star: forces the join path.
    q = Query(name="cycle4")
    for i in range(4):
        q.add_node("?")
    for i in range(4):
        q.add_edge(i, (i + 1) % 4)
    return q


class TestEngineBudgets:
    def test_stark_strict_trip_raises_with_report(self, movie_scorer):
        for cls, d, name in PROCEDURES:
            matcher = cls(movie_scorer, d=d)
            with pytest.raises(BudgetExceededError) as info:
                matcher.search(_star(), 3, budget=Budget(max_nodes=1))
            assert info.value.report is not None
            assert info.value.report.algorithm == name
            assert not info.value.report.completed

    def test_stark_anytime_flags_partial(self, movie_scorer):
        for cls, d, name in PROCEDURES:
            matcher = cls(movie_scorer, d=d)
            budget = Budget(max_nodes=1, anytime=True)
            got = matcher.search(_star(), 3, budget=budget)
            report = matcher.last_report
            assert report.algorithm == name
            assert not report.completed
            assert report.reason == REASON_NODES
            scores = [m.score for m in got]
            assert scores == sorted(scores, reverse=True)

    def test_stark_unbudgeted_report_is_complete(self, movie_scorer):
        matcher = StarKSearch(movie_scorer)
        got = matcher.search(_star(), 3)
        assert matcher.last_report.completed
        assert matcher.last_report.matches_returned == len(got)

    def test_stard_anytime_message_cap(self, movie_scorer):
        matcher = StarDSearch(movie_scorer, d=2)
        budget = Budget(max_messages=2, anytime=True)
        matcher.search(_star(), 3, budget=budget)
        assert not matcher.last_report.completed

    def test_stard_scores_no_leaf_outside_the_budget(
        self, yago_graph, monkeypatch
    ):
        """A trip while the seeds are being scored: the exact phase must
        reuse the seeded candidates, not rescore the whole leaf
        shortlist with no budget (as it did while ``_plan`` left the
        provider's ``leaf_maps`` unset)."""
        from repro.core import stard, stark
        from repro.core.candidates import node_candidates
        from repro.core.messages import propagate
        from repro.similarity import ScoringFunction

        def neighbor_types(n):
            return sorted({yago_graph.node(v).type
                           for v, _eid in yago_graph.neighbors(n)})

        # "person" has the widest shortlist (every subtype counts).
        pivot = next(n for n in yago_graph.nodes()
                     if "person" in neighbor_types(n)
                     and len(neighbor_types(n)) >= 2)
        other = next(t for t in neighbor_types(pivot) if t != "person")
        star = star_query(yago_graph.node(pivot).name,
                          [("?", "?"), ("?", "?")],
                          leaf_types=["person", other])

        budgets, seeded, provided = [], [], []

        def spy_candidates(scorer, qnode, **kwargs):
            budgets.append(kwargs.get("budget"))
            return node_candidates(scorer, qnode, **kwargs)

        def spy_propagate(graph, seeds, d, **kwargs):
            seeded.append(seeds)
            return propagate(graph, seeds, d, **kwargs)

        def spy_provider(*args, **kwargs):
            provided.extend(kwargs["leaf_maps"] or ())
            return stark.bounded_leaf_provider(*args, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(stark, "node_candidates", spy_candidates)
            patch.setattr(stard, "propagate", spy_propagate)
            patch.setattr(stard, "bounded_leaf_provider", spy_provider)
            cold = ScoringFunction(yago_graph)
            matcher = StarDSearch(cold, d=2)
            budget = Budget(max_nodes=20, anytime=True)
            got = matcher.search(star, 5, budget=budget)
            tripped_calls = cold.node_score_calls

        assert budget.exceeded_reason == REASON_NODES
        assert not matcher.last_report.completed
        assert got  # minimum-progress floor
        assert budgets and all(b is budget for b in budgets)
        assert [id(m) for m in provided] == [id(m) for m in seeded]
        unbudgeted = ScoringFunction(yago_graph)
        StarDSearch(unbudgeted, d=2).search(star, 5)
        assert tripped_calls < unbudgeted.node_score_calls

    def test_stard_strict_deadline_zero(self, movie_scorer):
        matcher = StarDSearch(movie_scorer, d=2)
        with pytest.raises(SearchTimeoutError):
            matcher.search(_star(), 3, budget=Budget(deadline_ms=0))

    def test_framework_star_query(self, movie_graph, movie_scorer):
        engine = Star(movie_graph, scorer=movie_scorer)
        budget = Budget(deadline_ms=0, anytime=True)
        engine.search(_star(), 3, budget=budget)
        assert engine.last_report is not None
        assert not engine.last_report.completed
        assert engine.last_report.reason == REASON_DEADLINE

    def test_framework_single_star_budget(self, movie_graph, movie_scorer):
        # This query decomposes into one star: the framework should take
        # the star path and still honour the budget.
        engine = Star(movie_graph, scorer=movie_scorer)
        exact = engine.search(_general_query(), 3)
        budget = Budget(max_nodes=1, anytime=True)
        got = engine.search(_general_query(), 3, budget=budget)
        assert not engine.last_report.completed
        assert len(got) <= len(exact)

    def test_framework_join_query_shares_budget(self, yago_graph, yago_scorer):
        engine = Star(yago_graph, scorer=yago_scorer)
        budget = Budget(max_join_steps=1, anytime=True)
        engine.search(_cycle_query(), 3, budget=budget)
        assert engine.last_report.algorithm == "starjoin"
        assert not engine.last_report.completed

    def test_framework_join_strict_raises(self, yago_graph, yago_scorer):
        engine = Star(yago_graph, scorer=yago_scorer)
        with pytest.raises(BudgetExceededError):
            engine.search(_cycle_query(), 3, budget=Budget(max_join_steps=1))

    def test_framework_join_strict_trip_keeps_depth(
        self, yago_graph, yago_scorer
    ):
        # The trip unwinds out of the join; the depth read so far and
        # the attempts made must still reach the stats.
        engine = Star(yago_graph, scorer=yago_scorer)
        budget = Budget(max_join_steps=1)
        with pytest.raises(BudgetExceededError):
            engine.search(_cycle_query(), 3, budget=budget)
        stats = engine.last_engine_stats
        assert stats.join_depth >= 2  # one fetch per star, at least
        assert stats.joins_attempted == 1
        assert budget.join_steps == 2  # the tripping charge included

    def test_graphta_budget(self, movie_scorer):
        matcher = GraphTA(movie_scorer)
        budget = Budget(max_nodes=5, anytime=True)
        got = matcher.search(_general_query(), 3, budget=budget)
        assert not matcher.last_report.completed
        scores = [m.score for m in got]
        assert scores == sorted(scores, reverse=True)
        with pytest.raises(BudgetExceededError):
            matcher.search(_general_query(), 3, budget=Budget(max_nodes=5))

    def test_bp_budget(self, movie_scorer):
        matcher = BeliefPropagation(movie_scorer)
        budget = Budget(max_messages=3, anytime=True)
        got = matcher.search(_general_query(), 3, budget=budget)
        assert not matcher.last_report.completed
        for m in got:
            assert m.is_injective()
        with pytest.raises(BudgetExceededError):
            matcher.search(_general_query(), 3, budget=Budget(max_messages=3))

    def test_generous_budget_matches_exact(self, movie_scorer):
        exact = StarKSearch(movie_scorer).search(_star(), 3)
        matcher = StarKSearch(movie_scorer)
        budget = Budget(deadline_ms=60_000, max_nodes=1_000_000, anytime=True)
        got = matcher.search(_star(), 3, budget=budget)
        assert matcher.last_report.completed
        assert [m.score for m in got] == pytest.approx(
            [m.score for m in exact]
        )


def _yago_stars(yago_graph):
    return [StarQuery.from_query(query)
            for query in star_workload(yago_graph, 6, seed=54)]


class TestD1ReadPass:
    """At d=1 the plan bounds every pivot off the id columns, and the
    loop reads a pivot's row only when its column bound reaches the head
    of the queue: the node charge, the trip and the fault contract sit
    at the row read."""

    #: ``budget.nodes_visited`` of an untripped run per star, less one
    #: per row read: the nodes charged while the candidates were scored.
    SCORED = [271, 169, 169, 114, 172, 508]
    #: Rows read per star, one node charged each.
    ROWS = [2, 1, 5, 4, 1, 3]

    @pytest.mark.parametrize("cls", [StarKSearch, StarDSearch])
    def test_untripped_run_charges_what_the_loop_charged(
        self, yago_graph, cls
    ):
        scored, rows = [], []
        for star in _yago_stars(yago_graph):
            matcher = cls(ScoringFunction(yago_graph), d=1)
            budget = Budget(max_nodes=10 ** 9, anytime=True)
            matcher.search(star, 5, budget=budget)
            assert matcher.last_report.completed
            scored.append(budget.nodes_visited - matcher.stats.rows_read)
            rows.append(matcher.stats.rows_read)
        assert scored == self.SCORED
        assert rows == self.ROWS

    @staticmethod
    def column_order(scorer, star):
        """The pivot candidates by decreasing column bound, candidate
        order among equals: the order the loop reads rows in."""
        plan = StarKSearch(scorer)._plan(star, {}, None)
        return [plan.pivots[index][0] for _neg, index in sorted(
            (-bound, index) for index, bound in enumerate(plan.bounds)
            if bound is not None)]

    def test_anytime_trip_is_flagged_and_answers(self, yago_graph):
        star = _yago_stars(yago_graph)[3]
        scorer = ScoringFunction(yago_graph)
        full = Budget(max_nodes=10 ** 9, anytime=True)
        exact = StarKSearch(scorer).search(star, 5, budget=full)
        pivots = StarKSearch(scorer)._pivot_candidates(star)
        assert len(pivots) > 2 * _MIN_PIVOTS_AFTER_TRIP
        read = self.ROWS[3]
        assert full.nodes_visited == self.SCORED[3] + read
        # One cap trips while candidates are scored, one halfway
        # through the rows the untripped run reads.
        for max_nodes in (len(pivots) - 1, self.SCORED[3] + read // 2):
            injector = FaultInjector([])  # counts the adjacency reads
            matcher = StarKSearch(FaultyScorer(scorer, injector))
            budget = Budget(max_nodes=max_nodes, anytime=True)
            got = matcher.search(star, 5, budget=budget)
            assert matcher.last_report.reason == REASON_NODES
            assert got
            scores = [m.score for m in got]
            assert scores == sorted(scores, reverse=True)
            assert scores[0] <= exact[0].score + 1e-9
        # The trip stopped the reading: the columns were read once, then
        # the rows of as many pivots as the cap left nodes for, one node
        # each (the charge that tripped read nothing).
        assert matcher.stats.rows_read == read // 2
        assert injector.calls["graph.neighbors"] == 1 + read // 2
        assert budget.nodes_visited == max_nodes + 1

    def test_a_trip_reads_the_best_column_bounded_rows(
        self, yago_graph, monkeypatch
    ):
        """Under a tripping node budget the rows read are those of the
        best column-bounded pivots, in bound order: a deadline trip
        returns the best-bounded prefix, not the candidate-order one."""
        scorer = ScoringFunction(yago_graph)
        rows = yago_graph.grouped_relations
        reads = []

        def counting_rows(node_id, orientation=0):
            reads.append(node_id)
            return rows(node_id, orientation)

        # rows read by the time the rescue starts, if it does
        rescued = []
        rescue = StarKSearch._anytime_rescue

        def counting_rescue(self, *args):
            rescued.append(len(reads))
            return rescue(self, *args)

        monkeypatch.setattr(yago_graph, "grouped_relations", counting_rows)
        monkeypatch.setattr(StarKSearch, "_anytime_rescue", counting_rescue)
        tripped = 0
        for at, star in enumerate(_yago_stars(yago_graph)):
            order = self.column_order(scorer, star)
            for cap in range(self.ROWS[at] + 1):
                del reads[:], rescued[:]
                matcher = StarKSearch(scorer)
                budget = Budget(max_nodes=self.SCORED[at] + cap,
                                anytime=True)
                got = matcher.search(star, 5, budget=budget)
                assert reads[:cap] == order[:cap]
                # past those, only the rescue reads rows
                assert rescued in ([], [cap])
                if len(reads) > cap:
                    assert rescued == [cap]
                if cap < self.ROWS[at]:
                    assert matcher.last_report.reason == REASON_NODES
                    tripped += bool(got)
                else:
                    assert matcher.last_report.completed
                    assert not rescued and len(reads) == cap
        assert tripped >= 5

    def test_row_fault_skips_that_pivot_only(self, yago_graph):
        star = _yago_stars(yago_graph)[3]
        scorer = ScoringFunction(yago_graph)
        # The columns are call #0 of the adjacency fault point; rows are
        # read in column-bound order after them: call #2 is the second.
        lost = self.column_order(scorer, star)[1]
        spec = FaultSpec("graph.neighbors", at_call=2)
        matcher = StarKSearch(faulty(scorer, [spec]))
        got = matcher.search(star, 5, budget=Budget(anytime=True))
        report = matcher.last_report
        assert report.reason == REASON_FAULT
        assert report.faults == [
            f"pivot {lost}: injected fault at graph.neighbors call #2"]
        scope = set(yago_graph.nodes()) - {lost}
        want = StarKSearch(scorer, pivot_scope=scope).search(star, 5)
        assert [(m.score, m.key()) for m in got] == [
            (m.score, m.key()) for m in want]
        with pytest.raises(InjectedFaultError):
            StarKSearch(faulty(scorer, [spec])).search(star, 5)


class TestD2RowPass:
    """At d >= 2 the plan bounds every pivot off the id columns and the
    pulled last propagation round; a pivot whose column bound reaches
    the head of the queue has its grouped row read for its row bound.
    Messages are charged as a pushed round is, and a row read charges
    the pulled messages it holds; nodes one per evaluated pivot; a trip
    stops the reading, and a row fault costs that pivot alone."""

    #: ``budget.messages_sent`` of an untripped run per star: the pushed
    #: rounds' entries, then one message per row read that reaches
    #: ``B[d-1]`` (the pulled last round).
    MESSAGES = {2: [136, 246, 109, 23, 166, 292],
                3: [420, 819, 392, 121, 502, 672]}
    #: ``budget.nodes_visited`` less one per evaluated pivot: the nodes
    #: charged while the candidates were scored.
    SCORED = [271, 169, 169, 114, 172, 508]
    #: Pivots evaluated, one node charged each.
    EVALUATED = [3, 1, 1, 4, 1, 3]
    #: Rows read, each for a row bound; an evaluation reuses its lists.
    BOUND_READS = [3, 1, 1, 4, 1, 3]

    @pytest.mark.parametrize("d", [2, 3])
    def test_untripped_run_charges(self, yago_graph, d):
        messages, scored, evaluated, reads = [], [], [], []
        for star in _yago_stars(yago_graph):
            matcher = StarDSearch(ScoringFunction(yago_graph), d=d)
            budget = Budget(max_nodes=10 ** 9, max_messages=10 ** 9,
                            anytime=True)
            matcher.search(star, 5, budget=budget)
            assert matcher.last_report.completed
            messages.append(budget.messages_sent)
            scored.append(budget.nodes_visited
                          - matcher.stats.pivots_evaluated)
            evaluated.append(matcher.stats.pivots_evaluated)
            reads.append(matcher.stats.rows_read)
        assert messages == self.MESSAGES[d]
        assert scored == self.SCORED
        assert evaluated == self.EVALUATED
        assert reads == self.BOUND_READS

    def test_pulled_round_is_charged_after_the_pass(self, yago_graph):
        star = _yago_stars(yago_graph)[0]
        scorer = ScoringFunction(yago_graph)
        exact = StarDSearch(scorer, d=2).search(star, 5)
        cap = self.MESSAGES[2][0] - 1  # trips on the pulled round's charge
        with pytest.raises(BudgetExceededError):
            StarDSearch(scorer, d=2).search(
                star, 5, budget=Budget(max_messages=cap))
        matcher = StarDSearch(scorer, d=2)
        got = matcher.search(star, 5,
                             budget=Budget(max_messages=cap, anytime=True))
        assert matcher.last_report.reason == REASON_MESSAGES
        assert got
        scores = [m.score for m in got]
        assert scores == sorted(scores, reverse=True)
        assert scores[0] <= exact[0].score + 1e-9

    def test_trip_stops_the_row_pass(self, monkeypatch):
        graph = dbpedia_like(0.5, 7)
        star = StarQuery.from_query(
            parse_query("(?f:film) -[acted_in]- (?p:person)"))
        rows = graph.grouped_relations
        reads = []
        # Row reads so far, at each generator built (evaluation, rescue):
        # the first entry is what the bound pass read.
        at_build = []
        build = StarDSearch.build_generator

        def counting_rows(node_id, orientation=0):
            reads.append(node_id)
            return rows(node_id, orientation)

        def counting_build(self, *args, **kwargs):
            at_build.append(len(reads))
            return build(self, *args, **kwargs)

        monkeypatch.setattr(graph, "grouped_relations", counting_rows)
        monkeypatch.setattr(StarDSearch, "build_generator", counting_build)
        matcher = StarDSearch(ScoringFunction(graph), d=2)
        assert len(matcher._pivot_candidates(star)) > 300
        # One message trips during propagation, before any row is read.
        got = matcher.search(star, 5,
                             budget=Budget(max_messages=1, anytime=True))
        assert at_build and at_build[0] == 0
        assert got
        assert not matcher.last_report.completed
        assert matcher.last_report.reason == REASON_MESSAGES

    def test_row_fault_skips_that_pivot_only(self, yago_graph, monkeypatch):
        star = _yago_stars(yago_graph)[2]
        scorer = ScoringFunction(yago_graph)
        exact = StarDSearch(scorer, d=2).search(star, 5)
        lost = exact[0].assignment[star.pivot.id]
        rows = yago_graph.grouped_relations

        def faulty_rows(node_id, orientation=0):
            if node_id == lost:
                raise InjectedFaultError(f"row of {node_id}")
            return rows(node_id, orientation)

        monkeypatch.setattr(yago_graph, "grouped_relations", faulty_rows)
        matcher = StarDSearch(scorer, d=2)
        got = matcher.search(star, 5, budget=Budget(anytime=True))
        report = matcher.last_report
        assert report.reason == REASON_FAULT
        assert len(report.faults) == 1 and str(lost) in report.faults[0]
        scope = set(yago_graph.nodes()) - {lost}
        want = StarDSearch(scorer, d=2, pivot_scope=scope).search(star, 5)
        assert [(m.score, m.key()) for m in got] == [
            (m.score, m.key()) for m in want]
        assert [m.key() for m in got] != [m.key() for m in exact]
        with pytest.raises(InjectedFaultError):
            StarDSearch(scorer, d=2).search(star, 5)


@pytest.fixture(scope="module")
def unbudgeted_cycle_join(yago_scorer):
    """The 4-cycle's join run to completion by the nested-loop
    reference: ``(decomposition, reference, top-k)``; the reference
    keeps every combination in the order it was offered."""
    decomposition = decompose(_cycle_query(), "simsize")
    reference = ReferenceJoin(yago_scorer)
    return decomposition, reference, reference.join(
        decomposition, TestAnytimeProperty.K)


class TestAnytimeProperty:
    """Satellite: prefix-consistency of anytime results (Hypothesis)."""

    K = 3

    @given(max_nodes=st.integers(min_value=0, max_value=60),
           procedure=st.sampled_from(PROCEDURES))
    @settings(deadline=None, max_examples=75)
    def test_anytime_results_prefix_consistent(
        self, movie_scorer, max_nodes, procedure
    ):
        cls, d, _name = procedure
        star = _star()
        exact = cls(movie_scorer, d=d).search(star, self.K)
        universe = {
            round(m.score, 9)
            for m in brute_force_star(movie_scorer, star, 1000, d=d)
        }
        matcher = cls(movie_scorer, d=d)
        budget = Budget(max_nodes=max_nodes, anytime=True)
        got = matcher.search(star, self.K, budget=budget)
        report = matcher.last_report
        scores = [m.score for m in got]
        # Always: monotone non-increasing, genuine match scores only.
        assert scores == sorted(scores, reverse=True)
        for s in scores:
            assert round(s, 9) in universe
        # completed=True must mean "identical to the exact top-k"; any
        # degradation must be flagged (each returned score >= the exact
        # k-th score, OR the run reports completed=False).
        if report.completed:
            assert scores == pytest.approx([m.score for m in exact])
        else:
            assert report.reason is not None
        kth = exact[-1].score if len(exact) == self.K else float("-inf")
        assert report.degraded or all(s >= kth - 1e-9 for s in scores)
        # On a warm candidate cache the run is the same run: the same
        # matches, charges and trip.
        warm_scorer = ScoringFunction(movie_scorer.graph)
        attach_cache(warm_scorer)
        cls(warm_scorer, d=d).search(star, self.K)
        warm = cls(warm_scorer, d=d)
        warm_budget = Budget(max_nodes=max_nodes, anytime=True)
        assert [(m.key(), m.score) for m in warm.search(
            star, self.K, budget=warm_budget)] == [
                (m.key(), m.score) for m in got]
        assert warm_scorer.candidate_cache.stats.hits > 0
        assert (warm.last_report.nodes_visited, warm.last_report.reason,
                warm.last_report.completed) == (
                    report.nodes_visited, report.reason, report.completed)


    @given(max_join_steps=st.integers(min_value=0, max_value=450))
    @settings(deadline=None, max_examples=25)
    def test_anytime_join_stops_on_a_prefix_of_the_offers(
        self, yago_scorer, unbudgeted_cycle_join, max_join_steps
    ):
        """The 4-cycle makes 411 attempts for 22 combinations, most of
        them deep inside a bucket, so nearly every cap trips mid-scan.
        Whatever the cap, the pool returned is the pool of the first
        combinations the unbudgeted join forms -- never a later one
        without an earlier one."""
        decomposition, unbudgeted, exact = unbudgeted_cycle_join
        join = StarJoin(yago_scorer)
        budget = Budget(max_join_steps=max_join_steps, anytime=True)
        got = join.join(decomposition, self.K, budget=budget)
        report = join.last_report

        prefix = ScoredPool(self.K)
        for match in unbudgeted.offered[:join.last_offered]:
            prefix.offer(match.score, match)
        assert [(m.score, m.key()) for m in got] == [
            (m.score, m.key()) for m in prefix.ranked()
        ]
        assert sum(join.last_depths) >= 2
        if report.completed:
            assert [m.key() for m in got] == [m.key() for m in exact]
            assert budget.join_steps == join.last_joins_attempted
        else:
            assert report.reason == REASON_JOIN_STEPS
            assert join.last_joins_attempted == max_join_steps
            assert budget.join_steps == max_join_steps + 1


class TestDegradationMonotonicity:
    """Satellite: the serving layer's degrade-before-shed contract.

    Two halves.  :func:`repro.runtime.derive_budget_spec` must shrink
    budgets monotonically as the degrade level rises (the admission
    layer relies on it: more pressure may never *grow* a budget).  And
    the engine must honor what shrinking budgets imply: a run given
    more node budget rank-wise dominates a run given less, so degraded
    answers deteriorate gracefully rather than arbitrarily.
    """

    K = 3

    @given(level=st.integers(min_value=0, max_value=6),
           mode=st.sampled_from(MODES))
    @settings(deadline=None, max_examples=40)
    def test_derived_budgets_shrink_monotonically(self, level, mode):
        for slo in SLO_CLASSES.values():
            lower = derive_budget_spec(slo, level, mode=mode)
            higher = derive_budget_spec(slo, level + 1, mode=mode)
            assert higher["deadline_ms"] <= lower["deadline_ms"]
            if "max_nodes" in lower and "max_nodes" in higher:
                assert higher["max_nodes"] <= lower["max_nodes"]
            assert higher["max_nodes"] >= 1
            # Levels past the cap stop shrinking (budgets never hit 0).
            capped = derive_budget_spec(slo, MAX_DEGRADE_LEVEL + 3,
                                        mode=mode)
            assert capped == derive_budget_spec(slo, MAX_DEGRADE_LEVEL,
                                                mode=mode)

    @given(level=st.integers(min_value=1, max_value=6))
    @settings(deadline=None, max_examples=20)
    def test_every_degraded_level_is_anytime(self, level):
        for slo in SLO_CLASSES.values():
            for mode in MODES:
                assert derive_budget_spec(slo, level, mode=mode)["anytime"]
        # Level 0 keeps the caller's mode choice.
        assert derive_budget_spec(SLO_CLASSES["gold"], 0,
                                  mode="exact")["anytime"] is False
        assert derive_budget_spec(SLO_CLASSES["gold"], 0,
                                  mode="anytime")["anytime"] is True

    def test_deadline_override_tightens_all_levels(self):
        slo = SLO_CLASSES["silver"]
        for level in range(MAX_DEGRADE_LEVEL + 1):
            spec = derive_budget_spec(slo, level,
                                      deadline_override_ms=100.0)
            assert spec["deadline_ms"] <= 100.0

    def test_deadline_override_cannot_exceed_class_ceiling(self):
        # timeout_ms is tightening-only: a bronze client asking for an
        # hour still gets at most the bronze deadline.
        for slo in SLO_CLASSES.values():
            for level in range(MAX_DEGRADE_LEVEL + 1):
                spec = derive_budget_spec(
                    slo, level, deadline_override_ms=3_600_000.0)
                baseline = derive_budget_spec(slo, level)
                assert spec["deadline_ms"] == baseline["deadline_ms"]

    @given(small=st.integers(min_value=0, max_value=50),
           extra=st.integers(min_value=0, max_value=50))
    @settings(deadline=None, max_examples=25)
    def test_more_node_budget_rank_wise_dominates(
        self, movie_scorer, small, extra
    ):
        star = _star()
        large = small + extra

        low_matcher = StarKSearch(movie_scorer)
        low = low_matcher.search(
            star, self.K, budget=Budget(max_nodes=small, anytime=True))
        low_report = low_matcher.last_report

        high_matcher = StarKSearch(movie_scorer)
        high = high_matcher.search(
            star, self.K, budget=Budget(max_nodes=large, anytime=True))

        # The larger budget explores a superset of candidates, so at
        # every rank the smaller run produced, the larger run is at
        # least as good.
        assert len(high) >= len(low)
        for rank, match in enumerate(low):
            assert high[rank].score >= match.score - 1e-9

        # A completed smaller run pins both to the exact answer.
        if low_report.completed:
            exact = StarKSearch(movie_scorer).search(star, self.K)
            assert [m.score for m in low] == pytest.approx(
                [m.score for m in exact])
            assert [m.score for m in high] == pytest.approx(
                [m.score for m in exact])
