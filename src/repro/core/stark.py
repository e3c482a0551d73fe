"""Procedure ``stark``: exact top-k search for star queries (Section V-A).

Steps (Fig. 5):

1. identify candidate pivot matches online (scored + thresholded);
2. bound every candidate from the graph's columns, reading no row: the
   pivot's weighted ``F_N`` plus, per leaf, the best weighted ``F_N`` +
   ``F_E`` over its column entries -- a neighbour in the leaf's map and
   its edge's relation (:func:`column_bounds`); a pivot with no such
   entry for some leaf has no match;
3. keep top-1 matches in a priority queue beside the pivots, by bound:
   a pivot popped with its column bound has its row read, which keeps
   the leaf candidates among its neighbours (an untyped ``?`` leaf's
   are scored right there, not over the whole graph) and bounds the
   top-1 match pivoted there by the best entry of each leaf list
   (exactly, unless injectivity makes two leaves want one node); a
   pivot popped with that row bound has its lattice generator built --
   each only while its bound beats every queued match.  Repeatedly pop
   the global best match, emit it, and generate the next-best match for
   that pivot via the cursor lattice (:mod:`repro.core.lattice`).

Step 2 is :func:`column_bounds`, one array pass over all candidates;
step 3 is :meth:`StarKSearch.stream`, the one lazy Lemma-1 loop of the
code base, over :func:`hop_one_reader`, the one reader of a pivot's row.
Refining a bound only once its pivot reaches the head of the queue is
Fagin's threshold algorithm: the loop reads the rows of the pivots whose
column bound beats the queue head, and no others.  ``stard`` (Section
V-B) runs both at ``d >= 2``, its message-passing terms appended to the
row's leaf lists and maxed into the column bound; ``stark`` at ``d >= 2``
has no bound and evaluates every candidate.  The two hold the one copy
of the budget contract: a node charged per row read at ``d == 1`` (per
evaluation otherwise), a trip that stops the reading at every ``d``, the
anytime minimum-progress floor, the rescue pass, and drain-after-trip.

The stream of emitted matches is monotone non-increasing in score -- the
property ``starjoin`` relies on (Section VI).  Proposition 3 pruning is
applied to the leaf lists in the non-injective matching model (see
:mod:`repro.core.topk`); when a top-k is asked for, every pivot's leaf
lists keep their best ``k + s`` entries in either model.

Leaf node scores can be *weighted* (the alpha-scheme of Section VI-A):
``node_weights`` maps query-node ids to multipliers applied to their
``F_N`` contribution; thresholds always apply to raw scores.
"""

from __future__ import annotations

import heapq
import threading
import time
from itertools import chain, repeat
from typing import (
    AbstractSet,
    Callable,
    Dict,
    Iterator,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Set,
    Tuple,
    Union,
)

import numpy as np

from repro import obs
from repro.core.candidates import every_live_node, node_candidates, shortlist
from repro.core.lattice import LeafEntry, PivotMatchGenerator, make_leaf_list
from repro.core.matches import Match
from repro.core.topk import prop3_prune
from repro.errors import BudgetExceededError, SearchError
from repro.graph.traversal import bounded_bfs_layers
from repro.query.model import StarQuery
from repro.runtime.budget import Budget, SearchReport
from repro.runtime.faults import SUBSTRATE_ERRORS
from repro.similarity.scoring import ScoringFunction

#: A raw leaf entry: ``(combined, node, F_N, F_E, hops)``.
Entry = Tuple[float, int, float, float, int]

#: Type of a per-pivot leaf-candidate provider: given the pivot data node,
#: return one raw-entry list per leaf position (or stop at the first
#: empty one: the pivot has no match).
LeafProvider = Callable[[int], List[List[Entry]]]

#: A leaf position's candidates: node -> ``F_N``; or, for an untyped
#: wildcard scored at the row (see :func:`leaf_candidate_maps`), None for
#: every node or a set of nodes (starjoin's cut narrowed it to those).
LeafMap = Union[Dict[int, float], AbstractSet[int], None]


class PivotPlan(NamedTuple):
    """What a procedure's set-up hands the shared Lemma-1 loop.

    *pivots* are the scored pivot candidates; *bounds* is None or one
    column bound per candidate (:func:`column_bounds`; None for a pivot
    that provably has no match); *reader* takes a candidate's index,
    reads its row and returns its row bound (None: no match), which is
    at most its column bound; *provider* gives a pivot's leaf lists at
    evaluation.  *leaf_maps* are the ``d == 1`` plan's, which
    starjoin's cross-star cut narrows (:meth:`StarKSearch.row_plan`);
    None at ``d >= 2``.
    """

    pivots: List[Tuple[int, float]]
    bounds: Optional[List[Optional[float]]]
    provider: LeafProvider
    reader: Optional[Callable[[int], Optional[float]]] = None
    leaf_maps: Optional[List[LeafMap]] = None

    def proves_empty(self) -> bool:
        """True when no pivot can have a match: no candidate, or every
        bound None.  Only a plan its budget did not cut short proves it."""
        if self.bounds is None:
            return not self.pivots
        return all(bound is None for bound in self.bounds)

#: After an anytime budget trips mid-scan, keep trying pivots (visited by
#: score or bound, so the most promising come first) until one match exists
#: or this many have been attempted -- the anytime minimum-progress
#: guarantee.
_MIN_PIVOTS_AFTER_TRIP = 8

#: Scoring calls the last-resort rescue pass may spend.  Index-only
#: viability checks are free; this caps the expensive part so the rescue
#: adds a bounded, small latency on top of an already-tripped deadline.
_RESCUE_WORK_CAP = 400


class StarKSearch:
    """The ``stark`` procedure bound to a graph + scoring function.

    Args:
        scorer: shared :class:`ScoringFunction`.
        injective: enforce one-to-one matching (DESIGN.md Section 4).
        candidate_limit: optional pivot-candidate cutoff (Section V-A's
            "cutoff threshold ... to retain a few candidate nodes").
        prop3: apply Proposition 3 pruning to leaf lists when safe
            (non-injective mode); None = auto (on iff not injective).
        d: search bound; for ``d >= 2`` every pivot candidate pays an
            eager d-hop traversal, which is exactly the expensive regime
            Exp-1 shows ``stard`` avoiding (Section V-B's motivation).
        directed: enforce query-edge orientation (RDF/SPARQL-style);
            requires ``d == 1`` (see ``edge_match``).
        pivot_scope: optional node-id set the pivot may match within --
            a shard's owned pivots.  Without a ``candidate_limit`` the
            scope is pushed into candidate generation; with one,
            candidates are generated globally (so the cutoff keeps its
            global meaning) and filtered afterwards.  Leaves are never
            scoped, so every match pivoted in the scope sees exactly the
            leaf candidates the unscoped run would.
    """

    #: Procedure name: ``SearchReport.algorithm``, ``EngineStats.algorithm``
    #: and the ``<name>.search`` span.
    name = "stark"
    #: Span around one batch of pivot evaluations (for stark, the scan).
    eval_span = "stark.pivot_search"
    #: Hops the anytime rescue looks around a pivot for leaves; None =
    #: the search bound ``d``.
    rescue_d: Optional[int] = None

    def __init__(
        self,
        scorer: ScoringFunction,
        injective: bool = True,
        candidate_limit: Optional[int] = None,
        prop3: Optional[bool] = None,
        d: int = 1,
        directed: bool = False,
        pivot_scope: Optional[AbstractSet[int]] = None,
    ) -> None:
        if d < 1:
            raise SearchError(f"search bound d must be >= 1, got {d}")
        if directed and d != 1:
            raise SearchError("directed matching is defined for d == 1 only")
        self.scorer = scorer
        self.graph = scorer.graph
        self.injective = injective
        self.candidate_limit = candidate_limit
        self.prop3 = (not injective) if prop3 is None else prop3
        self.d = d
        self.directed = directed
        self.pivot_scope = pivot_scope
        self.stats = obs.EngineStats(self.name)
        self.last_report: Optional[SearchReport] = None

    # ------------------------------------------------------------------
    def _pivot_candidates(
        self, star: StarQuery, budget: Optional[Budget] = None
    ) -> List[Tuple[int, float]]:
        """Scored pivot candidates, honoring the optional pivot scope.

        With a ``candidate_limit`` the cutoff is applied over the
        *global* candidate list first and the scope filter second, so a
        scoped run selects exactly the owned slice of the global
        truncation (shard parity with single-shard execution).
        """
        scope = self.pivot_scope
        if scope is not None and self.candidate_limit is None:
            return node_candidates(
                self.scorer, star.pivot, budget=budget, scope=scope
            )
        cands = node_candidates(
            self.scorer, star.pivot, limit=self.candidate_limit,
            budget=budget,
        )
        if scope is not None:
            cands = [(n, s) for n, s in cands if n in scope]
        return cands

    # ------------------------------------------------------------------
    def _anytime_rescue(
        self,
        star: StarQuery,
        node_weights: Mapping[int, float],
        pivot_cands: List[Tuple[int, float]],
        prune_k: Optional[int],
        budget: Budget,
    ) -> Optional[Tuple[Match, "PivotMatchGenerator"]]:
        """Last-resort anytime progress when a trip left the queue empty.

        Truncated shortlists can miss every viable pivot, so no generator
        could be built from the global maps.  This pass walks the *full*
        pivot index shortlist (already-scored candidates first, best
        score first), filters pivots by an index-only viability check --
        every leaf position must have at least one neighbor within
        ``rescue_d`` hops in that leaf's index shortlist, no scoring
        involved -- and only then
        scores the pivot and its neighborhood directly (exact scoring,
        same thresholds) to assemble one genuine best-so-far match.
        Deliberately ignores the (already-tripped) budget; scoring calls
        are capped at ``_RESCUE_WORK_CAP`` instead.
        """
        scorer = self.scorer
        graph = self.graph
        d = self.rescue_d or self.d
        threshold = scorer.config.node_threshold
        pivot_desc = star.pivot.descriptor

        # Index-only candidate sets per distinct leaf constraint (keyed by
        # the canonical pre-hashed descriptor key).
        by_key_set: Dict[object, Set[int]] = {}
        leaf_sets: List[Set[int]] = []
        for leaf, _edge in star.leaves:
            key = leaf.descriptor.cache_key
            cands = by_key_set.get(key)
            if cands is None:
                cands = shortlist(scorer, leaf)
                by_key_set[key] = cands
            leaf_sets.append(cands)
        distinct_sets = list(by_key_set.values())

        # A few best already-scored pivots first (free to score, highest
        # quality), then the raw index shortlist: the truncated scored
        # prefix may contain no viable pivot at all, so most of the work
        # cap is reserved for the full scan.
        scored = dict(pivot_cands)
        candidates = [n for n, _s in pivot_cands[:2 * _MIN_PIVOTS_AFTER_TRIP]]
        head = set(candidates)
        candidates.extend(
            n for n in shortlist(scorer, star.pivot) if n not in head
        )

        work = 0
        for pivot_node in candidates:
            if work >= _RESCUE_WORK_CAP:
                break
            if d == 1:
                nearby = {nbr for nbr, _eid in graph.neighbors(pivot_node)}
            else:
                layers = bounded_bfs_layers(graph, pivot_node, d)
                nearby = set()
                for layer in layers[1:]:
                    nearby.update(layer)
            if self.injective:
                nearby.discard(pivot_node)
            if not nearby:
                continue
            if not all(not nearby.isdisjoint(s) for s in distinct_sets):
                continue
            pivot_score = scored.get(pivot_node)
            if pivot_score is None:
                try:
                    pivot_score = scorer.node_score(pivot_desc, pivot_node)
                except SUBSTRATE_ERRORS as exc:
                    budget.record_fault(
                        f"rescue node_score({pivot_node}): {exc}"
                    )
                    continue
                work += 1
                if pivot_score < threshold:
                    continue
            by_key_map: Dict[object, Dict[int, float]] = {}
            starved = False
            for (leaf, _edge), cand_set in zip(star.leaves, leaf_sets):
                key = leaf.descriptor.cache_key
                cached = by_key_map.get(key)
                if cached is None:
                    cached = {}
                    desc = leaf.descriptor
                    for nbr in nearby:
                        if nbr not in cand_set:
                            continue
                        try:
                            score = scorer.node_score(desc, nbr)
                        except SUBSTRATE_ERRORS as exc:
                            budget.record_fault(
                                f"rescue node_score({nbr}): {exc}"
                            )
                            continue
                        work += 1
                        if score >= threshold:
                            cached[nbr] = score
                    by_key_map[key] = cached
                if not cached:
                    starved = True
                    break  # some leaf has no admissible neighbor: no match
            if starved:
                continue
            local_maps = [
                by_key_map[leaf.descriptor.cache_key]
                for leaf, _edge in star.leaves
            ]
            if d == 1:
                provider = hop_one_reader(scorer, star, node_weights,
                                          local_maps, self.directed,
                                          self.stats)
            else:
                provider = bounded_leaf_provider(
                    scorer, star, node_weights, d, self.injective,
                    leaf_maps=local_maps, traversal_stats=self.stats)
            try:
                gen = self.build_generator(
                    star, pivot_node, pivot_score, node_weights, provider,
                    prune_k,
                )
            except SUBSTRATE_ERRORS as exc:
                budget.record_fault(f"rescue pivot {pivot_node}: {exc}")
                continue
            if gen is None:
                continue
            first = gen.next_match()
            if first is not None:
                return first, gen
        return None

    # ------------------------------------------------------------------
    # Generator assembly (shared with stard's exact phase)
    # ------------------------------------------------------------------
    def build_generator(
        self,
        star: StarQuery,
        pivot_node: int,
        pivot_raw_score: float,
        node_weights: Mapping[int, float],
        leaf_provider: LeafProvider,
        prune_k: Optional[int] = None,
    ) -> Optional[PivotMatchGenerator]:
        """Build the lattice generator for one pivot; None if unmatchable."""
        raw_lists = leaf_provider(pivot_node)
        if any(not entries for entries in raw_lists):
            return None
        if self.prop3 and prune_k is not None:
            scored = [
                [(c, (c, n, ns, es, h)) for c, n, ns, es, h in entries]
                for entries in raw_lists
            ]
            pruned = prop3_prune(scored, prune_k)
            raw_lists = [[payload for _s, payload in entries] for entries in pruned]
        # Prop. 3 with collision slack: a match using rank r of one list
        # is preceded, in the lattice's pop order, by the r cursors that
        # swap in a better entry there; at most s of them collide (s - 1
        # other leaves, the pivot), so the first prune_k valid matches
        # stay within the first prune_k + s entries of every list.
        keep = None if prune_k is None else prune_k + len(raw_lists)
        leaf_lists = [make_leaf_list(entries, keep) for entries in raw_lists]
        pivot_weight = node_weights.get(star.pivot.id, 1.0)
        positions = [(leaf.id, edge.id) for leaf, edge in star.leaves]
        return PivotMatchGenerator(
            star.pivot.id,
            pivot_node,
            pivot_weight * pivot_raw_score,
            pivot_raw_score,
            positions,
            leaf_lists,
            injective=self.injective,
        )

    # ------------------------------------------------------------------
    # Set-up: what a procedure decides before the shared loop runs
    # ------------------------------------------------------------------
    def plan(
        self,
        star: StarQuery,
        node_weights: Optional[Mapping[int, float]] = None,
        budget: Optional[Budget] = None,
    ) -> Optional[PivotPlan]:
        """The set-up :meth:`stream` runs first, on fresh :attr:`stats`.

        None when a substrate fault stopped it under an anytime budget
        (recorded there: the star has no match); raised otherwise.
        """
        self.stats = obs.EngineStats(self.name)
        try:
            return self._plan(star, node_weights or {}, budget)
        except SUBSTRATE_ERRORS as exc:
            if budget is None or not budget.anytime:
                raise
            budget.record_fault(f"{self.name} candidate setup: {exc}")
            return None

    def _plan(
        self,
        star: StarQuery,
        weights: Mapping[int, float],
        budget: Optional[Budget],
    ) -> PivotPlan:
        """Pivot candidates, bounds, row reader and leaf provider.

        *bounds* is what tells the procedures apart (see :meth:`stream`):
        None, or one admissible upper bound on the pivot's top-1 score
        per candidate (None for a pivot that provably has no match).
        ``stark`` bounds every pivot at ``d == 1`` (:meth:`row_plan`)
        and none at ``d >= 2``.  No row is read here.
        """
        with obs.trace("stark.candidates"):
            pivot_cands = self._pivot_candidates(star, budget=budget)
        with obs.trace("stark.leaf_fetch", leaves=len(star.leaves)) as span:
            leaf_maps = leaf_candidate_maps(self.scorer, star, budget=budget,
                                            at_row=self.d == 1)
            if self.d > 1:
                return PivotPlan(pivot_cands, None, bounded_leaf_provider(
                    self.scorer, star, weights, self.d, self.injective,
                    leaf_maps=leaf_maps, traversal_stats=self.stats))
            plan = self.row_plan(star, weights, pivot_cands, leaf_maps)
            span.annotate(
                viable=sum(bound is not None for bound in plan.bounds),
                rows_read=self.stats.rows_read)
        return plan

    def row_plan(
        self,
        star: StarQuery,
        weights: Mapping[int, float],
        pivot_cands: List[Tuple[int, float]],
        leaf_maps: List[LeafMap],
        alive: Optional[AbstractSet[int]] = None,
    ) -> PivotPlan:
        """The ``d == 1`` plan over *leaf_maps*: every candidate's column
        bound (of those in *alive* only, when given: the others get
        None), and the reader that refines one to its row bound.

        The row bound is :func:`pivot_bound` over :func:`hop_one_reader`'s
        lists, so it *is* the pivot's top-1 unless two leaves' best
        entries are one node (injectivity only removes matches, Prop. 3
        only prunes lists).  The lists a read gives are kept by pivot for
        the provider, so no pivot's row is read twice.  starjoin's cut
        calls this again with narrowed maps and pivots.
        """
        bounds = column_bounds(self.scorer, star, weights, pivot_cands,
                               leaf_maps, alive=alive)
        read = hop_one_reader(self.scorer, star, weights, leaf_maps,
                              self.directed, self.stats)
        lists_read: Dict[int, List[List[Entry]]] = {}
        return PivotPlan(
            pivot_cands, bounds, lists_read.pop,
            row_bounder(pivot_cands, weights.get(star.pivot.id, 1.0), read,
                        lists_read),
            leaf_maps)

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def stream(
        self,
        star: StarQuery,
        node_weights: Optional[Mapping[int, float]] = None,
        prune_k: Optional[int] = None,
        budget: Optional[Budget] = None,
        plan: Optional[PivotPlan] = None,
    ) -> Iterator[Match]:
        """Yield matches of *star* in non-increasing score order.

        Lemma 1 realized as a lazy scheme, shared by both star
        procedures: an evaluated pivot contributes its top-1 match to a
        priority queue; popping the global best and replacing it with
        that pivot's next-best match yields the exact ranking.  Beside
        it, the pivots wait in a queue of their own by bound, and the
        head of that queue is taken only while its bound beats the best
        queued match: a pivot waiting with its column bound has its row
        read and waits again with its row bound; one waiting with its
        row bound is evaluated (generator, top-1).  On equal bounds a
        column bound goes first, then candidate order, so pivots are
        evaluated in decreasing row bound, candidate order among equals
        -- exactly those, in the order, that bounding every pivot by its
        row first would evaluate.  Without bounds (``stark`` at
        ``d >= 2``) every candidate is evaluated, in candidate order,
        before the first emission.

        With an anytime *budget*, a trip stops reading rows and then
        evaluating pivots (after the minimum-progress floor), and the
        queue is drained as-is: the remaining emissions stay monotone
        non-increasing, but the stream is best-so-far rather than exact
        -- the caller's :class:`SearchReport` flags it.  Substrate
        faults are recorded on an anytime budget (a fault in one row
        read costs that pivot alone) and re-raised otherwise.

        A *plan* this matcher's :meth:`plan` made for the same star and
        weights (starjoin's, narrowed by its cross-star cut) is streamed
        as given; without one the stream plans first.
        """
        weights = node_weights or {}
        budget_on = budget is not None
        anytime = budget_on and budget.anytime
        if plan is None:
            plan = self.plan(star, weights, budget)
            if plan is None:
                return
        pivot_cands, bounds, provider, reader, _maps = plan
        stats = self.stats
        stats.pivots_considered = len(pivot_cands)
        # Waiting pivots: (-bound, tier, candidate index), tier 0 for a
        # column bound (its row is read when it pops), 1 for a row bound
        # (it is evaluated).  Without bounds every key is 0.
        if bounds is None:
            pending = [(0.0, 1, index) for index in range(len(pivot_cands))]
        else:
            pending = [(-bound, 0, index)
                       for index, bound in enumerate(bounds)
                       if bound is not None]
            heapq.heapify(pending)
        build = self.build_generator
        # At d == 1 a row read charges its node, so evaluation only asks
        # whether the budget has tripped; at d >= 2 evaluation charges.
        if budget_on:
            if self.d == 1:
                charge_read, charge = budget.charge_nodes, budget.check
            else:
                charge_read, charge = budget.check, budget.charge_nodes

        queue: List[Tuple[float, int, Match, PivotMatchGenerator]] = []
        serial = 0  # push order: the tie-break among equal scores
        tripped = False
        while True:
            if not tripped and pending:
                with obs.trace(self.eval_span, pivots=len(pending)) as span:
                    while pending:
                        neg, tier, index = pending[0]
                        # Lemma 1's laziness: a pivot is worth a row read
                        # or its top-1 only while its bound beats every
                        # queued match.
                        if bounds is not None and queue and (
                            -neg <= -queue[0][0] + 1e-12
                        ):
                            break
                        heapq.heappop(pending)
                        pivot_node, pivot_score = pivot_cands[index]
                        if not tier:
                            if budget_on and charge_read():
                                # Reading stops; the rows read so far
                                # can still be evaluated.
                                pending = [entry for entry in pending
                                           if entry[1]]
                                heapq.heapify(pending)
                                continue
                            try:
                                row = reader(index)
                            except SUBSTRATE_ERRORS as exc:
                                if not anytime:
                                    raise
                                budget.record_fault(
                                    f"pivot {pivot_node}: {exc}")
                                continue
                            if row is not None:
                                heapq.heappush(pending, (-row, 1, index))
                            continue
                        if budget_on and charge() and (
                            queue
                            or stats.pivots_evaluated >= _MIN_PIVOTS_AFTER_TRIP
                        ):
                            tripped = True
                            break
                        stats.pivots_evaluated += 1
                        try:
                            gen = build(
                                star, pivot_node, pivot_score, weights,
                                provider, prune_k,
                            )
                        except SUBSTRATE_ERRORS as exc:
                            if not anytime:
                                raise
                            budget.record_fault(f"pivot {pivot_node}: {exc}")
                            continue
                        if gen is None:
                            continue
                        first = gen.next_match()
                        if first is None:
                            continue
                        stats.pivots_with_match += 1
                        heapq.heappush(queue, (-first.score, serial, first, gen))
                        serial += 1
                    span.annotate(evaluated=stats.pivots_evaluated,
                                  with_match=stats.pivots_with_match,
                                  rows_read=stats.rows_read)
            # A batch can end without setting the flag (candidates ran out
            # before the floor); budget.check() is sticky, so ask it.
            if not tripped and budget_on and budget.check():
                tripped = True
            if not queue:
                if stats.matches_emitted or not (tripped and anytime):
                    return
                with obs.trace("stark.anytime_rescue"):
                    rescued = self._anytime_rescue(
                        star, weights, pivot_cands, prune_k, budget
                    )
                if rescued is None:
                    return
                first, gen = rescued
                stats.pivots_with_match += 1
                heapq.heappush(queue, (-first.score, serial, first, gen))
            _neg, _serial, match, gen = heapq.heappop(queue)
            stats.matches_emitted += 1
            stats.lattice_pops += gen.pops
            gen.pops = 0
            yield match
            if tripped:
                continue  # drain: emit queued bests, generate nothing new
            # No span here: generators must not hold spans across yields.
            # Lattice expansion cost is aggregated into a histogram instead.
            if obs.is_enabled():
                t0 = time.perf_counter()
                nxt = gen.next_match()
                obs.observe("stark.lattice_next_ms",
                            (time.perf_counter() - t0) * 1000.0)
            else:
                nxt = gen.next_match()
            if nxt is not None:
                heapq.heappush(queue, (-nxt.score, serial, nxt, gen))
                serial += 1

    def _top_k(
        self, star: StarQuery, k: int, budget: Optional[Budget]
    ) -> List[Match]:
        """The body of every procedure's :meth:`search`."""
        if k <= 0:
            raise SearchError(f"k must be positive, got {k}")
        results: List[Match] = []
        with obs.trace(f"{self.name}.search", k=k, d=self.d):
            try:
                for match in self.stream(star, prune_k=k, budget=budget):
                    results.append(match)
                    if len(results) == k:
                        break
            except BudgetExceededError as exc:
                self.last_report = SearchReport.from_budget(
                    self.name, budget, len(results)
                )
                if exc.report is None:
                    exc.report = self.last_report
                raise
        self.last_report = SearchReport.from_budget(
            self.name, budget, len(results)
        )
        return results

    # Each procedure defines ``search`` in its own class body (profilers
    # wrap it per class, see bench_e2e/tracing.py); the body is _top_k.
    def search(
        self, star: StarQuery, k: int, budget: Optional[Budget] = None
    ) -> List[Match]:
        """Top-k matches of *star* in decreasing score order.

        With an anytime *budget*, returns the flagged best-so-far list on
        a trip; :attr:`last_report` describes the run either way.

        Raises:
            SearchError: for non-positive k.
            SearchTimeoutError / BudgetExceededError: on a strict-mode
                budget trip (the partial report rides on the exception).
        """
        return self._top_k(star, k, budget)


def leaf_candidate_maps(
    scorer: ScoringFunction,
    star: StarQuery,
    budget: Optional[Budget] = None,
    at_row: bool = False,
) -> List[Optional[Dict[int, float]]]:
    """Admissible candidates (node -> ``F_N``) per leaf position.

    The *same* candidate definition every matcher uses (index shortlist +
    threshold, :func:`repro.core.candidates.node_candidates`), so stark,
    stard, graphTA, BP and the brute-force oracle agree on which node may
    match which leaf.  Leaves with identical constraints share one map.

    With *at_row* (the ``d == 1`` plan), an untyped wildcard leaf --
    whose universe is every live node -- gets None instead of a map, and
    no :func:`node_candidates` call: :func:`hop_one_reader` scores the
    few neighbours a pivot's row holds rather than the whole graph.
    """
    by_constraint: Dict[object, Optional[Dict[int, float]]] = {}
    maps: List[Optional[Dict[int, float]]] = []
    for leaf, _edge in star.leaves:
        key = leaf.descriptor.cache_key
        if key not in by_constraint:
            by_constraint[key] = (
                None if at_row and every_live_node(leaf)
                else dict(node_candidates(scorer, leaf, budget=budget)))
        maps.append(by_constraint[key])
    return maps


def pivot_bound(
    pivot_weight: float, pivot_score: float, lists: List[List[Entry]]
) -> float:
    """A pivot's row bound from its leaf lists: weighted ``F_N`` plus the
    best first element of each list, summed in the order a generator
    scores its first cursor (see :meth:`StarKSearch.row_plan`)."""
    bound = pivot_weight * pivot_score
    for entries in lists:
        bound += max(entries)[0]
    return bound


def row_bounder(
    pivot_cands: List[Tuple[int, float]],
    pivot_weight: float,
    read: LeafProvider,
    kept: Optional[Dict[int, List[List[Entry]]]] = None,
) -> Callable[[int], Optional[float]]:
    """A plan's reader: candidate index -> its row bound, off the lists
    *read* gives for its row (None when one is empty); *kept*, when
    given, keeps the lists by pivot for evaluation."""

    def row_bound(index: int) -> Optional[float]:
        pivot_node, pivot_score = pivot_cands[index]
        lists = read(pivot_node)
        if lists and not lists[-1]:
            return None
        if kept is not None:
            kept[pivot_node] = lists
        return pivot_bound(pivot_weight, pivot_score, lists)

    return row_bound


def column_bounds(
    scorer: ScoringFunction,
    star: StarQuery,
    node_weights: Mapping[int, float],
    pivot_cands: List[Tuple[int, float]],
    leaf_maps: List[LeafMap],
    far: Optional[List[np.ndarray]] = None,
    alive: Optional[AbstractSet[int]] = None,
) -> List[Optional[float]]:
    """Every pivot candidate's column bound, off the graph's columns in
    one gather of the candidates' rows: no row is read.

    The bound is the pivot's weighted ``F_N`` plus, per leaf (in leaf
    order, as :func:`pivot_bound` sums), the larger of two terms: the
    best ``w * F_N(n) + F_E`` over the pivot's column entries -- a
    neighbour ``n`` in the leaf's map (an untyped wildcard's ``F_N``
    counts as 1) and the relation of the entry's edge, scored by the
    query edge (:meth:`ScoringFunction.relation_scores`) and kept at or
    above the edge threshold; and, when given, the leaf's *far* term
    per candidate (``stard``'s, ``-inf`` for none).  A candidate with no
    term for some leaf, or outside *alive* when given, gets None.

    Each term is at least the leaf's best entry in the pivot's row: the
    columns hold every undirected edge, so a directed row's entries are
    among them, a row's parallel edges score their best relation, and
    float sums and maxima are monotone.  The bound is thus at least the
    row bound and hence the pivot's top-1; undirected, with no untyped
    leaf and no far term, it is the row bound.
    """
    count = len(pivot_cands)
    if not count:
        return []
    columns = scorer.graph.columns()
    nodes, scores = zip(*pivot_cands)
    pivots = np.array(nodes, dtype=np.int64)
    pivot_side = _Rows(columns, pivots)
    bound = node_weights.get(star.pivot.id, 1.0) * np.array(
        scores, dtype=np.float64)
    near_terms: Dict[tuple, np.ndarray] = {}
    for position, ((leaf, edge), leaf_map) in enumerate(
            zip(star.leaves, leaf_maps)):
        weight = node_weights.get(leaf.id, 1.0)
        key = (id(leaf_map), weight, edge.descriptor.cache_key)
        term = near_terms.get(key)
        if term is None:
            term = near_terms[key] = _near_term(
                scorer, edge, pivot_side, leaf_map, weight)
        if far is not None:
            term = np.maximum(term, far[position])
        bound += term
    if alive is not None:
        bound[[node not in alive for node in nodes]] = -np.inf
    return [None if value == -np.inf else value for value in bound.tolist()]


class _Rows:
    """The rows of *nodes* in *columns*: their spans at once, their
    entries on first use."""

    __slots__ = ("columns", "nodes", "starts", "lengths", "size", "_read")

    def __init__(self, columns, nodes: np.ndarray) -> None:
        self.columns = columns
        self.nodes = nodes
        self.starts, self.lengths = columns.spans(nodes)
        self.size = int(self.lengths.sum())
        self._read = None

    def entries(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(ids, relations)`` of every entry, row after row."""
        if self._read is None:
            columns = self.columns
            positions = columns.positions(self.starts, self.lengths)
            self._read = (columns.indices[positions],
                          columns.relations[positions])
        return self._read


class _SlotScratch(threading.local):
    """One array per thread over a graph's node slots, ``-inf`` between
    uses: a term sets the slots it reads and puts ``-inf`` back, so it
    costs the entries it touches, not an array the graph's size."""

    def __init__(self) -> None:
        self.slots = np.empty(0)

    def over(self, count: int) -> np.ndarray:
        if len(self.slots) < count:
            self.slots = np.full(count, -np.inf)
        return self.slots


_SCRATCH = _SlotScratch()


def _near_term(
    scorer: ScoringFunction, edge, pivot_side: _Rows, leaf_map: LeafMap,
    weight: float,
) -> np.ndarray:
    """Per pivot, the best ``weight * F_N(n) + F_E`` over its column
    entries with ``n`` in *leaf_map* (``weight * 1`` for a wildcard's
    node) and ``F_E`` the query *edge*'s score of the entry's relation,
    kept at or above the edge threshold; ``-inf`` for none.  Read off
    whichever side has fewer entries: the pivots' rows, or the map's
    rows turned around -- adjacency is symmetric, and a max is the same
    over either order.  The two sides meet on the thread's slot
    scratch (:class:`_SlotScratch`)."""
    columns = pivot_side.columns
    if leaf_map is not None:
        nodes = np.fromiter(leaf_map, dtype=np.int64, count=len(leaf_map))
        node_scores = (
            weight * np.fromiter(leaf_map.values(), dtype=np.float64,
                                 count=len(nodes))
            if isinstance(leaf_map, dict)
            else np.full(len(nodes), weight * 1.0))
        # a map of more nodes than the pivots have entries cannot hold fewer
        map_side = (_Rows(columns, nodes) if len(nodes) < pivot_side.size
                    else None)
        if map_side is not None and map_side.size < pivot_side.size:
            ids, relations = map_side.entries()
            values = (np.repeat(node_scores, map_side.lengths)
                      + _edge_scores(scorer, edge, relations))
            slots = _SCRATCH.over(columns.num_slots)
            try:
                np.maximum.at(slots, ids, values)
                return slots[pivot_side.nodes]
            finally:
                slots[ids] = -np.inf
    ids, relations = pivot_side.entries()
    term = np.full(len(pivot_side.nodes), -np.inf)
    if len(ids):
        edge_scores = _edge_scores(scorer, edge, relations)
        if leaf_map is None:
            at_entries = weight * 1.0
        else:
            slots = _SCRATCH.over(columns.num_slots)
            try:
                slots[nodes] = node_scores
                at_entries = slots[ids]
            finally:
                slots[nodes] = -np.inf
        nonempty = pivot_side.lengths > 0
        term[nonempty] = np.maximum.reduceat(
            at_entries + edge_scores,
            (np.cumsum(pivot_side.lengths) - pivot_side.lengths)[nonempty])
    return term


def leaf_values(
    scorer: ScoringFunction, edge, leaf_map: LeafMap, nodes: AbstractSet[int],
) -> Set[int]:
    """The nodes a leaf could bind next to *nodes* by one edge, off the
    columns: the column entries of *nodes*' rows whose neighbour is in
    *leaf_map* (any, for None) and whose relation passes the edge
    threshold for query *edge* -- a superset of what their rows' leaf
    lists hold."""
    ids, relations = _Rows(scorer.graph.columns(), np.fromiter(
        nodes, dtype=np.int64, count=len(nodes))).entries()
    found = set(ids[_edge_scores(scorer, edge, relations)
                    > -np.inf].tolist())
    return found if leaf_map is None else found.intersection(leaf_map)


def _edge_scores(scorer: ScoringFunction, edge,
                 relations: np.ndarray) -> np.ndarray:
    """The query *edge*'s ``F_E`` of each relation id in *relations*,
    ``-inf`` below the edge threshold."""
    scores = scorer.relation_scores(edge.descriptor, relations)
    return np.where(scores >= scorer.config.edge_threshold, scores, -np.inf)


def hop_one_reader(
    scorer: ScoringFunction,
    star: StarQuery,
    node_weights: Mapping[int, float],
    leaf_maps: List[LeafMap],
    directed: bool = False,
    stats: Optional[obs.EngineStats] = None,
) -> Callable[..., List[List[Entry]]]:
    """The one reader of a pivot's ``grouped_relations`` row into hop-1
    leaf entries, for the ``d == 1`` plan, ``stard``'s row bound and
    :func:`bounded_leaf_provider`.

    ``read(pivot, stop=True)`` lists, per leaf, the row's
    neighbours in the leaf's map whose ``F_E`` -- relation-aware,
    memoised per query edge and label (or parallel-edge label tuple) --
    passes the edge threshold.  A leaf whose map is None or a set (an
    untyped wildcard, see :func:`leaf_candidate_maps`) is scored at the
    row instead, over every neighbour or those in the set: edge
    threshold first, so an inadmissible edge costs no ``F_N``, then the
    memoised ``F_N`` against the node threshold -- the entries its map
    would have given, since a row holds only live nodes.  With
    *directed*, each leaf reads the row of its edge's orientation (+1
    pivot -> leaf, -1 leaf -> pivot); otherwise orientation 0.

    Each orientation's row is read once per call, and each call counts
    one row read in *stats*.  With *stop*, the first empty list ends the
    read: the pivot has no match.  No injectivity filter is needed:
    ``add_edge`` rejects self-loops.  Scoring faults reach the caller.
    """
    grouped_relations = scorer.graph.grouped_relations
    relation_score = scorer.relation_score
    score_node = scorer.node_score
    edge_threshold = scorer.config.edge_threshold
    node_threshold = scorer.config.node_threshold
    leaf_info = [
        (leaf_scores if isinstance(leaf_scores, dict) else None,
         leaf_scores.keys() if isinstance(leaf_scores, dict)
         else leaf_scores,
         leaf.descriptor, edge.descriptor,
         node_weights.get(leaf.id, 1.0),
         0 if not directed else (1 if edge.src == star.pivot.id else -1),
         {})
        for (leaf, edge), leaf_scores in zip(star.leaves, leaf_maps)
    ]

    def read(pivot_node: int, stop: bool = True) -> List[List[Entry]]:
        if stats is not None:
            stats.rows_read += 1
        rows: Dict[int, dict] = {}
        lists: List[List[Entry]] = []
        for (leaf_scores, among, leaf_desc, edge_desc, weight, orientation,
             memo) in leaf_info:
            row = rows.get(orientation)
            if row is None:
                row = rows[orientation] = dict(
                    grouped_relations(pivot_node, orientation))
            entries: List[Entry] = []
            for nbr in (row if among is None else row.keys() & among):
                labels = row[nbr]
                edge_score = memo.get(labels)
                if edge_score is None:
                    edge_score = memo[labels] = (
                        relation_score(edge_desc, labels)
                        if labels.__class__ is str
                        else max(relation_score(edge_desc, rel)
                                 for rel in labels))
                if edge_score < edge_threshold:
                    continue
                if leaf_scores is None:
                    node_score = score_node(leaf_desc, nbr)
                    if node_score < node_threshold:
                        continue
                else:
                    node_score = leaf_scores[nbr]
                entries.append((weight * node_score + edge_score, nbr,
                                node_score, edge_score, 1))
            lists.append(entries)
            if stop and not entries:
                break
        return lists

    return read


def _adjacent_in(
    columns, leaf_scores: Mapping[int, float],
) -> Dict[int, List[int]]:
    """``v -> the nodes of the leaf map adjacent to v`` (once per edge),
    for the last hop: the map's id-column rows turned around in one bulk
    pass (:meth:`Columns.restricted_to`), keyed by the rows that are not
    empty.

    A dict of lists, so that a pivot's frontier is read with no numpy
    call: ``stark`` at ``d >= 2`` reads a frontier per pivot candidate,
    tens of nodes at ``d == 2``, where numpy's per-call cost outweighs
    the read.
    """
    turned = columns.restricted_to(np.fromiter(
        leaf_scores, dtype=np.int64, count=len(leaf_scores)))
    indptr = turned.indptr
    rows = np.flatnonzero(indptr[1:] != indptr[:-1])
    indices = turned.indices.tolist()
    return dict(zip(rows.tolist(), map(indices.__getitem__, map(
        slice, indptr[rows].tolist(), indptr[rows + 1].tolist()))))


def bounded_leaf_provider(
    scorer: ScoringFunction,
    star: StarQuery,
    node_weights: Mapping[int, float],
    d: int,
    injective: bool,
    leaf_maps: Optional[List[Dict[int, float]]] = None,
    traversal_stats=None,
    hop_one: Optional[Dict[int, List[List[Entry]]]] = None,
) -> LeafProvider:
    """Leaf candidates within *d* hops of a pivot (d-bounded matching).

    An edge matches the *shortest* qualifying path: a candidate ``w`` at
    BFS distance ``h`` scores relation-aware ``F_E`` at ``h == 1`` (the
    entries of :func:`hop_one_reader`) and the pure decay ``lambda^(h-1)``
    otherwise (see :mod:`repro.similarity.path_score`).  Shared by
    ``stark`` with ``d >= 2`` (eager traversal per pivot) and by
    ``stard``'s exact per-pivot phase (lazy, estimate-ordered).

    Interior path nodes may be anything, so hops ``1 .. d-1`` are a BFS
    over the full adjacency; only leaf candidates matter at hop ``d``:
    the candidates next to the ``d-1`` frontier that the BFS has not seen
    are exactly those at shortest distance ``d``.  That semijoin reads
    the map's rows turned around (:func:`_adjacent_in`, made once per
    distinct leaf map of this provider, i.e. of one query).  The pivot
    is at distance 0, so it is never its own leaf, injective or not.

    *hop_one* holds, by pivot, hop-1 lists a row read already gave
    (``stard``'s bound read): a pivot found there is taken out and its
    row is not read again.
    """
    if d < 2:
        raise SearchError(f"bounded leaf provider needs d >= 2, got {d}")
    graph = scorer.graph
    edge_threshold = scorer.config.edge_threshold
    if leaf_maps is None:
        leaf_maps = leaf_candidate_maps(scorer, star)
    read = hop_one_reader(scorer, star, node_weights, leaf_maps,
                          stats=traversal_stats)
    leaf_info = [
        (leaf_scores, node_weights.get(leaf.id, 1.0))
        for (leaf, _edge), leaf_scores in zip(star.leaves, leaf_maps)
    ]
    decay = scorer.path.decay
    # A hop-d path scores the pure decay: below the edge threshold no
    # candidate at that distance can match.
    decay_d = decay(d)
    last_hop_matches = decay_d >= edge_threshold
    adjacent_in: Dict[int, Dict[int, List[int]]] = {}

    def provide(pivot_node: int) -> List[List[Entry]]:
        layers = bounded_bfs_layers(graph, pivot_node, d - 1)
        seen = set().union(*layers)
        # Traversal is this path's dominant cost and produces no scorer
        # calls (leaf scores are map lookups), so it is accounted
        # separately: inner-BFS nodes plus last-hop candidates reached.
        traversed = len(seen)
        lists = hop_one.pop(pivot_node, None) if hop_one else None
        if lists is None:
            lists = read(pivot_node, False)
        at_d_by_map: Dict[int, Set[int]] = {}
        for entries, (leaf_scores, weight) in zip(lists, leaf_info):
            at_d = at_d_by_map.get(id(leaf_scores))
            if at_d is None:
                at_d = set()
                if last_hop_matches:
                    adjacent = adjacent_in.get(id(leaf_scores))
                    if adjacent is None:
                        adjacent = adjacent_in[id(leaf_scores)] = \
                            _adjacent_in(graph.columns(), leaf_scores)
                    at_d = set(chain.from_iterable(
                        map(adjacent.get, layers[-1], repeat(()))))
                    at_d -= seen
                at_d_by_map[id(leaf_scores)] = at_d
                traversed += len(at_d)
            for hops in range(2, d):
                edge_score = decay(hops)
                if edge_score < edge_threshold:
                    break  # the decay only falls with the hop count
                entries.extend([
                    (weight * node_score + edge_score, w, node_score,
                     edge_score, hops)
                    for w in layers[hops]
                    if (node_score := leaf_scores.get(w)) is not None
                ])
            entries.extend([
                (weight * (node_score := leaf_scores[w]) + decay_d, w,
                 node_score, decay_d, d)
                for w in at_d
            ])
        if traversal_stats is not None:
            traversal_stats.nodes_traversed += traversed
        return lists

    return provide
