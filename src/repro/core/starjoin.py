"""Procedure ``starjoin``: top-k rank join over star matches (Section VI-A).

Given a query decomposed into stars ``Q*_1 .. Q*_m`` (an edge partition;
:mod:`repro.query.decomposition`), each star's matcher emits matches in
monotone non-increasing order of its *weighted* score ``F'``.  starjoin
runs an HRJN-style loop (Fig. 9): fetch the next match of each active
star, join it with the other stars' fetched lists, keep the best joins in
a bounded priority pool, and terminate once the k-th best join beats every
star's upper bound.  The *H* is literal: each fetched list is hash-indexed
on the data nodes its star's *joint* query nodes are bound to, so a new
match meets only the partners that agree with it on a shared node.

**Alpha-scheme** (Eq. 4): a joint node shared by several stars would have
its ``F_N`` counted once per star, making Eq. 3's classic HRJN bound
invalid.  Instead each joint node's score is split across its stars --
weight ``alpha`` in the first star containing it, ``(1-alpha)/(t-1)`` in
the remaining ``t-1`` -- so star scores sum exactly to the complete
match's ``F`` and the bounds stay valid for any ``alpha in [0, 1]``.

Each complete match is materialized exactly once: a combination is formed
when its *last-fetched* component arrives (fetch sequence numbers guard
against double counting).

**Plan, cut, stream.**  Every star is planned before any stream is
primed, and at ``d == 1`` the plans are cut to each other over id sets
before any row is read (:func:`joint_semijoin`, a semijoin reduction
after Yannakakis, VLDB 1981): a joint query node keeps only the data
nodes every star containing it can bind, so no stream emits a match
that no partner match can join.  HRJN's bound cannot see such
matches; without the cut they are fetched, hashed and probed for
nothing.

The *total search depth* ``D = sum_i |L_i|`` (how deep each star's stream
was consumed) is the cost metric of Figs. 14(d)/15(b).
"""

from __future__ import annotations

from typing import (
    AbstractSet, Dict, Iterable, Iterator, List, Mapping, Optional,
    Sequence, Set, Tuple,
)

from repro import obs
from repro.core.matches import Match
from repro.core.options import SearchOptions
from repro.core.rankmerge import MonotoneStream, ScoredPool, hrjn_bound
from repro.core.procedures import star_matcher
from repro.core.stark import PivotPlan, StarKSearch, leaf_values
from repro.errors import BudgetExceededError, SearchError
from repro.query.decomposition import Decomposition
from repro.query.model import Query, StarQuery
from repro.runtime.budget import Budget, SearchReport
from repro.runtime.faults import SUBSTRATE_ERRORS
from repro.similarity.scoring import ScoringFunction


class _AnytimeStop(Exception):
    """Internal control flow: unwind the join once an anytime budget
    trips (never escapes :meth:`StarJoin.join`)."""


def alpha_weights(
    decomposition: Decomposition, alpha: float
) -> List[Dict[int, float]]:
    """Per-star node-weight maps implementing the alpha-scheme.

    A query node appearing in ``t`` stars gets weight *alpha* in the first
    star (decomposition order) and ``(1 - alpha) / (t - 1)`` in each later
    star; exclusive nodes keep weight 1.  Weights per node always sum to 1
    across stars, which is what makes joined scores equal Eq. 2's ``F``.

    Raises:
        SearchError: if *alpha* is outside [0, 1].
    """
    if not (0.0 <= alpha <= 1.0):
        raise SearchError(f"alpha={alpha} must be in [0, 1]")
    weights: List[Dict[int, float]] = [dict() for _ in decomposition.stars]
    for qid, star_idxs in decomposition.membership().items():
        t = len(star_idxs)
        if t == 1:
            weights[star_idxs[0]][qid] = 1.0
            continue
        weights[star_idxs[0]][qid] = alpha
        rest = (1.0 - alpha) / (t - 1)
        for star_idx in star_idxs[1:]:
            weights[star_idx][qid] = rest
    return weights


def joint_semijoin(
    stars: Sequence[StarQuery],
    matchers: Sequence[StarKSearch],
    plans: List[PivotPlan],
    weights: Sequence[Mapping[int, float]],
    joint: AbstractSet[int],
) -> Tuple[int, int, int]:
    """Cut ``d == 1`` star *plans* to the joint values every star can
    bind, replacing them in the list; returns ``(rounds, pivots cut,
    leaf values cut)``.  Reads no row and charges nothing: the cut runs
    over id sets, before any stream reads a row.

    A star's values for joint query node ``q`` are its pivots with a
    column bound when ``q`` is its pivot, and otherwise the nodes of
    ``q``'s leaf map in the column entries of those pivots whose
    relation passes the edge threshold (one gather,
    :func:`~repro.core.stark.leaf_values`).  ``V(q)`` is their
    intersection over the stars containing ``q``.  Each star whose
    values exceed some ``V`` is planned again
    (:meth:`~repro.core.stark.StarKSearch.row_plan`) with its pivots
    and per-position copies of its joint leaves' maps narrowed to
    ``V``, which re-gathers its column bounds: a pivot left with no
    column neighbour in a narrowed map drops out.  Dropping a pivot can
    take a value of another joint node with it, so the rounds repeat
    until no ``V`` shrinks: two on two stars; the fixpoint is sound on
    longer chains and on cyclic decompositions too.

    Exact: a plan's reads keep only leaf candidates in its maps, so a
    cut stream is the uncut one minus the matches binding some joint
    node to a value a partner star cannot take -- matches that never
    join.  Top scores only fall, so the alpha-scheme bound stays
    admissible.  The columns ignore orientation, so under directed
    matching the values are supersets of what the rows would give: the
    cut is sound there, and may be weaker than a cut over rows read.
    """
    # Each star's joint nodes: (query node, its leaf position), None for
    # the pivot.  Queries are simple graphs: a node is one leaf at most.
    slots: List[List[Tuple[int, Optional[int]]]] = []
    for star in stars:
        here = [(star.pivot.id, None)] if star.pivot.id in joint else []
        here += [(leaf.id, position)
                 for position, (leaf, _edge) in enumerate(star.leaves)
                 if leaf.id in joint]
        slots.append(here)

    def bounded(at: int) -> Set[int]:
        plan = plans[at]
        return {node for (node, _score), bound
                in zip(plan.pivots, plan.bounds) if bound is not None}

    def values(at: int) -> Dict[int, Set[int]]:
        pivots = bounded(at)
        return {qid: pivots if position is None else leaf_values(
                    matchers[at].scorer, stars[at].leaves[position][1],
                    plans[at].leaf_maps[position], pivots)
                for qid, position in slots[at]}

    held = {(qid, at): found for at in range(len(stars))
            for qid, found in values(at).items()}
    first = {key: len(found) for key, found in held.items()}
    rounds = pivots_cut = 0
    while True:
        rounds += 1
        cut: Dict[int, Set[int]] = {}
        for (qid, _at), found in held.items():
            cut[qid] = cut[qid] & found if qid in cut else found
        shrunk = sorted({at for (qid, at), found in held.items()
                         if len(found) > len(cut[qid])})
        if not shrunk:
            values_cut = sum(
                first[qid, at] - len(held[qid, at])
                for at, here in enumerate(slots)
                for qid, position in here if position is not None)
            return rounds, pivots_cut, values_cut
        for at in shrunk:
            plan = plans[at]
            alive = bounded(at)
            before = len(alive)
            leaf_maps = list(plan.leaf_maps)
            for qid, position in slots[at]:
                keep = cut[qid]
                if position is None:
                    alive &= keep
                    continue
                leaf_map = leaf_maps[position]
                leaf_maps[position] = (
                    set(keep) if leaf_map is None
                    else {node: score for node, score in leaf_map.items()
                          if node in keep} if isinstance(leaf_map, dict)
                    else leaf_map & keep)
            plans[at] = matchers[at].row_plan(
                stars[at], weights[at], plan.pivots, leaf_maps, alive)
            pivots_cut += before - len(bounded(at))
            for qid, found in values(at).items():
                held[qid, at] = found


_Entry = Tuple[int, Match]


class _StarStream(MonotoneStream):
    """One star's monotone match stream plus its fetched list ``L_i``.

    The bound bookkeeping (top/last score, exhaustion, drop flag) lives
    in the shared :class:`~repro.core.rankmerge.MonotoneStream`; this
    subclass adds the join-specific fetched list and its hash index.
    Fetched entries carry a global sequence number so joins can pair a
    new match only with strictly earlier ones.

    ``index[qid][data_node]`` lists, in sequence order, the entries that
    bind joint query node *qid* (one this star shares with another) to
    *data_node*.
    """

    __slots__ = ("star", "fetched", "index")

    def __init__(
        self,
        star: StarQuery,
        iterator: Iterator[Match],
        joint_nodes: Iterable[int],
    ) -> None:
        super().__init__(iterator)
        self.star = star
        self.fetched: List[_Entry] = []
        self.index: Dict[int, Dict[int, List[_Entry]]] = {
            qid: {} for qid in joint_nodes
        }

    def fetch(self, seq: int) -> Optional[Match]:
        match = self.pull()
        if match is not None:
            entry = (seq, match)
            self.fetched.append(entry)
            assignment = match.assignment
            for qid, buckets in self.index.items():
                buckets.setdefault(assignment[qid], []).append(entry)
        return match

    def probe(self, assignment: Mapping[int, int]) -> Optional[List[_Entry]]:
        """The fetched entries that can agree with *assignment*.

        The smallest bucket among this star's joint nodes *assignment*
        binds; None when one of them holds a data node no fetched match
        has (nothing here can join).  Only a star sharing no bound node
        with *assignment* -- mid-chain, three or more stars -- falls
        back to its whole fetched list.
        """
        best: Optional[List[_Entry]] = None
        for qid, buckets in self.index.items():
            data_node = assignment.get(qid)
            if data_node is None:
                continue
            bucket = buckets.get(data_node)
            if bucket is None:
                return None
            if best is None or len(bucket) < len(best):
                best = bucket
        return self.fetched if best is None else best

    @property
    def depth(self) -> int:
        return len(self.fetched)


class StarJoin:
    """Top-k search for general queries by star decomposition + rank join.

    Args:
        scorer: shared :class:`ScoringFunction`.
        options: a :class:`~repro.core.options.SearchOptions` record, or
            keyword options in its place.  Read here: ``alpha`` (the
            alpha-scheme split) and ``injective`` (enforced globally);
            the star streams are built from the whole record
            (``d``, ``algorithm``, ``candidate_limit``, ``directed``).
    """

    def __init__(
        self,
        scorer: ScoringFunction,
        options: Optional[SearchOptions] = None,
        **knobs,
    ) -> None:
        self.scorer = scorer
        self.options = SearchOptions.coerce(options, knobs)
        # Filled by the last `join` call (Fig. 14(d) metrics).
        self.last_depths: List[int] = []
        self.last_joins_attempted = 0
        #: complete combinations formed / probes that found no bucket
        self.last_offered = 0
        self.last_probe_misses = 0
        self.last_report: Optional[SearchReport] = None

    # ------------------------------------------------------------------
    def _streams(
        self,
        decomposition: Decomposition,
        weights: Sequence[Mapping[int, float]],
        budget: Optional[Budget] = None,
    ) -> Optional[List[Iterator[Match]]]:
        """The one source of star streams: plan every star, cut the plans
        to each other, stream each star from its plan.

        None when a plan proves its star has no match (the join is
        empty); the later stars are not planned.  The cut
        (:func:`joint_semijoin`) runs at ``d == 1`` only -- a joint value
        at ``d >= 2`` needs d-hop reach, which the columns' rows do not
        give -- and only if the budget has not tripped by the end of
        planning: a tripped plan scored only some candidates, so every
        plan streams uncut.  A substrate fault in the cut is recorded
        under an anytime budget, and the plans stream as cut so far
        (each narrowing is sound on its own); it is raised otherwise.
        """
        stars = decomposition.stars
        matchers, plans = [], []
        with obs.trace("starjoin.reduce", stars=len(stars)) as span:
            for star, star_weights in zip(stars, weights):
                matcher = star_matcher(self.scorer, self.options)
                plan = matcher.plan(star, star_weights, budget)
                # sticky: after the last plan, whether any was cut short
                tripped = budget is not None and budget.exhausted
                if plan is None or (plan.proves_empty() and not tripped):
                    return None
                matchers.append(matcher)
                plans.append(plan)
            rounds = pivots_cut = values_cut = 0
            if not tripped and all(plan.leaf_maps is not None
                                   for plan in plans):
                try:
                    rounds, pivots_cut, values_cut = joint_semijoin(
                        stars, matchers, plans, weights,
                        decomposition.joint_nodes())
                except SUBSTRATE_ERRORS as exc:
                    if budget is None or not budget.anytime:
                        raise
                    budget.record_fault(f"starjoin cut: {exc}")
                if any(plan.proves_empty() for plan in plans):
                    return None
            span.annotate(rounds=rounds, pivots_cut=pivots_cut,
                          values_cut=values_cut)
        return [
            matcher.stream(star, star_weights, budget=budget, plan=plan)
            for matcher, star, star_weights, plan
            in zip(matchers, stars, weights, plans)
        ]

    # ------------------------------------------------------------------
    def join(
        self,
        decomposition: Decomposition,
        k: int,
        budget: Optional[Budget] = None,
    ) -> List[Match]:
        """Run the rank join over an existing decomposition.

        Returns the top-k complete matches in decreasing score order.

        The *budget* is shared with every star's plan and stream, so node
        visits, messages and the deadline are accounted across the whole
        join.  An anytime trip (in a stream or between join steps) stops
        fetching; the pool built so far is returned, ranked, and
        :attr:`last_report` flags the run as incomplete.

        Raises:
            SearchError: for non-positive k.
            SearchTimeoutError / BudgetExceededError: on a strict-mode
                budget trip.
        """
        if k <= 0:
            raise SearchError(f"k must be positive, got {k}")
        budget_on = budget is not None
        stars = decomposition.stars
        weights = alpha_weights(decomposition, self.options.alpha)
        self.last_depths = [0] * len(stars)
        self.last_joins_attempted = 0
        self.last_offered = self.last_probe_misses = 0
        try:
            sources = self._streams(decomposition, weights, budget)
            if sources is None:
                self.last_report = SearchReport.from_budget(
                    "starjoin", budget, 0)
                return []
            if len(stars) == 1:
                with obs.trace("starjoin.single_star", k=k):
                    results: List[Match] = []
                    for match in sources[0]:
                        results.append(match)
                        if len(results) == k:
                            break
                self.last_depths = [len(results)]
                self.last_report = SearchReport.from_budget(
                    "starjoin", budget, len(results)
                )
                return results

            joint = decomposition.joint_nodes()
            streams = [
                _StarStream(star, source,
                            sorted(joint.intersection(star.node_ids())))
                for star, source in zip(stars, sources)
            ]

            # Bounded result pool: the best <= k joins so far, with
            # HRJN's theta threshold (see repro.core.rankmerge).
            pool = ScoredPool(k)
            theta = pool.theta
            seq = 0

            try:
                # Prime every stream: a star with zero matches kills all
                # joins.
                with obs.trace("starjoin.prime", stars=len(streams)):
                    for idx, stream in enumerate(streams):
                        if stream.fetch(seq) is None:
                            self.last_report = SearchReport.from_budget(
                                "starjoin", budget, 0
                            )
                            return []
                        self._join_new(streams, idx, seq, pool, budget)
                        seq += 1

                bound = hrjn_bound(streams)
                progressed = True
                with obs.trace("starjoin.rank_join", k=k) as join_span:
                    while progressed:
                        if budget_on and budget.check():
                            raise _AnytimeStop
                        progressed = False
                        for idx, stream in enumerate(streams):
                            if stream.fetch(seq) is None:
                                continue
                            seq += 1
                            progressed = True
                            self._join_new(
                                streams, idx, seq - 1, pool, budget
                            )
                            # Per-star upper bound theta_i (Eq. 4
                            # generalized) at the just-fetched score.
                            if bound(idx) < theta():
                                stream.dropped = True
                        if len(pool) >= k:
                            live = [
                                bound(i)
                                for i, s in enumerate(streams) if s.live
                            ]
                            if not live or max(live) <= theta():
                                break
                    join_span.annotate(
                        joins=self.last_joins_attempted,
                        depth=sum(s.depth for s in streams),
                        offered=self.last_offered,
                        probe_misses=self.last_probe_misses,
                    )
            except _AnytimeStop:
                pass
            finally:
                # Every exit, a strict budget trip included, reports how
                # deep the streams were read.
                self.last_depths = [s.depth for s in streams]

            results = pool.ranked()
            self.last_report = SearchReport.from_budget(
                "starjoin", budget, len(results)
            )
            return results
        except BudgetExceededError as exc:
            self.last_report = SearchReport.from_budget("starjoin", budget, 0)
            if exc.report is None:
                exc.report = self.last_report
            raise

    # ------------------------------------------------------------------
    def _join_new(
        self,
        streams: Sequence[_StarStream],
        new_idx: int,
        new_seq: int,
        pool: ScoredPool,
        budget: Optional[Budget] = None,
    ) -> None:
        """Join star *new_idx*'s newest match with the other stars'
        strictly earlier matches and offer every complete combination.

        Partners are taken in stream order and each one's candidates in
        fetch order, from the hash bucket its joint nodes select
        (:meth:`_StarStream.probe`) -- the nested loop over whole fetched
        lists minus the pairs that cannot agree, so combinations reach
        the pool in that loop's order.
        """
        new_match = streams[new_idx].fetched[-1][1]
        partners = [s for i, s in enumerate(streams) if i != new_idx]
        last = len(partners) - 1
        injective = self.options.injective
        budget_on = budget is not None

        def recurse(pos: int, partial: Match) -> None:
            bucket = partners[pos].probe(partial.assignment)
            if bucket is None:
                self.last_probe_misses += 1
                return
            for cand_seq, candidate in bucket:
                if cand_seq > new_seq:
                    break  # buckets are in sequence order
                if budget_on and budget.charge_join_steps():
                    raise _AnytimeStop
                self.last_joins_attempted += 1
                if not partial.consistent_with(candidate, injective):
                    continue
                if pos < last:
                    recurse(pos + 1, partial.merge_checked(candidate))
                    continue
                # A complete combination: build it only if it can enter
                # the pool.
                self.last_offered += 1
                if pool.admits(partial.score + candidate.score):
                    merged = partial.merge_checked(candidate)
                    pool.offer(merged.score, merged)

        recurse(0, new_match)

    # ------------------------------------------------------------------
    @property
    def total_depth(self) -> int:
        """``D = sum_i |L_i|`` of the last join (Fig. 14(d) metric)."""
        return sum(self.last_depths)
