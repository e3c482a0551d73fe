"""Query decomposition into star subqueries (Section VI-B).

Given a general query ``Q``, STAR decomposes it into stars whose pivots
cover every edge; each edge is assigned to exactly one incident pivot, so
the stars partition ``E_Q`` (node scores shared between stars are later
split by the alpha-scheme).  The paper frames decomposition as

    maximize  sum_i delta(Q_i*)  -  lambda * sum_i |f(Q_i*) - f_bar|
    subject to minimal star count m                         (Eq. 5)

and enumerates decompositions by increasing ``m``, returning the best-
scoring one at the first feasible ``m``.  Features:

* ``SimSize``  -- ``f = |E_i*|`` (balanced edge partition);
* ``SimTop``   -- ``f`` = sampled top-1 pivot match score;
* ``SimDec``   -- ``delta`` = estimated average score decrement of the
  star's match list, using sampled candidate counts and the edge
  connection probability ``p`` estimated offline.

Baselines: ``Rand`` (random pivots) and ``MaxDeg`` (greedy highest degree).
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.errors import DecompositionError
from repro.query.model import Query, QueryEdge, QueryNode, StarQuery

#: Edge-connection probability estimated offline via edge queries
#: (the paper reports p = 4.5e-4 for DBpedia).
DEFAULT_CONNECT_PROBABILITY = 4.5e-4

METHODS = ("rand", "maxdeg", "simsize", "simtop", "simdec")


@dataclass
class Decomposition:
    """Result of decomposing a query.

    Attributes:
        stars: the star subqueries (edge-disjoint, jointly covering E_Q).
        pivots: pivot query-node ids, parallel to ``stars``.
        method: decomposition method name.
        objective: Eq. 5 objective value (0.0 for rand/maxdeg).
    """

    stars: List[StarQuery]
    pivots: List[int]
    method: str
    objective: float = 0.0

    @property
    def num_stars(self) -> int:
        return len(self.stars)

    def membership(self) -> Dict[int, List[int]]:
        """Query node id -> indices of the stars containing it, in
        decomposition order (the alpha-scheme's "first star" is
        ``membership[qid][0]``)."""
        membership: Dict[int, List[int]] = {}
        for star_idx, star in enumerate(self.stars):
            for qid in set(star.node_ids()):
                membership.setdefault(qid, []).append(star_idx)
        return membership

    def joint_nodes(self) -> Set[int]:
        """Query nodes appearing in more than one star."""
        return {
            qid for qid, star_idxs in self.membership().items()
            if len(star_idxs) > 1
        }


class NodeStatisticsSampler:
    """Samples per-query-node match statistics for SimTop / SimDec.

    The paper samples ~200 graph nodes per query node and computes their
    match scores online; we do the same through the shared scorer so the
    sampling cost is measured with everything else.
    """

    def __init__(self, scorer, sample_size: int = 200, seed: int = 41) -> None:
        self._scorer = scorer
        self._sample_size = sample_size
        self._rng = random.Random(seed)
        self._cache: Dict[int, Tuple[float, float, float]] = {}
        graph = scorer.graph
        n = graph.num_nodes
        k = min(n, sample_size)
        # the live ids: after a node removal, range(n) holds tombstones
        live = (range(n) if graph.num_node_slots == n
                else list(graph.nodes()))
        self._sample = self._rng.sample(live, k) if n else []
        self._scale = n / max(1, k)

    def stats(self, node: QueryNode) -> Tuple[float, float, float]:
        """Return ``(top1_score, mean_score, est_candidates)`` for *node*.

        ``est_candidates`` extrapolates the sampled above-threshold count
        to the full graph.
        """
        cached = self._cache.get(node.id)
        if cached is not None:
            return cached
        scorer = self._scorer
        threshold = scorer.config.node_threshold
        desc = node.descriptor
        scores = [scorer.node_score(desc, v) for v in self._sample]
        passing = [s for s in scores if s >= threshold]
        top1 = max(passing, default=0.0)
        mean = sum(passing) / len(passing) if passing else 0.0
        est = len(passing) * self._scale
        result = (top1, mean, max(1.0, est))
        self._cache[node.id] = result
        return result


def decompose(
    query: Query,
    method: str = "simdec",
    scorer=None,
    seed: int = 41,
    lam: float = 1.0,
    sample_size: int = 200,
    connect_probability: float = DEFAULT_CONNECT_PROBABILITY,
    max_pivot_sets: int = 2000,
) -> Decomposition:
    """Decompose *query* into star subqueries with the given *method*.

    Args:
        method: one of :data:`METHODS`.
        scorer: a :class:`repro.similarity.scoring.ScoringFunction`;
            required by ``simtop`` and ``simdec``.
        lam: the Eq. 5 trade-off parameter.
        connect_probability: SimDec's ``p``.
        max_pivot_sets: cap on enumerated pivot covers per size ``m``.

    Raises:
        DecompositionError: on unknown method, missing scorer, or
            structurally undecomposable queries.
    """
    method = method.lower()
    if method not in METHODS:
        raise DecompositionError(
            f"unknown decomposition method {method!r}; choose from {METHODS}"
        )
    query.validate()
    if not query.edges:
        star = StarQuery.from_query(query)
        return Decomposition([star], [star.pivot.id], method)
    if method in ("simtop", "simdec") and scorer is None:
        raise DecompositionError(f"method {method!r} requires a scorer")

    if method == "rand":
        return _decompose_rand(query, seed)
    if method == "maxdeg":
        return _decompose_maxdeg(query)

    sampler = (
        NodeStatisticsSampler(scorer, sample_size=sample_size, seed=seed)
        if scorer is not None
        else None
    )
    return _decompose_optimized(
        query, method, sampler, lam, connect_probability, max_pivot_sets
    )


# ----------------------------------------------------------------------
# Edge assignment and star construction
# ----------------------------------------------------------------------

def _assign_edges(
    query: Query, pivots: Sequence[int]
) -> Optional[Dict[int, List[QueryEdge]]]:
    """Assign each query edge to exactly one incident pivot.

    Forced edges (one pivot endpoint) first; flexible edges go to the
    pivot with the currently smallest star, which keeps partitions
    balanced (the SimSize intuition).  Returns None if some edge touches
    no pivot (not a cover).
    """
    pivot_set = set(pivots)
    assignment: Dict[int, List[QueryEdge]] = {p: [] for p in pivots}
    flexible: List[QueryEdge] = []
    for edge in query.edges:
        src_p, dst_p = edge.src in pivot_set, edge.dst in pivot_set
        if src_p and dst_p:
            flexible.append(edge)
        elif src_p:
            assignment[edge.src].append(edge)
        elif dst_p:
            assignment[edge.dst].append(edge)
        else:
            return None
    for edge in flexible:
        target = min((edge.src, edge.dst), key=lambda p: len(assignment[p]))
        assignment[target].append(edge)
    # Every pivot must anchor at least one edge, otherwise drop it.
    return {p: edges for p, edges in assignment.items() if edges}


def _build_stars(
    query: Query, assignment: Dict[int, List[QueryEdge]]
) -> Tuple[List[StarQuery], List[int]]:
    stars: List[StarQuery] = []
    pivots: List[int] = []
    for pivot_id, edges in assignment.items():
        leaves = [(query.nodes[e.other(pivot_id)], e) for e in edges]
        stars.append(StarQuery(query.nodes[pivot_id], leaves,
                               name=f"{query.name}*{pivot_id}"))
        pivots.append(pivot_id)
    return stars, pivots


def _finish(
    query: Query, pivots: Sequence[int], method: str, objective: float = 0.0
) -> Decomposition:
    assignment = _assign_edges(query, pivots)
    if assignment is None:
        raise DecompositionError(f"pivots {pivots} do not cover all edges")
    stars, pivot_ids = _build_stars(query, assignment)
    return Decomposition(stars, pivot_ids, method, objective)


# ----------------------------------------------------------------------
# Baseline methods
# ----------------------------------------------------------------------

def _decompose_rand(query: Query, seed: int) -> Decomposition:
    """Random greedy cover: repeatedly pick a random node of an uncovered
    edge as pivot."""
    rng = random.Random(seed)
    uncovered = set(range(query.num_edges))
    pivots: List[int] = []
    while uncovered:
        edge = query.edges[rng.choice(sorted(uncovered))]
        pivot = rng.choice((edge.src, edge.dst))
        pivots.append(pivot)
        uncovered -= {
            eid for eid in uncovered
            if pivot in (query.edges[eid].src, query.edges[eid].dst)
        }
    return _finish(query, pivots, "rand")


def _decompose_maxdeg(query: Query) -> Decomposition:
    """Greedy cover picking the node covering the most uncovered edges."""
    uncovered = set(range(query.num_edges))
    pivots: List[int] = []
    while uncovered:
        def coverage(node_id: int) -> int:
            return sum(
                1 for eid in uncovered
                if node_id in (query.edges[eid].src, query.edges[eid].dst)
            )

        best = max(range(query.num_nodes), key=lambda v: (coverage(v), -v))
        if coverage(best) == 0:  # pragma: no cover - cannot happen
            raise DecompositionError("maxdeg stalled")
        pivots.append(best)
        uncovered -= {
            eid for eid in uncovered
            if best in (query.edges[eid].src, query.edges[eid].dst)
        }
    return _finish(query, pivots, "maxdeg")


# ----------------------------------------------------------------------
# Eq. 5 optimized methods
# ----------------------------------------------------------------------

def _decompose_optimized(
    query: Query,
    method: str,
    sampler: Optional[NodeStatisticsSampler],
    lam: float,
    connect_probability: float,
    max_pivot_sets: int,
) -> Decomposition:
    """Enumerate pivot covers by increasing size; score with Eq. 5."""
    node_ids = list(range(query.num_nodes))
    for m in range(1, query.num_nodes + 1):
        best: Optional[Tuple[float, Decomposition]] = None
        enumerated = 0
        for pivot_combo in itertools.combinations(node_ids, m):
            enumerated += 1
            if enumerated > max_pivot_sets:
                break
            assignment = _assign_edges(query, pivot_combo)
            if assignment is None or len(assignment) != m:
                continue
            stars, pivots = _build_stars(query, assignment)
            objective = _eq5_objective(
                stars, method, sampler, lam, connect_probability
            )
            candidate = Decomposition(stars, pivots, method, objective)
            if best is None or objective > best[0]:
                best = (objective, candidate)
        if best is not None:
            return best[1]
    raise DecompositionError(f"no feasible decomposition for {query!r}")


def _eq5_objective(
    stars: Sequence[StarQuery],
    method: str,
    sampler: Optional[NodeStatisticsSampler],
    lam: float,
    connect_probability: float,
) -> float:
    features = [
        _feature(star, method, sampler, connect_probability) for star in stars
    ]
    deltas = [
        _score_decrement(star, sampler, connect_probability)
        if method == "simdec"
        else 0.0
        for star in stars
    ]
    f_bar = sum(features) / len(features)
    return sum(deltas) - lam * sum(abs(f - f_bar) for f in features)


def _feature(
    star: StarQuery,
    method: str,
    sampler: Optional[NodeStatisticsSampler],
    connect_probability: float,
) -> float:
    if method == "simsize":
        return float(star.num_edges)
    if method == "simtop":
        assert sampler is not None
        top1, _mean, _est = sampler.stats(star.pivot)
        return top1
    # simdec: the feature *is* the decrement (Eq. 5 with f = delta).
    return _score_decrement(star, sampler, connect_probability)


def _score_decrement(
    star: StarQuery,
    sampler: Optional[NodeStatisticsSampler],
    connect_probability: float,
) -> float:
    """SimDec's estimated average score decrement of the star's match list.

    ``delta ~ (F_top1 - F_floor) / n_i`` where the match-list length
    ``n_i`` is estimated as ``prod_v n_v * p^{|E_i*|}`` (sampled candidate
    counts discounted by the probability that candidate pairs connect).
    """
    if sampler is None:  # pragma: no cover - guarded by decompose()
        return 0.0
    top_total = 0.0
    floor_total = 0.0
    est_matches = 1.0
    pivot_top, pivot_mean, pivot_count = sampler.stats(star.pivot)
    top_total += pivot_top
    floor_total += pivot_mean
    est_matches *= pivot_count
    for leaf, _edge in star.leaves:
        top, mean, count = sampler.stats(leaf)
        top_total += top
        floor_total += mean
        est_matches *= count
    est_matches *= connect_probability ** star.num_edges
    spread = max(0.0, top_total - floor_total)
    return spread / max(1.0, est_matches)
