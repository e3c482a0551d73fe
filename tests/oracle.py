"""Reusable differential oracle harness.

Checks any engine configuration against the exhaustive brute-force
oracle.  The comparison is *tie-tolerant*: scores must agree pairwise at
every rank, and every returned assignment must appear in the oracle's
full enumeration with exactly that score -- so engines that break score
ties differently from the oracle's ``(-score, key)`` order still pass,
while any wrong score, invalid assignment or duplicate emission fails.

Used by ``tests/test_matrix.py`` (the configuration matrix) and
available to any engine configuration::

    from tests.oracle import assert_against_oracle

    assert_against_oracle("stard", scorer, star, k=5, d=2)
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Optional, Set, Tuple

from repro.baselines.brute_force import brute_force_matches, brute_force_star
from repro.core.framework import Star
from repro.core.stard import StarDSearch
from repro.core.stark import StarKSearch
from repro.query.decomposition import decompose
from repro.query.model import Query, StarQuery

#: Score comparisons round to this many decimals (float summation order
#: differs between engines).
ROUND = 9

#: Engine names :func:`run_algorithm` understands.
ALGORITHMS = ("stark", "stard", "starjoin")


def rounded_scores(matches) -> List[float]:
    return [round(m.score, ROUND) for m in matches]


def oracle_matches(scorer, query, d: int = 1, injective: bool = True,
                   directed: bool = False):
    """Every admissible match, best first (ties by assignment key)."""
    if isinstance(query, StarQuery):
        # brute_force_star truncates; ask for everything.
        return brute_force_star(
            scorer, query, k=2_000_000, d=d, injective=injective,
            directed=directed,
        )
    return brute_force_matches(scorer, query, d=d, injective=injective,
                               directed=directed)


def run_algorithm(
    name: str,
    scorer,
    query,
    k: int,
    d: int = 1,
    alpha: float = 0.5,
    method: str = "maxdeg",
    injective: bool = True,
):
    """Top-k matches of *query* under the named engine configuration.

    ``stark``/``stard`` take the query as a star (converted if needed);
    ``starjoin`` requires a general :class:`Query` and is forced through
    the rank-join path by passing an explicit decomposition (otherwise
    the framework would shortcut star-shaped queries to stark/stard).
    """
    if name in ("stark", "stard"):
        star = (query if isinstance(query, StarQuery)
                else StarQuery.from_query(query))
        cls = StarKSearch if name == "stark" else StarDSearch
        return cls(scorer, d=d, injective=injective).search(star, k)
    if name == "starjoin":
        if isinstance(query, StarQuery):
            raise TypeError("starjoin differential needs a general Query")
        engine = Star(
            scorer.graph, scorer=scorer, d=d, alpha=alpha,
            decomposition_method=method, injective=injective,
        )
        decomposition = decompose(query, method=method, scorer=scorer)
        return engine.search(query, k, decomposition=decomposition)
    raise ValueError(f"unknown algorithm {name!r}; choose from {ALGORITHMS}")


def neighbor_ids(graph, v: int) -> List[int]:
    """The neighbor ids of ``graph.neighbors(v)``, in its order: row
    ``v`` of ``graph.columns()`` by its definition."""
    return [nbr for nbr, _eid in graph.neighbors(v)]


def reference_grouped_relations(graph, v: int, orientation: int = 0):
    """``graph.grouped_relations(v, orientation)`` by its definition: the
    orientation's neighbor list grouped by neighbor in first-seen order,
    with one label, or a tuple of the labels of parallel edges."""
    entries = {0: graph.neighbors, 1: graph.out_neighbors,
               -1: graph.in_neighbors}[orientation](v)
    grouped: Dict[int, List[str]] = {}
    for nbr, eid in entries:
        grouped.setdefault(nbr, []).append(graph.edge(eid)[2].relation)
    return [(nbr, labels[0] if len(labels) == 1 else tuple(labels))
            for nbr, labels in grouped.items()]


def assert_grouped_relations(graph) -> None:
    """Every live row of every orientation equals its reference."""
    for v in graph.nodes():
        for orientation in (0, 1, -1):
            assert graph.grouped_relations(v, orientation) == (
                reference_grouped_relations(graph, v, orientation)
            ), (v, orientation)


def row_bounds(plan) -> List[Optional[float]]:
    """Every candidate's row bound, read off its row by *plan*'s reader
    (what the lazy loop refines a column bound to), each checked to be
    at most its column bound, and None wherever the column bound is."""
    rows = []
    for index, column in enumerate(plan.bounds):
        row = plan.reader(index)
        if column is None:
            assert row is None, plan.pivots[index]
        else:
            assert row is None or row <= column, plan.pivots[index]
        rows.append(row)
    return rows


def assert_same_results(got, expected) -> None:
    """Exact (assignment, score) equality between two engine runs."""
    assert (
        [(m.key(), round(m.score, ROUND)) for m in got]
        == [(m.key(), round(m.score, ROUND)) for m in expected]
    )


def assert_against_oracle(
    name: str,
    scorer,
    query,
    k: int,
    d: int = 1,
    **opts,
):
    """Differential check of one engine configuration vs brute force.

    Asserts, in order:

    1. rank-by-rank score equality with the oracle top-k;
    2. every returned assignment exists in the full oracle enumeration
       with exactly the returned score (tie-tolerant assignment check);
    3. no assignment is emitted twice.

    Returns ``(got, oracle_full)`` for further inspection.
    """
    got = run_algorithm(name, scorer, query, k, d=d, **opts)
    full = assert_matches_meet_oracle(
        got, scorer, query, k, d=d, injective=opts.get("injective", True),
        label=f"{name}(k={k}, d={d})",
    )
    return got, full


def assert_matches_meet_oracle(
    got, scorer, query, k: int, d: int = 1, injective: bool = True,
    label: str = "engine", directed: bool = False,
):
    """The three checks of :func:`assert_against_oracle` on a result list
    any engine produced; returns the oracle's full enumeration."""
    full = oracle_matches(scorer, query, d=d, injective=injective,
                          directed=directed)
    assert_meets(got, full, k, label)
    return full


def assert_meets(got, full, k: int, label: str = "engine") -> None:
    """The three checks of :func:`assert_against_oracle` against *full*,
    the oracle's enumeration (:func:`oracle_matches`)."""
    want = full[:k]
    assert rounded_scores(got) == rounded_scores(want), (
        f"{label} scores diverge from oracle: "
        f"{rounded_scores(got)} != {rounded_scores(want)}"
    )
    by_score: Dict[float, Set[Tuple]] = defaultdict(set)
    for m in full:
        by_score[round(m.score, ROUND)].add(m.key())
    for m in got:
        key, score = m.key(), round(m.score, ROUND)
        assert key in by_score[score], (
            f"{label} returned assignment {key} with score {score} "
            "that the oracle never produced"
        )
    keys = [m.key() for m in got]
    assert len(keys) == len(set(keys)), f"{label} emitted a duplicate match"
