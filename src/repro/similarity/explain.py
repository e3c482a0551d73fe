"""Score explanations: why did this node/match score what it scored?

A ranking function combining 46 measures is opaque without attribution;
this module decomposes any ``F_N`` / ``F_E`` value into per-measure
weighted contributions and renders full-match explanations.  Used by the
CLI's ``--explain`` flag and handy when tuning weights.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.similarity.descriptors import Descriptor

if TYPE_CHECKING:  # avoid a circular import; Query is annotation-only here
    from repro.query.model import Query
from repro.similarity.functions import EDGE_FUNCTIONS, NODE_FUNCTIONS
from repro.similarity.scoring import ScoringFunction


@dataclass(frozen=True)
class Contribution:
    """One measure's share of an aggregate score."""

    measure: str
    raw: float        # the measure's own [0, 1] output
    weighted: float   # after weight normalization (sums to the score)


def _contributions(
    catalog, weights, query, data, ctx, top
) -> List[Contribution]:
    """Positive weighted terms of the aggregate, largest first."""
    contributions: List[Contribution] = []
    for name, fn in catalog:
        weight = weights.get(name)
        if weight is None:
            continue
        raw = fn(query, data, ctx)
        if raw > 0.0:
            contributions.append(Contribution(name, raw, weight * raw))
    contributions.sort(key=lambda c: -c.weighted)
    return contributions[:top] if top else contributions


def explain_node_score(
    scorer: ScoringFunction,
    query: Descriptor,
    node_id: int,
    top: Optional[int] = None,
) -> List[Contribution]:
    """Per-measure breakdown of ``F_N(query, node_id)``.

    The weighted contributions sum to the memoized score (wildcard
    queries use the popularity formula and return a single synthetic
    contribution).  *top* keeps only the largest contributors.
    """
    if query.is_wildcard:
        score = scorer.node_score(query, node_id)
        return [Contribution("wildcard_base_plus_popularity", score, score)]
    return _contributions(
        NODE_FUNCTIONS, scorer.node_weights, query,
        scorer.descriptors.get(node_id), scorer.corpus, top,
    )


def explain_relation_score(
    scorer: ScoringFunction,
    query: Descriptor,
    relation: str,
    top: Optional[int] = None,
) -> List[Contribution]:
    """Per-measure breakdown of a direct edge's ``F_E``."""
    return _contributions(
        EDGE_FUNCTIONS, scorer.edge_weights, query,
        Descriptor(relation), scorer.corpus, top,
    )


def explain_match(
    scorer: ScoringFunction,
    query: "Query",
    match,
    measures_per_element: int = 3,
) -> str:
    """Human-readable explanation of one :class:`repro.core.Match`.

    Lists every query node and edge with its score and the leading
    measure contributions (node side) / path interpretation (edge side).
    """
    graph = scorer.graph
    lines: List[str] = [f"match score {match.score:.3f}"]
    for qid in sorted(match.assignment):
        node = query.nodes[qid]
        data_node = match.assignment[qid]
        score = match.node_scores.get(qid, 0.0)
        lines.append(
            f"  node {qid} {node.label!r} -> {graph.describe(data_node)}"
            f"  F_N={score:.3f}"
        )
        for c in explain_node_score(
            scorer, node.descriptor, data_node, top=measures_per_element
        ):
            lines.append(
                f"      {c.measure:24s} raw={c.raw:.2f}"
                f"  contributes {c.weighted:.3f}"
            )
    for edge in query.edges:
        if edge.id not in match.edge_scores:
            continue
        hops = match.edge_hops.get(edge.id, 1)
        score = match.edge_scores[edge.id]
        src = match.assignment[edge.src]
        dst = match.assignment[edge.dst]
        if hops == 1:
            detail = "direct edge"
        else:
            detail = f"path of length {hops} (decay lambda^{hops - 1})"
        lines.append(
            f"  edge {edge.id} {edge.label!r} "
            f"{graph.node(src).name} ~ {graph.node(dst).name}"
            f"  F_E={score:.3f}  [{detail}]"
        )
    return "\n".join(lines)
