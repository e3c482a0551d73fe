"""Shared fixtures: small deterministic graphs, scorers, workloads."""

from __future__ import annotations

import functools
import random
from pathlib import Path

import pytest

from repro.graph import KnowledgeGraph, dbpedia_like, yago2_like
from repro.query import Query, StarQuery, star_query
from repro.similarity import ScoringConfig, ScoringFunction


def build_movie_graph() -> KnowledgeGraph:
    """The running example of Fig. 1: a tiny movie knowledge graph."""
    g = KnowledgeGraph(name="movies")
    brad = g.add_node("Brad Pitt", "actor", ["drama"])
    angelina = g.add_node("Angelina Jolie", "actor")
    richard = g.add_node("Richard Linklater", "director")
    kathryn = g.add_node("Kathryn Bigelow", "director")
    troy = g.add_node("Troy", "film", ["war"])
    boyhood = g.add_node("Boyhood", "film", ["drama"])
    hurt = g.add_node("The Hurt Locker", "film", ["war"])
    oscar = g.add_node("Academy Award", "award")
    globe = g.add_node("Golden Globe", "award")
    venice = g.add_node("Venice", "place")
    g.add_edge(brad, troy, "acted_in")
    g.add_edge(brad, boyhood, "acted_in")
    g.add_edge(angelina, troy, "acted_in")
    g.add_edge(richard, boyhood, "directed")
    g.add_edge(kathryn, hurt, "directed")
    g.add_edge(boyhood, oscar, "film_won")
    g.add_edge(hurt, oscar, "film_won")
    g.add_edge(richard, globe, "won")
    g.add_edge(kathryn, oscar, "won")
    g.add_edge(angelina, oscar, "won")
    g.add_edge(brad, venice, "born_in")
    g.add_edge(brad, richard, "collaborated_with")
    g.add_edge(brad, angelina, "married_to")
    return g


def build_mutated_movie_graph() -> KnowledgeGraph:
    """The movie graph after a few mutations: tombstoned node and edges,
    a relabelled edge, an appended node, and the journal of all that."""
    g = build_movie_graph()
    g.remove_edge(1)
    g.remove_node(6)
    g.update_node_attrs(0, oscar=True)
    g.update_edge(0, relation="starred_in")
    g.add_node("Late Arrival", "director", keywords=("auteur",))
    return g


#: :func:`build_mutated_movie_graph` as the last build that had an
#: ``RKGS`` v1 writer saved it (PR 19's ``save_snapshot``, 723 bytes).
#: Nothing under ``src/`` can produce this file any more; it is what
#: keeps the v1 importer tested.
RKGS1_FIXTURE = Path(__file__).parent / "data" / "movies_v1.kgs"

#: :func:`build_mutated_movie_graph` as the last build that wrote RKGS2
#: format 2 saved it (with the semantic-tier ``ann.*`` sections and meta
#: counts format 3 dropped).  It keeps the format-2 read path tested.
RKGS2_V2_FIXTURE = Path(__file__).parent / "data" / "movies_v2.rkgs2"


def build_random_graph(seed: int, num_nodes: int = 30, num_edges: int = 60) -> KnowledgeGraph:
    """A small random typed graph for property tests (deterministic)."""
    rng = random.Random(seed)
    types = ["actor", "director", "film", "award", "place"]
    names = ["Brad", "Angelina", "Troy", "Boyhood", "Oscar", "Globe",
             "Venice", "Richard", "Kathryn", "Hurt", "Locker", "Pitt"]
    relations = ["acted_in", "directed", "won", "born_in", "married_to"]
    g = KnowledgeGraph(name=f"random-{seed}")
    for i in range(num_nodes):
        name = f"{rng.choice(names)} {rng.choice(names)}"
        g.add_node(name, rng.choice(types))
    made = 0
    attempts = 0
    while made < num_edges and attempts < num_edges * 10:
        attempts += 1
        a, b = rng.randrange(num_nodes), rng.randrange(num_nodes)
        if a == b:
            continue
        g.add_edge(a, b, rng.choice(relations))
        made += 1
    return g


@functools.lru_cache(maxsize=None)
def scorer_for(seed, graph=build_random_graph, **config) -> ScoringFunction:
    """The session's one scorer over ``graph(seed)`` under
    ``ScoringConfig(**config)``: Hypothesis re-runs the same seeds, so
    each graph is built once.  Callers must not mutate its graph."""
    return ScoringFunction(graph(seed), ScoringConfig(**config))


#: Stars over :func:`build_random_graph`'s names, as ``(pivot label,
#: pivot type, [(relation, leaf label, leaf type), ...])``: an untyped
#: ``?`` leaf alone, beside a named leaf, and a three-leaf star with an
#: untyped relation.
STARS = (
    ("Brad", "actor", [("acted_in", "?", "")]),
    ("Brad", "actor", [("acted_in", "Troy", ""), ("won", "?", "")]),
    ("Brad", "actor", [("?", "Brad", ""), ("directed", "?", ""),
                       ("born_in", "Venice", "")]),
)


def star_of(choice: int, stars=STARS) -> StarQuery:
    """Star *choice* of the table *stars* (see :data:`STARS`)."""
    pivot, pivot_type, leaves = stars[choice]
    return star_query(pivot, [(rel, label) for rel, label, _t in leaves],
                      pivot_type=pivot_type,
                      leaf_types=[t for _r, _l, t in leaves])


def triangle_query() -> Query:
    """A cyclic general query: an actor, a film they acted in, and a
    third node next to both."""
    query = Query(name="tri")
    a = query.add_node("Brad", type="actor")
    b = query.add_node("?", type="film")
    c = query.add_node("?")
    query.add_edge(a, b, "acted_in")
    query.add_edge(b, c, "?")
    query.add_edge(a, c, "?")
    return query


@pytest.fixture(scope="session")
def movie_graph() -> KnowledgeGraph:
    return build_movie_graph()


@pytest.fixture(scope="session")
def movie_scorer(movie_graph) -> ScoringFunction:
    return ScoringFunction(movie_graph)


@pytest.fixture(scope="session")
def yago_graph() -> KnowledgeGraph:
    return yago2_like(scale=0.2)


@pytest.fixture(scope="session")
def yago_scorer(yago_graph) -> ScoringFunction:
    return ScoringFunction(yago_graph)


@pytest.fixture(scope="session")
def dense_graph() -> KnowledgeGraph:
    return dbpedia_like(scale=0.15)


@pytest.fixture(scope="session")
def dense_scorer(dense_graph) -> ScoringFunction:
    return ScoringFunction(dense_graph, ScoringConfig(fast=True))
