"""The eight workloads: seeded inputs, the system under test, the oracle.

Every workload runs over the same graph (``dbpedia_like(scale=0.5,
seed=7)``) with ``k=10`` and ``plan="static"``.  The query pools are
instantiated from a constant (``POOL_SEED``) and belong to the
benchmark's definition like the graph does; ``--seed`` drives only what
is sampled from them: the order of a block, the Zipf draw sequence, the
mutation batches, which answers meet the oracle where that is a sample.
(Instantiating fresh entities per seed moved ``star_cold``'s median
latency by +-15% between seeds, more than its bound: scoring a descriptor
costs more the longer the name it carries.)  The answers are therefore
the same for every seed, and one pinned digest per workload covers all of
them.  The program only ever receives the generated inputs.

An operation is an int: ``op >= 0`` answers ``queries[op]``, ``op < 0``
applies write batch ``-op - 1``.  ``ops`` is one block; the measured
phase replays it.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import threading
import time
from typing import Dict, List, Optional, Tuple

from repro.ann import attach_semantic
from repro.baselines import brute_force_topk
from repro.core import Star
from repro.dynamic import apply_operations
from repro.errors import QueryError
from repro.graph import KnowledgeGraph, dbpedia_like
from repro.perf import CandidateCache, attach_cache
from repro.query import Query, parse_query
from repro.query.keywords import synthesize_query
from repro.query.parser import format_query
from repro.query.templates import all_templates
from repro.query.workload import complex_workload, instantiate
from repro.runtime.slo import derive_budget_spec, resolve_slo
from repro.serve import (
    EngineContext,
    QueryRequest,
    ServeApp,
    ServeClient,
    ServerHandle,
    execute_payload,
)
from repro.shard import ShardedEngine
from repro.similarity import ScoringConfig
from repro.similarity.scoring import ScoringFunction
from repro.store import write_store

K = 10
#: The query pools are part of the benchmark's definition, like the
#: graph: they are instantiated from this constant.  ``--seed`` drives
#: what is sampled from them (see the module docstring).
POOL_SEED = 2016
GRAPH_SEED = 7
GRAPH_SCALE = 0.5
SMOKE_GRAPH_SCALE = 0.15
ZIPF_S = 1.1
#: Size of the pools that are replayed in order (``star_cold``,
#: ``sharded_cold``, ``star_d2``; ``general_join`` has 3 x 5).  With 15
#: queries the 90th percentile over all executions lies in the middle of
#: the replays of the 14th slowest query; with 20 it lay on the border
#: between the 18th and the 19th and jumped from one to the other.
COLD_STARS = 15
#: Score vectors are compared rank by rank after rounding (procedures
#: may order exact ties differently and sum floats in another order).
ROUND = 9

Vector = List[float]


def build_graph(smoke: bool = False) -> KnowledgeGraph:
    return dbpedia_like(scale=SMOKE_GRAPH_SCALE if smoke else GRAPH_SCALE,
                        seed=GRAPH_SEED)


def score_vector(matches) -> Vector:
    return [round(m.score, ROUND) for m in matches]


# ----------------------------------------------------------------------
# Seeded input generation (pure functions of graph + seed)
# ----------------------------------------------------------------------
def template_rotation() -> list:
    """The 50 templates in one fixed, size-interleaved order, so that a
    pool of any size holds a mix of query shapes."""
    templates = sorted(all_templates(), key=lambda t: t.name)
    random.Random(GRAPH_SEED).shuffle(templates)
    return templates


def _text_safe(query: Query) -> bool:
    """True when the query survives the text round trip unchanged.

    ``serve_stack`` sends queries as text; two leaves with one label and
    type would unify into a single node when parsed back.
    """
    text = format_query(query)
    try:
        back = parse_query(text)
    except QueryError:
        return False
    return (back.num_nodes == query.num_nodes
            and format_query(back) == text)


def template_stars(graph, rng: random.Random, count: int,
                   seen: Optional[set] = None) -> List[Query]:
    """*count* distinct star queries, template ``i % 50`` for query ``i``."""
    rotation = template_rotation()
    seen = set() if seen is None else seen
    out: List[Query] = []
    for i in range(count):
        template = rotation[i % len(rotation)]
        for _attempt in range(50):
            query = instantiate(template, graph, rng)
            text = format_query(query)
            if text not in seen and _text_safe(query):
                break
        else:
            raise QueryError(f"no fresh instance of {template.name}")
        seen.add(text)
        out.append(query)
    return out


def keyword_stars(graph, rng: random.Random, count: int,
                  seen: Optional[set] = None) -> List[Query]:
    """Keyword-synthesized stars: a typed-wildcard pivot next to a named
    entity (``"film Spike"`` -> ``(?:film) -[?]- (Spike)``)."""
    seen = set() if seen is None else seen
    nodes = sorted(graph.nodes())
    out: List[Query] = []
    while len(out) < count:
        node = rng.choice(nodes)
        nbrs = sorted(nbr for nbr, _eid in graph.neighbors(node))
        if not nbrs:
            continue
        pivot_type = graph.node(rng.choice(nbrs)).type
        token = graph.node(node).name.split()[0]
        try:
            query = synthesize_query(graph, f"{pivot_type} {token}").query
        except QueryError:
            continue
        text = format_query(query)
        if text in seen or not query.is_star() or not _text_safe(query) \
                or query.num_nodes < 2:
            continue
        seen.add(text)
        out.append(query)
    return out


def mixed_stars(graph, seed: int, count: int, keyword_every: int) \
        -> List[Query]:
    """Template stars with every *keyword_every*-th one keyword-built."""
    rng = random.Random(seed)
    seen: set = set()
    num_keyword = count // keyword_every
    stars = template_stars(graph, rng, count - num_keyword, seen)
    keywords = keyword_stars(graph, rng, num_keyword, seen)
    out: List[Query] = []
    for i in range(count):
        source = keywords if i % keyword_every == keyword_every - 1 else stars
        out.append(source.pop(0))
    return out


def zipf_draws(seed: int, items: int, count: int) -> List[int]:
    """About *count* draws over ``range(items)`` in seeded order.

    Item ``r`` appears in proportion to ``1 / (r + 1) ** 1.1`` (rank 0
    is the most popular) and at least once.  The multiplicities are the
    expected ones, not sampled: which query sits at the 90th percentile
    of a block must not depend on the seed; the order does.
    """
    weights = [1.0 / (rank + 1) ** ZIPF_S for rank in range(items)]
    scale = count / sum(weights)
    draws = [rank for rank, weight in enumerate(weights)
             for _ in range(max(1, round(weight * scale)))]
    random.Random(seed * 7919 + 1).shuffle(draws)
    return draws


def general_queries(graph, seed: int, per_shape: int) -> List[Query]:
    out: List[Query] = []
    for offset, shape in enumerate(((3, 3), (4, 4), (5, 4))):
        out.extend(complex_workload(graph, per_shape, shape=shape,
                                    seed=seed * 31 + offset))
    # interleave the shapes so every prefix holds all three
    return [out[s * per_shape + i]
            for i in range(per_shape) for s in range(3)]


def perturb(name: str, kind: int, rng: random.Random) -> str:
    """Push *name* out of token reach while keeping it char-similar:
    space-drop (0), adjacent transposition (1) or vowel-drop (2)."""
    squashed = "".join(ch for ch in name.lower() if ch.isalnum())
    if kind == 0 or len(squashed) < 4:
        return squashed
    if kind == 1:
        i = rng.randrange(1, len(squashed) - 2)
        chars = list(squashed)
        chars[i], chars[i + 1] = chars[i + 1], chars[i]
        return "".join(chars)
    vowels = [i for i, ch in enumerate(squashed[1:-1], start=1)
              if ch in "aeiou"]
    if not vowels:
        return squashed
    drop = rng.choice(vowels)
    return squashed[:drop] + squashed[drop + 1:]


def oov_queries(graph, count: int) -> Tuple[List[Query], List[int]]:
    """One-leaf stars whose pivot is a perturbed entity name.

    The target entities and the damage done to their names are fixed:
    which names an embedding can recover is a property of the names
    (sampling them per seed moved ``recall_at_k`` by +-8%), and a
    ``recall_at_k`` that is the same for every seed can be gated with
    "may not fall".  The pivot is untyped (a type would fill the
    shortlist through the subtype index and keep the semantic tier out)
    and the leaf is a plain wildcard, so the token shortlist is empty by
    construction.
    """
    by_name: Dict[str, int] = {}
    for nid in sorted(graph.nodes()):
        name = graph.node(nid).name
        if len(name) >= 6 and graph.degree(nid) > 0:
            by_name.setdefault(name, nid)
    targets = sorted(by_name.values())
    rng = random.Random(POOL_SEED)
    rng.shuffle(targets)
    queries: List[Query] = []
    truths: List[int] = []
    for i, nid in enumerate(targets[:count]):
        query = Query(name=f"oov{i}")
        pivot = query.add_node(perturb(graph.node(nid).name, i % 3, rng))
        leaf = query.add_node("?")
        query.add_edge(pivot, leaf, "?")
        queries.append(query)
        truths.append(nid)
    return queries, truths


def write_batches(graph, seed: int, count: int) -> List[List[list]]:
    """*count* batches of 4 ``add_edge`` + 1 ``update_node_attrs``.

    Endpoints come from the lower-degree half of the graph, so that no
    batch moves the max-degree normalizer (which would drop every
    memoized score and turn the workload into ``star_cold``).
    """
    rng = random.Random(seed * 104729 + 3)
    nodes = sorted(graph.nodes(), key=lambda n: (graph.degree(n), n))
    pool = nodes[: max(8, len(nodes) // 2)]
    relations = sorted(graph.relations())
    batches: List[List[list]] = []
    for b in range(count):
        batch: List[list] = []
        for _ in range(4):
            src, dst = rng.sample(pool, 2)
            batch.append(["add_edge", src, dst, rng.choice(relations)])
        batch.append(["update_node_attrs", rng.choice(pool),
                      {"bench_rev": b}])
        batches.append(batch)
    return batches


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
def run_threads(target, count: int) -> None:
    """Run ``target(thread)`` on *count* threads; re-raise a failure."""
    errors: List[BaseException] = []

    def guarded(thread: int) -> None:
        try:
            target(thread)
        except BaseException as exc:  # re-raised below, on the caller
            errors.append(exc)

    pool = [threading.Thread(target=guarded, args=(t,))
            for t in range(count)]
    for worker in pool:
        worker.start()
    for worker in pool:
        worker.join()
    if errors:
        raise errors[0]


def shuffled(seed: int, count: int) -> List[int]:
    order = list(range(count))
    random.Random(seed * 15485863 + 5).shuffle(order)
    return order


def rotated(seed: int, count: int) -> List[int]:
    """``range(count)`` started at a seeded position.  For warmed blocks:
    every query keeps its predecessor, so what the previous query left in
    the CPU's caches is the same for every seed."""
    start = random.Random(seed * 15485863 + 5).randrange(count)
    return [(start + i) % count for i in range(count)]


class Workload:
    """Base: a library engine answering pre-built queries in one thread.

    ``queries`` is the pool, ``ops`` one *block*: the measured phase
    replays the block until its time is up, so that every operation is
    timed several times on identical state.
    """

    name = ""
    why = ""
    threads = 1
    d = 1
    #: every pass starts from a fresh engine (nothing is memoized)
    cold = False
    #: how many queries besides query 0 meet the oracle in a single run,
    #: drawn by the seed; None: every distinct query does
    oracle_sample: Optional[int] = None
    #: the sample is there for the single run's time only: ``--verify-all``
    #: (and so the whole-set mode) checks every distinct query
    oracle_affordable = True
    config: Optional[ScoringConfig] = None
    candidate_limit: Optional[int] = None

    def __init__(self, graph, seed: int, smoke: bool, out_dir: str) -> None:
        self.graph = graph
        self.seed = seed
        self.smoke = smoke
        self.out_dir = out_dir
        self.queries: List[Query] = []
        self.ops: List[int] = []
        self.engine = None
        self.make_inputs()
        self.texts = [format_query(q).replace("\n", ";")
                      for q in self.queries]

    def scaled(self, count: int, floor: int = 2) -> int:
        """*count*, or a fifth of it (at least *floor*) under ``--smoke``."""
        return max(floor, count // 5) if self.smoke else count

    # -- inputs ----------------------------------------------------------
    def make_inputs(self) -> None:
        raise NotImplementedError

    def input_digest(self) -> str:
        payload = json.dumps({"texts": self.texts, "ops": self.ops,
                              "extra": self.extra_inputs()},
                             sort_keys=True)
        return hashlib.sha256(payload.encode()).hexdigest()[:16]

    def extra_inputs(self):
        return None

    def sample_key(self, position: int):
        """Operations with one key do identical work: their timings are
        samples of one latency.  By default, the query id."""
        return self.ops[position]

    # -- system under test ----------------------------------------------
    def prepare(self) -> None:
        """Artifacts the build starts from (the store file)."""

    def build(self) -> None:
        self.engine = Star(self.graph, config=self.config, d=self.d,
                           candidate_limit=self.candidate_limit,
                           **self.engine_options())

    def engine_options(self) -> dict:
        return {}

    def warm(self) -> None:
        """Warm-up pass: every distinct query once."""
        if not self.cold:
            for qi in range(len(self.queries)):
                self.run(qi)

    def begin_pass(self) -> None:
        """Untimed, before each pass over the block."""
        if self.cold:
            self.close()
            self.build()

    def run(self, op: int, thread: int = 0) -> Optional[Vector]:
        return score_vector(self.engine.search(self.queries[op], K))

    def close(self) -> None:
        self.engine = None

    def cleanup(self) -> None:
        """Remove files the workload wrote."""

    def settle(self) -> None:
        """Before verification: finish what the last pass left undone."""

    def last_stats(self) -> Optional[dict]:
        """``EngineStats`` counters of the last answered query."""
        return getattr(self.engine, "last_stats", None)

    def scorer(self) -> Optional[ScoringFunction]:
        return getattr(self.engine, "scorer", None)

    def traced_twin(self) -> "Workload":
        """The object the traced run drives: self, unless the work
        happens in forked processes that cannot be seen from outside."""
        return self

    # -- oracle ----------------------------------------------------------
    def verify_ids(self, verify_all: bool) -> List[int]:
        """Query ids that meet the oracle: every distinct query, or query
        0 (the first answer) plus a seeded sample of the others."""
        others = sorted(set(op for op in self.ops if op > 0))
        if self.oracle_sample is not None \
                and not (verify_all and self.oracle_affordable):
            count = min(self.scaled(self.oracle_sample, 2), len(others))
            others = sorted(random.Random(self.seed * 6151 + 11)
                            .sample(others, count))
        return [0] + others

    def digest_extra(self):
        """What the answer digest covers besides the score vectors."""
        return None

    def oracle_scorer(self) -> ScoringFunction:
        """A scorer of its own: shares no memo, cache or index with the
        engine under test."""
        return ScoringFunction(self.graph, self.config)

    def oracle(self, scorer: ScoringFunction, qi: int) -> Vector:
        return score_vector(brute_force_topk(
            scorer, self.queries[qi], K, d=self.d))


class StarCold(Workload):
    name = "star_cold"
    why = ("15 distinct d=1 stars on a fresh engine per pass, no cache: "
           "every descriptor is scored online (similarity + candidates)")
    cold = True

    def make_inputs(self) -> None:
        self.queries = mixed_stars(self.graph, POOL_SEED,
                                   self.scaled(COLD_STARS, 5),
                                   keyword_every=5)
        self.passes_begun = 0
        self.ops = shuffled(self.seed, len(self.queries))

    def begin_pass(self) -> None:
        """A fresh engine, and another seeded order: on a fresh engine
        the first query to carry a descriptor pays for scoring it, so
        which query is slow depends on the order.  Over the orders of
        its passes a run sees the same spread of latencies whatever the
        seed; with one order per seed the 90th percentile followed the
        seed by +-10%."""
        super().begin_pass()
        self.ops = shuffled(self.seed + 7919 * self.passes_begun,
                            len(self.queries))
        self.passes_begun += 1


class StarWarm(Workload):
    name = "star_warm"
    why = ("200 Zipf(1.1) draws over 30 warmed stars with the candidate "
           "cache on: memo and cache hit, the stark pivot loop does the work")
    templates = 30
    draws = 200
    #: brute force takes 8.5 s over the pool (3.6 s on one 4-leaf star)
    oracle_sample = 10

    def make_inputs(self) -> None:
        self.queries = template_stars(
            self.graph, random.Random(POOL_SEED),
            self.scaled(self.templates, 6))
        self.ops = zipf_draws(self.seed, len(self.queries),
                              self.scaled(self.draws, 40))

    def build(self) -> None:
        super().build()
        attach_cache(self.engine.scorer, CandidateCache())


class StarD2(Workload):
    name = "star_d2"
    why = ("15 d=2 stars (typed-wildcard pivots included), warmed and "
           "replayed: stard propagation, bounded BFS, lazy pivot evaluation")
    d = 2
    oracle_sample = 10
    oracle_affordable = False  # at d=2, see ``oracle``

    def make_inputs(self) -> None:
        self.queries = mixed_stars(self.graph, POOL_SEED,
                                   self.scaled(COLD_STARS, 5),
                                   keyword_every=5)
        self.ops = rotated(self.seed, len(self.queries))

    def oracle(self, scorer: ScoringFunction, qi: int) -> Vector:
        # brute_force_topk at d=2 costs ~14 s per query on this graph;
        # stark at d=2 is an independent exact procedure (Lemma 1 over
        # BFS-expanded leaves, no message passing).
        engine = Star(self.graph, scorer=scorer, d=2, algorithm="stark")
        return score_vector(engine.search(self.queries[qi], K))


class GeneralJoin(Workload):
    name = "general_join"
    why = ("15 non-star queries of shapes (3,3)/(4,4)/(5,4), warmed and "
           "replayed: decomposition, starjoin rank join, alpha bound")
    per_shape = 5
    oracle_sample = 10
    oracle_affordable = False  # up to 5 query nodes enumerated exhaustively

    def make_inputs(self) -> None:
        self.queries = general_queries(self.graph, POOL_SEED,
                                       self.scaled(self.per_shape, 2))
        self.ops = rotated(self.seed, len(self.queries))


class OovSemantic(Workload):
    name = "oov_semantic"
    why = ("120 perturbed entity names out of token reach: the only route "
           "through the ANN tier (embed, LSH probe, exact rerank)")
    config = ScoringConfig(node_threshold=0.1)

    def make_inputs(self) -> None:
        self.queries, self.truths = oov_queries(
            self.graph, self.scaled(120, 20))
        self.ops = shuffled(self.seed, len(self.queries))
        self.hits: Dict[int, bool] = {}

    def extra_inputs(self):
        return self.truths

    def digest_extra(self):
        return sorted(self.hits.items())

    def engine_options(self) -> dict:
        return {"use_semantic": "auto"}

    def warm(self) -> None:
        """The tier embeds the graph on first engagement; that belongs
        to set-up, so engage it once with a throwaway name."""
        query = Query(name="oov-warm")
        pivot = query.add_node("zzqxjv")
        query.add_edge(pivot, query.add_node("?"), "?")
        self.engine.search(query, K)

    def begin_pass(self) -> None:
        """Every name is scored from scratch in every pass; the tier
        stays built."""
        self.engine.scorer.clear_cache()

    def run(self, op: int, thread: int = 0) -> Optional[Vector]:
        matches = self.engine.search(self.queries[op], K)
        self.hits[op] = any(m.assignment[0] == self.truths[op]
                            for m in matches)
        return score_vector(matches)

    def oracle_scorer(self) -> ScoringFunction:
        scorer = ScoringFunction(self.graph, self.config)
        attach_semantic(scorer, mode="auto")
        return scorer


class MixedUpdate(StarWarm):
    name = "mixed_update"
    why = ("star_warm's replay with index and cutoff on, every 10th op a "
           "write batch: journal, cache invalidation, index refresh")
    candidate_limit = 50
    draws = 270
    oracle_sample = None  # its oracle is the linear engine: 3 s in all

    def make_inputs(self) -> None:
        super().make_inputs()
        draws = self.ops
        self.batches = write_batches(self.graph, self.seed, len(draws) // 9)
        self.ops = []
        for i, draw in enumerate(draws):
            self.ops.append(draw)
            if i % 9 == 8:  # nine reads, then one write batch
                self.ops.append(-(i // 9) - 1)
        # the block ends by removing the edges it added, so that every
        # pass starts from the same graph
        self.ops.append(-len(self.batches) - 1)
        self.added: List[int] = []

    def extra_inputs(self):
        return self.batches

    def sample_key(self, position: int):
        """What a read costs depends on the writes before it."""
        return ("at", position)

    def engine_options(self) -> dict:
        return {"use_index": "on"}

    def run(self, op: int, thread: int = 0) -> Optional[Vector]:
        if op >= 0:
            return super().run(op)
        batch_id = -op - 1
        if batch_id < len(self.batches):
            first = self.graph.num_edge_slots
            apply_operations(self.graph, self.batches[batch_id])
            self.added.extend(range(first, self.graph.num_edge_slots))
        else:
            apply_operations(self.graph, [["remove_edge", eid]
                                          for eid in self.added])
            self.added = []
        self.engine.scorer.refresh()
        return None

    def settle(self) -> None:
        """The measured phase may end mid-block; remove the edges the
        unfinished pass added, as the block's last op would have."""
        self.run(self.ops[-1])

    def oracle(self, scorer: ScoringFunction, qi: int) -> Vector:
        # brute_force_topk cuts leaf candidates at the limit as well,
        # stark cuts pivots only; with a cutoff the oracle is the linear
        # engine (no index, no cache) on a scorer built after the writes
        engine = Star(self.graph, scorer=scorer, use_index="off",
                      candidate_limit=self.candidate_limit)
        return score_vector(engine.search(self.queries[qi], K))


class ShardedCold(StarCold):
    name = "sharded_cold"
    why = ("star_cold's query list through two fork shards: partition, "
           "halo, pull protocol, rank merge")
    #: the traced run swaps in the serial backend: work done inside
    #: forked workers cannot be seen from outside
    backend = "fork"
    #: ``star_cold`` meets the oracle on every query in every run; the
    #: digest of all answers here is pinned equal to ``star_cold``'s
    oracle_sample = 10

    def build(self) -> None:
        self.engine = ShardedEngine(self.graph, shards=2,
                                    backend=self.backend)

    def close(self) -> None:
        if self.engine is not None:
            self.engine.close()
        self.engine = None

    def traced_twin(self) -> "Workload":
        twin = ShardedCold(self.graph, self.seed, self.smoke, self.out_dir)
        twin.backend = "serial"
        return twin


class ServeStack(StarWarm):
    name = "serve_stack"
    why = ("star_warm's replay as text over HTTP: parse, admission, "
           "scheduler, fork workers, budgeted engine on an mmap store")
    threads = 2

    def prepare(self) -> None:
        os.makedirs(self.out_dir, exist_ok=True)
        self.store_path = os.path.join(
            self.out_dir, f"graph.{os.getpid()}.rkgs2")
        self.store_bytes = write_store(self.graph, self.store_path)

    def engine_opts(self) -> dict:
        return {"mmap_store": self.store_path}

    def build(self) -> None:
        self.mapped = KnowledgeGraph.open_mmap(self.store_path)
        self.app = ServeApp(self.mapped, workers=2, backend="fork",
                            engine_opts=self.engine_opts()).start()
        self.handle = ServerHandle(self.app).start()
        host, port = self.handle.address
        self.clients = [ServeClient(host, port)
                        for _ in range(self.threads)]
        self.engine = self.app

    def warm(self) -> None:
        """Send every template on both connections at the same moment,
        so that each of the two workers has scored it once."""
        barrier = threading.Barrier(self.threads)

        def one_client(thread: int) -> None:
            try:
                for qi in range(len(self.queries)):
                    barrier.wait(timeout=60)
                    self.run(qi, thread)
            except BaseException:
                barrier.abort()
                raise

        run_threads(one_client, self.threads)

    def request(self, op: int) -> QueryRequest:
        return QueryRequest(query=self.texts[op], k=K, priority="gold")

    def run(self, op: int, thread: int = 0) -> Optional[Vector]:
        response = self.clients[thread].search(self.request(op))
        if response.status != "ok":
            raise RuntimeError(
                f"serve answered {response.status}: "
                f"{response.reason or response.error}")
        return [round(m["score"], ROUND) for m in response.matches]

    def close(self) -> None:
        if self.engine is None:
            return
        for client in self.clients:
            client.close()
        self.handle.stop()
        self.app.stop()
        self.engine = None

    def cleanup(self) -> None:
        try:
            os.unlink(self.store_path)
        except OSError:
            pass

    def oracle(self, scorer: ScoringFunction, qi: int) -> Vector:
        # the oracle parses the same text the server received, over the
        # in-memory graph the store was written from (mmap == memory)
        query = parse_query(self.texts[qi].replace(";", "\n"))
        return score_vector(brute_force_topk(scorer, query, K))

    def traced_twin(self) -> "Workload":
        return ServeReplica(self)


class ServeReplica(Workload):
    """``serve_stack``'s traced twin: what a serve worker does per
    request (``execute_payload`` on an ``EngineContext`` over the mapped
    graph, same budget), run in this process where spans can see it."""

    name = "serve_stack"
    oracle_sample = ServeStack.oracle_sample

    def __init__(self, stack: ServeStack) -> None:
        self.stack = stack
        super().__init__(stack.graph, stack.seed, stack.smoke,
                         stack.out_dir)

    def make_inputs(self) -> None:
        self.queries, self.ops = self.stack.queries, self.stack.ops

    def prepare(self) -> None:
        self.stack.prepare()

    def cleanup(self) -> None:
        self.stack.cleanup()

    def build(self) -> None:
        self.budget_spec = derive_budget_spec(resolve_slo("gold"),
                                              mode="anytime")
        begin = time.perf_counter()
        mapped = KnowledgeGraph.open_mmap(self.stack.store_path)
        self.engine = EngineContext(mapped,
                                    engine_opts=self.stack.engine_opts())
        self.run(0)
        self.first_query_ms = (time.perf_counter() - begin) * 1000.0

    def run(self, op: int, thread: int = 0) -> Optional[Vector]:
        result = execute_payload(self.engine, {
            "query": self.texts[op], "k": K,
            "budget_spec": self.budget_spec})
        if not result["ok"] or result["degraded"]:
            raise RuntimeError(f"replica failed: {result}")
        return [round(m["score"], ROUND) for m in result["matches"]]

    def last_stats(self) -> Optional[dict]:
        return self.engine.engine.last_stats

    oracle = ServeStack.oracle


WORKLOADS = {cls.name: cls for cls in (
    StarCold, StarWarm, StarD2, GeneralJoin, OovSemantic, MixedUpdate,
    ShardedCold, ServeStack,
)}


def make(name: str, graph, seed: int, smoke: bool, out_dir: str) -> Workload:
    return WORKLOADS[name](graph, seed, smoke, out_dir)
