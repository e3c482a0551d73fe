"""The catalog of 46 similarity measures.

Section VII of the paper: "We applied 46 similarity functions, covering
acronym, synonym, abbreviation, ontology, unit conversion, frequency,
TF-IDF, NLP parse tree distance, type, edit distance, path distance etc.
The weights of these functions are learned through training."

This module implements that catalog: 42 node measures plus 4 edge measures
(the 46th family, *path distance*, is the edge-path decay applied by
:mod:`repro.similarity.path_score` on top of the edge measures).

Every measure is written once, as a two-stage *binder*
``(query: Descriptor, ctx: CorpusContext) -> Optional[BoundMeasure]``:
binding does the query-side work (token sets, synonym expansions, IDF
totals, edit-distance pattern bitmasks) and returns ``data -> float`` with
range ``[0, 1]`` -- or ``None`` when the measure is provably 0.0 for every
data descriptor (no type constraint, no keywords, ...).  The
:func:`measure` decorator turns a binder into the plain function
``fn(query, data, ctx) = bind(query, ctx)(data)`` that
:data:`NODE_FUNCTIONS` / :data:`EDGE_FUNCTIONS` (the ordered registries
the weight learner, the explainer and the index bounds index into) hold;
the binder stays reachable as ``fn.bind``.  :func:`bind_measures` binds a
whole weighted catalog at once: the per-descriptor evaluator the
aggregate scorer runs on every memo miss.
"""

from __future__ import annotations

import math
from typing import Callable, FrozenSet, List, Mapping, Optional, Sequence, Tuple

from repro.similarity import ontology
from repro.similarity.descriptors import CorpusContext, Descriptor
from repro.similarity.strings import (
    bind_edit_similarity,
    common_prefix_ratio,
    common_suffix_ratio,
    dice,
    jaccard,
    jaro_winkler,
    overlap_coefficient,
)

SimilarityFn = Callable[[Descriptor, Descriptor, CorpusContext], float]
BoundMeasure = Callable[[Descriptor], float]
Binder = Callable[[Descriptor, CorpusContext], Optional[BoundMeasure]]


def measure(binder: Binder) -> SimilarityFn:
    """The plain ``fn(query, data, ctx)`` form of *binder*.

    ``fn.bind`` is the binder itself, so one definition serves both the
    one-off call and the bound evaluator.
    """

    def fn(q: Descriptor, d: Descriptor, ctx: CorpusContext) -> float:
        bound = binder(q, ctx)
        return 0.0 if bound is None else bound(d)

    fn.__name__ = binder.__name__
    fn.__qualname__ = binder.__qualname__
    fn.__doc__ = binder.__doc__
    fn.bind = binder
    return fn


class _Memo(dict):
    """``fn`` memoized on its one argument; lives as long as the bound
    measure that owns it (data tokens and types repeat across nodes)."""

    __slots__ = ("fn",)

    def __init__(self, fn: Callable) -> None:
        self.fn = fn

    def __missing__(self, key):
        value = self[key] = self.fn(key)
        return value


def _memo_per_token(
    tokens: Sequence[str], bind: Callable[[str], Callable]
) -> List[Callable]:
    """A memoized ``bind(token)`` lookup per token position; repeated
    tokens share one memo."""
    lookups = {t: _Memo(bind(t)).__getitem__ for t in set(tokens)}
    return [lookups[t] for t in tokens]


def _per_data_type(score_type: Callable[[str], float]) -> BoundMeasure:
    """*score_type* of the data type, memoized per distinct type; 0.0
    for untyped data."""
    by_type = _Memo(score_type)
    return lambda d: by_type[d.type] if d.type else 0.0


def bind_measures(
    catalog: Sequence[Tuple[str, SimilarityFn]],
    weights: Mapping[str, float],
    q: Descriptor,
    ctx: CorpusContext,
) -> BoundMeasure:
    """``data -> sum of weights[name] * fn(q, data, ctx)`` over *catalog*.

    Measures without a weight are skipped; so are measures whose binder
    returns ``None`` -- their term is exactly ``weight * 0.0``, and adding
    0.0 leaves a non-negative float sum unchanged, so the result is
    bit-identical to evaluating every term in catalog order.
    """
    terms: List[Tuple[BoundMeasure, float]] = []
    for name, fn in catalog:
        weight = weights.get(name)
        if weight is None:
            continue
        bound = fn.bind(q, ctx)
        if bound is not None:
            terms.append((bound, weight))

    def evaluate(d: Descriptor) -> float:
        score = 0.0
        for bound, weight in terms:
            score += weight * bound(d)
        return score

    return evaluate


def bind_variable_score(q: Descriptor, ctx: CorpusContext) -> BoundMeasure:
    """``F_N`` of a wildcard ('?') query node, before clamping.

    A variable matches every node with a flat base score plus a small
    popularity prior (``0.4 + 0.2 * normalized log-degree``): the
    aggregate would zero out on 40+ of the 42 measures and drop below
    any useful threshold.  A *typed* variable adds 0.2 for a data type
    at or below the query type and subtracts 0.3 for any other type, so
    "?:director" prefers directors.
    """
    log_max_degree = ctx.log_max_degree

    def popularity(d: Descriptor) -> float:
        return 0.4 + 0.2 * min(1.0, math.log1p(d.degree) / log_max_degree)

    q_type = q.type
    if not q_type:
        return popularity
    q_type_lower = q_type.lower()

    def type_adjustment(d_type: str) -> float:
        if d_type and ontology.is_subtype(d_type, q_type):
            return 0.2
        return -0.3 if d_type.lower() != q_type_lower else 0.0

    adjustment = _Memo(type_adjustment)
    return lambda d: popularity(d) + adjustment[d.type]


# ----------------------------------------------------------------------
# Name / string measures
# ----------------------------------------------------------------------

@measure
def exact_name(q: Descriptor, ctx: CorpusContext) -> Optional[BoundMeasure]:
    """1.0 iff the full names are equal (case-insensitive)."""
    if q.is_wildcard:
        return None
    name = q.name_lower
    return lambda d: 1.0 if name == d.name_lower else 0.0


@measure
def name_edit(q: Descriptor, ctx: CorpusContext) -> Optional[BoundMeasure]:
    """Normalized Levenshtein similarity of the full names."""
    if q.is_wildcard:
        return None
    similarity = bind_edit_similarity(q.name_lower)
    return lambda d: similarity(d.name_lower)


@measure
def name_jaro_winkler(q: Descriptor, ctx: CorpusContext) -> Optional[BoundMeasure]:
    """Jaro-Winkler similarity of the full names."""
    if q.is_wildcard:
        return None
    name = q.name_lower
    return lambda d: jaro_winkler(name, d.name_lower)


@measure
def token_jaccard(q: Descriptor, ctx: CorpusContext) -> Optional[BoundMeasure]:
    """Jaccard coefficient of the name-token sets."""
    tokens = q.name_token_set
    return lambda d: jaccard(tokens, d.name_token_set)


@measure
def token_dice(q: Descriptor, ctx: CorpusContext) -> Optional[BoundMeasure]:
    """Dice coefficient of the name-token sets."""
    tokens = q.name_token_set
    return lambda d: dice(tokens, d.name_token_set)


@measure
def token_overlap(q: Descriptor, ctx: CorpusContext) -> Optional[BoundMeasure]:
    """Overlap coefficient of the name-token sets."""
    tokens = q.name_token_set
    return lambda d: overlap_coefficient(tokens, d.name_token_set)


@measure
def prefix_ratio(q: Descriptor, ctx: CorpusContext) -> Optional[BoundMeasure]:
    """Shared-prefix length over the shorter name's length."""
    if q.is_wildcard:
        return None
    name = q.name_lower
    return lambda d: common_prefix_ratio(name, d.name_lower)


@measure
def suffix_ratio(q: Descriptor, ctx: CorpusContext) -> Optional[BoundMeasure]:
    """Shared-suffix length over the shorter name's length."""
    if q.is_wildcard:
        return None
    name = q.name_lower
    return lambda d: common_suffix_ratio(name, d.name_lower)


@measure
def containment(q: Descriptor, ctx: CorpusContext) -> Optional[BoundMeasure]:
    """1.0 if one name contains the other as a substring."""
    name = q.name_lower
    if q.is_wildcard or not name:
        return None

    def score(d: Descriptor) -> float:
        d_name = d.name_lower
        if d_name and (name in d_name or d_name in name):
            return 1.0
        return 0.0

    return score


@measure
def first_token_equal(q: Descriptor, ctx: CorpusContext) -> Optional[BoundMeasure]:
    """1.0 if the first name tokens match ("Brad" vs "Brad Pitt")."""
    if not q.name_tokens:
        return None
    first = q.name_tokens[0]
    return lambda d: (
        1.0 if d.name_tokens and first == d.name_tokens[0] else 0.0
    )


@measure
def last_token_equal(q: Descriptor, ctx: CorpusContext) -> Optional[BoundMeasure]:
    """1.0 if the last name tokens match (surname match)."""
    if not q.name_tokens:
        return None
    last = q.name_tokens[-1]
    return lambda d: (
        1.0 if d.name_tokens and last == d.name_tokens[-1] else 0.0
    )


@measure
def query_token_coverage(q: Descriptor, ctx: CorpusContext) -> Optional[BoundMeasure]:
    """Fraction of query tokens present among the data node's tokens."""
    tokens = q.name_tokens
    if not tokens:
        return None
    count = len(tokens)

    def score(d: Descriptor) -> float:
        d_tokens = d.token_set
        return sum(1 for t in tokens if t in d_tokens) / count

    return score


@measure
def data_token_coverage(q: Descriptor, ctx: CorpusContext) -> Optional[BoundMeasure]:
    """Fraction of data name tokens present among the query's tokens."""
    q_tokens = q.token_set

    def score(d: Descriptor) -> float:
        tokens = d.name_tokens
        if not tokens:
            return 0.0
        return sum(1 for t in tokens if t in q_tokens) / len(tokens)

    return score


@measure
def bigram_jaccard(q: Descriptor, ctx: CorpusContext) -> Optional[BoundMeasure]:
    """Jaccard of character bigram sets of the names."""
    if q.is_wildcard:
        return None
    grams = q.bigrams
    return lambda d: jaccard(grams, d.bigrams)


@measure
def trigram_jaccard(q: Descriptor, ctx: CorpusContext) -> Optional[BoundMeasure]:
    """Jaccard of character trigram sets of the names."""
    if q.is_wildcard:
        return None
    grams = q.trigrams
    return lambda d: jaccard(grams, d.trigrams)


@measure
def soundex_first_token(q: Descriptor, ctx: CorpusContext) -> Optional[BoundMeasure]:
    """1.0 if the Soundex codes of the first tokens agree."""
    code = q.soundex_first
    if not code:
        return None
    return lambda d: 1.0 if code == d.soundex_first else 0.0


@measure
def phonetic_name(q: Descriptor, ctx: CorpusContext) -> Optional[BoundMeasure]:
    """Edit similarity of simplified phonetic keys of the whole names."""
    if q.is_wildcard or not q.phonetic:
        return None
    similarity = bind_edit_similarity(q.phonetic)
    return lambda d: similarity(d.phonetic) if d.phonetic else 0.0


def _is_acronym(token: str) -> bool:
    """Compact enough to spell a multi-token name's initials."""
    return 2 <= len(token) <= 6


@measure
def acronym_forward(q: Descriptor, ctx: CorpusContext) -> Optional[BoundMeasure]:
    """Query is an acronym of the data name ("jj" ~ "Jacob Jones")."""
    if len(q.name_tokens) != 1 or not _is_acronym(q.name_tokens[0]):
        return None
    token = q.name_tokens[0]
    return lambda d: (
        1.0 if len(d.name_tokens) >= 2 and token == d.initials else 0.0
    )


@measure
def acronym_backward(q: Descriptor, ctx: CorpusContext) -> Optional[BoundMeasure]:
    """Data name is an acronym of the query."""
    initials = q.initials
    if len(q.name_tokens) < 2 or not _is_acronym(initials):
        return None
    return lambda d: (
        1.0 if len(d.name_tokens) == 1 and d.name_tokens[0] == initials
        else 0.0
    )


@measure
def abbreviation_tokens(q: Descriptor, ctx: CorpusContext) -> Optional[BoundMeasure]:
    """Fraction of query tokens that abbreviate (or expand) a data token."""
    tokens = q.name_tokens
    if not tokens:
        return None
    count = len(tokens)
    per_token = _memo_per_token(tokens, lambda qt: lambda dt: (
        ontology.is_abbreviation_of(qt, dt)
        or ontology.is_abbreviation_of(dt, qt)
    ))

    def score(d: Descriptor) -> float:
        d_tokens = d.name_tokens
        if not d_tokens:
            return 0.0
        return sum(1 for hit in per_token if any(map(hit, d_tokens))) / count

    return score


@measure
def initials_similarity(q: Descriptor, ctx: CorpusContext) -> Optional[BoundMeasure]:
    """Edit similarity of the two names' initials strings.

    Catches "J.J. Abrams" vs "Jeffrey Jacob Abrams" (both yield "jja").
    """
    if q.is_wildcard or not q.initials:
        return None
    similarity = _Memo(bind_edit_similarity(q.initials))
    return lambda d: similarity[d.initials] if d.initials else 0.0


@measure
def best_token_edit(q: Descriptor, ctx: CorpusContext) -> Optional[BoundMeasure]:
    """Average, over query tokens, of the best edit similarity to any data token."""
    tokens = q.name_tokens
    if not tokens:
        return None
    count = len(tokens)
    per_token = _memo_per_token(tokens, bind_edit_similarity)

    def score(d: Descriptor) -> float:
        d_tokens = d.name_tokens
        if not d_tokens:
            return 0.0
        total = 0.0
        for similar in per_token:
            total += max(map(similar, d_tokens))
        return total / count

    return score


# ----------------------------------------------------------------------
# Synonym / ontology measures
# ----------------------------------------------------------------------

@measure
def synonym_token(q: Descriptor, ctx: CorpusContext) -> Optional[BoundMeasure]:
    """Fraction of query tokens with a synonym among the data tokens."""
    count = len(q.name_tokens)
    synonym_sets = [
        syns for syns in map(ontology.synonyms_of, q.name_tokens) if syns
    ]
    if not synonym_sets:
        return None

    def score(d: Descriptor) -> float:
        d_tokens = d.token_set
        return sum(
            1 for syns in synonym_sets if not syns.isdisjoint(d_tokens)
        ) / count

    return score


def _synset(tokens: FrozenSet[str]) -> FrozenSet[str]:
    """*tokens* plus every synonym of each."""
    out = set(tokens)
    for t in tokens:
        out |= ontology.synonyms_of(t)
    return frozenset(out)


@measure
def synset_jaccard(q: Descriptor, ctx: CorpusContext) -> Optional[BoundMeasure]:
    """Jaccard of synonym-expanded token sets."""
    expanded = _synset(q.token_set)
    return lambda d: jaccard(expanded, _synset(d.token_set))


@measure
def type_exact(q: Descriptor, ctx: CorpusContext) -> Optional[BoundMeasure]:
    """1.0 iff both types are set and equal."""
    if not q.type:
        return None
    q_type = q.type.lower()
    return lambda d: 1.0 if d.type and q_type == d.type.lower() else 0.0


@measure
def type_synonym(q: Descriptor, ctx: CorpusContext) -> Optional[BoundMeasure]:
    """1.0 if the types are synonyms (per the synonym table)."""
    q_type = q.type
    if not q_type:
        return None
    return _per_data_type(
        lambda d_type: 1.0 if ontology.are_synonyms(q_type, d_type) else 0.0
    )


@measure
def type_ontology(q: Descriptor, ctx: CorpusContext) -> Optional[BoundMeasure]:
    """Ontology proximity of the types: ``1 / (1 + distance)``."""
    q_type = q.type
    if not q_type:
        return None

    def proximity(d_type: str) -> float:
        distance = ontology.type_distance(q_type, d_type)
        return 0.0 if distance is None else 1.0 / (1.0 + distance)

    return _per_data_type(proximity)


@measure
def type_subsumption(q: Descriptor, ctx: CorpusContext) -> Optional[BoundMeasure]:
    """1.0 if one type subsumes the other ("person" matches "actor")."""
    q_type = q.type
    if not q_type:
        return None
    return _per_data_type(
        lambda d_type: 1.0 if (
            ontology.is_subtype(d_type, q_type)
            or ontology.is_subtype(q_type, d_type)
        ) else 0.0
    )


@measure
def type_token_overlap(q: Descriptor, ctx: CorpusContext) -> Optional[BoundMeasure]:
    """Jaccard of type-label token sets (multi-word generated types).

    Types absent on both sides is *no evidence*, not a perfect match, so
    the both-empty case scores 0 here even though the ``jaccard``
    primitive itself is reflexive on empty sets.
    """
    tokens = q.type_tokens
    if not tokens:
        return None
    return lambda d: jaccard(tokens, d.type_tokens)


# ----------------------------------------------------------------------
# Keyword measures
# ----------------------------------------------------------------------

@measure
def keyword_jaccard(q: Descriptor, ctx: CorpusContext) -> Optional[BoundMeasure]:
    """Jaccard of the two keyword-token sets.

    Keywords absent on both sides is no evidence (scores 0), mirroring
    :func:`type_token_overlap`; the reflexive both-empty primitive only
    applies when the field is actually populated.
    """
    keywords = q.keyword_tokens
    if not keywords:
        return None
    return lambda d: jaccard(keywords, d.keyword_tokens)


@measure
def keyword_overlap(q: Descriptor, ctx: CorpusContext) -> Optional[BoundMeasure]:
    """Overlap coefficient of the keyword-token sets (both-absent = 0)."""
    keywords = q.keyword_tokens
    if not keywords:
        return None
    return lambda d: overlap_coefficient(keywords, d.keyword_tokens)


@measure
def keyword_in_name(q: Descriptor, ctx: CorpusContext) -> Optional[BoundMeasure]:
    """Fraction of query keywords that appear among data name tokens."""
    keywords = q.keyword_tokens
    if not keywords:
        return None
    count = len(keywords)
    return lambda d: len(keywords & d.name_token_set) / count


@measure
def name_in_keyword(q: Descriptor, ctx: CorpusContext) -> Optional[BoundMeasure]:
    """Fraction of query name tokens that appear among data keywords."""
    tokens = q.name_tokens
    if not tokens:
        return None
    count = len(tokens)

    def score(d: Descriptor) -> float:
        keywords = d.keyword_tokens
        if not keywords:
            return 0.0
        return sum(1 for t in tokens if t in keywords) / count

    return score


# ----------------------------------------------------------------------
# Frequency / TF-IDF measures
# ----------------------------------------------------------------------

@measure
def tfidf_cosine(q: Descriptor, ctx: CorpusContext) -> Optional[BoundMeasure]:
    """IDF-weighted cosine over the two token sets (binary TF)."""
    q_tokens = q.token_set
    if not q_tokens:
        return None
    idf_of = ctx.idf_of
    norm_q = sum(idf_of(t) ** 2 for t in q_tokens) ** 0.5

    def score(d: Descriptor) -> float:
        d_tokens = d.token_set
        if q_tokens.isdisjoint(d_tokens):
            return 0.0
        dot = sum(idf_of(t) ** 2 for t in q_tokens & d_tokens)
        norm_d = sum(idf_of(t) ** 2 for t in d_tokens) ** 0.5
        # Clamp: identical sets can exceed 1.0 by a float epsilon.
        return min(1.0, dot / (norm_q * norm_d))

    return score


@measure
def idf_weighted_coverage(q: Descriptor, ctx: CorpusContext) -> Optional[BoundMeasure]:
    """IDF-weighted fraction of query tokens covered by the data node."""
    token_idf = [(t, ctx.idf_of(t)) for t in q.token_set]
    total = sum(idf for _t, idf in token_idf)
    if total == 0.0:
        return None

    def score(d: Descriptor) -> float:
        d_tokens = d.token_set
        return sum(idf for t, idf in token_idf if t in d_tokens) / total

    return score


@measure
def rare_token_bonus(q: Descriptor, ctx: CorpusContext) -> Optional[BoundMeasure]:
    """IDF of the rarest token the two descriptions share."""
    q_tokens = q.token_set
    if not q_tokens:
        return None
    idf_of = ctx.idf_of

    def score(d: Descriptor) -> float:
        if q_tokens.isdisjoint(d.token_set):
            return 0.0
        return max(idf_of(t) for t in q_tokens & d.token_set)

    return score


@measure
def length_ratio(q: Descriptor, ctx: CorpusContext) -> Optional[BoundMeasure]:
    """Name-length compatibility: shorter length over longer length."""
    la = len(q.name_lower)
    if q.is_wildcard or not la:
        return None

    def score(d: Descriptor) -> float:
        lb = len(d.name_lower)
        if not lb:
            return 0.0
        return la / lb if la < lb else lb / la

    return score


# ----------------------------------------------------------------------
# Numeric / unit measures
# ----------------------------------------------------------------------

@measure
def numeric_exact(q: Descriptor, ctx: CorpusContext) -> Optional[BoundMeasure]:
    """1.0 if the descriptions share a numeric token (e.g. a year)."""
    if not q.numbers:
        return None
    numbers = frozenset(q.numbers)
    return lambda d: 0.0 if numbers.isdisjoint(d.numbers) else 1.0


@measure
def numeric_close(q: Descriptor, ctx: CorpusContext) -> Optional[BoundMeasure]:
    """Best relative closeness between any two numeric tokens."""
    numbers = q.numbers
    if not numbers:
        return None

    def score(d: Descriptor) -> float:
        best = 0.0
        for x in numbers:
            for y in d.numbers:
                denom = max(abs(x), abs(y), 1.0)
                best = max(best, 1.0 - min(1.0, abs(x - y) / denom))
        return best

    return score


def _measurements(desc: Descriptor) -> List[Tuple[str, float]]:
    """``(unit, value)`` for every numeric token directly followed by
    another token ("5 km")."""
    tokens = desc.name_tokens
    return [
        (tokens[i + 1], float(tokens[i]))
        for i in range(len(tokens) - 1)
        if tokens[i].isdigit()
    ]


@measure
def unit_convert_match(q: Descriptor, ctx: CorpusContext) -> Optional[BoundMeasure]:
    """1.0 if ``<number> <unit>`` phrases agree after unit conversion.

    Looks for a numeric token directly followed by a unit token on each
    side ("5 km" vs "5000 m").
    """
    q_pairs = _measurements(q)
    if not q_pairs:
        return None

    def score(d: Descriptor) -> float:
        if not d.numbers:
            return 0.0
        d_pairs = _measurements(d)
        for qu, qv in q_pairs:
            for du, dv in d_pairs:
                if not ontology.units_comparable(qu, du):
                    continue
                qc = ontology.to_canonical(qv, qu)
                dc = ontology.to_canonical(dv, du)
                if qc and dc and abs(qc[1] - dc[1]) <= 1e-6 * max(1.0, abs(qc[1])):
                    return 1.0
        return 0.0

    return score


# ----------------------------------------------------------------------
# Structural / wildcard measures
# ----------------------------------------------------------------------

@measure
def degree_prior(q: Descriptor, ctx: CorpusContext) -> Optional[BoundMeasure]:
    """Popularity prior: normalized log-degree of the data node.

    The "frequency" family of the paper's catalog -- prominent entities are
    more likely intended by ambiguous queries.
    """
    log_max_degree = ctx.log_max_degree
    return lambda d: min(1.0, math.log1p(d.degree) / log_max_degree)


@measure
def wildcard(q: Descriptor, ctx: CorpusContext) -> Optional[BoundMeasure]:
    """1.0 when the query node is a variable ('?'); lets wildcards match."""
    return (lambda d: 1.0) if q.is_wildcard else None


# ----------------------------------------------------------------------
# Edge (relation) measures
# ----------------------------------------------------------------------

@measure
def relation_exact(q: Descriptor, ctx: CorpusContext) -> Optional[BoundMeasure]:
    """1.0 iff relation labels are equal."""
    if q.is_wildcard:
        return None
    label = q.name_lower
    return lambda d: 1.0 if label == d.name_lower else 0.0


@measure
def relation_synonym(q: Descriptor, ctx: CorpusContext) -> Optional[BoundMeasure]:
    """1.0 if relation labels are synonyms ("won" ~ "recipient_of")."""
    label = q.name_lower
    if q.is_wildcard or not label:
        return None
    return lambda d: (
        1.0 if d.name_lower and ontology.are_synonyms(label, d.name_lower)
        else 0.0
    )


@measure
def relation_token_jaccard(q: Descriptor, ctx: CorpusContext) -> Optional[BoundMeasure]:
    """Jaccard of relation-label token sets ("born_in" vs "lived_in")."""
    tokens = q.name_token_set
    return lambda d: jaccard(tokens, d.name_token_set)


@measure
def relation_wildcard(q: Descriptor, ctx: CorpusContext) -> Optional[BoundMeasure]:
    """1.0 when the query edge is unconstrained."""
    return (lambda d: 1.0) if q.is_wildcard else None


# ----------------------------------------------------------------------
# Registries
# ----------------------------------------------------------------------

NODE_FUNCTIONS: List[Tuple[str, SimilarityFn]] = [
    ("exact_name", exact_name),
    ("name_edit", name_edit),
    ("name_jaro_winkler", name_jaro_winkler),
    ("token_jaccard", token_jaccard),
    ("token_dice", token_dice),
    ("token_overlap", token_overlap),
    ("prefix_ratio", prefix_ratio),
    ("suffix_ratio", suffix_ratio),
    ("containment", containment),
    ("first_token_equal", first_token_equal),
    ("last_token_equal", last_token_equal),
    ("query_token_coverage", query_token_coverage),
    ("data_token_coverage", data_token_coverage),
    ("bigram_jaccard", bigram_jaccard),
    ("trigram_jaccard", trigram_jaccard),
    ("soundex_first_token", soundex_first_token),
    ("phonetic_name", phonetic_name),
    ("acronym_forward", acronym_forward),
    ("acronym_backward", acronym_backward),
    ("abbreviation_tokens", abbreviation_tokens),
    ("initials_similarity", initials_similarity),
    ("best_token_edit", best_token_edit),
    ("synonym_token", synonym_token),
    ("synset_jaccard", synset_jaccard),
    ("type_exact", type_exact),
    ("type_synonym", type_synonym),
    ("type_ontology", type_ontology),
    ("type_subsumption", type_subsumption),
    ("type_token_overlap", type_token_overlap),
    ("keyword_jaccard", keyword_jaccard),
    ("keyword_overlap", keyword_overlap),
    ("keyword_in_name", keyword_in_name),
    ("name_in_keyword", name_in_keyword),
    ("tfidf_cosine", tfidf_cosine),
    ("idf_weighted_coverage", idf_weighted_coverage),
    ("rare_token_bonus", rare_token_bonus),
    ("length_ratio", length_ratio),
    ("numeric_exact", numeric_exact),
    ("numeric_close", numeric_close),
    ("unit_convert_match", unit_convert_match),
    ("degree_prior", degree_prior),
    ("wildcard", wildcard),
]

EDGE_FUNCTIONS: List[Tuple[str, SimilarityFn]] = [
    ("relation_exact", relation_exact),
    ("relation_synonym", relation_synonym),
    ("relation_token_jaccard", relation_token_jaccard),
    ("relation_wildcard", relation_wildcard),
]

#: Total measure count matches the paper's "46 similarity functions".
TOTAL_FUNCTIONS = len(NODE_FUNCTIONS) + len(EDGE_FUNCTIONS)

#: A cheap subset used by the benchmark harness's fast scoring mode: these
#: avoid the quadratic string measures while preserving ranking behaviour.
FAST_NODE_FUNCTION_NAMES: Tuple[str, ...] = (
    "exact_name",
    "token_jaccard",
    "first_token_equal",
    "last_token_equal",
    "query_token_coverage",
    "synonym_token",
    "type_exact",
    "type_ontology",
    "keyword_jaccard",
    "idf_weighted_coverage",
    "degree_prior",
    "wildcard",
)
