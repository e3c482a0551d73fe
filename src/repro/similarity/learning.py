"""Learning the measure weights (the paper's "learned through training").

The paper reuses the probabilistic ranking function of [2], trained offline.
We reproduce the training loop: build a labelled corpus of (query
description, data description) pairs -- positives are systematic
perturbations of an entity description (token dropout, abbreviation,
synonym substitution, typos, acronyms), negatives are random other entities
-- featurize each pair with the 46 measures, fit a logistic-regression
model by gradient descent (numpy), and convert the learned coefficients to
the non-negative normalized weights :class:`repro.similarity.scoring.
ScoringFunction` consumes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.graph.knowledge_graph import KnowledgeGraph
from repro.similarity.descriptors import CorpusContext, Descriptor, DescriptorCache
from repro.similarity.functions import NODE_FUNCTIONS, bind_measures
from repro.similarity import ontology


@dataclass
class TrainingExample:
    """One labelled pair: query-side descriptor vs data-side descriptor."""

    query: Descriptor
    data: Descriptor
    label: int  # 1 = same entity, 0 = different


def perturb_description(desc: Descriptor, rng: random.Random) -> Descriptor:
    """Generate a query-style rewriting of *desc* (positive example).

    Applies one of the transformation families the measure catalog covers:
    partial name (drop tokens), typo (edit distance), synonym substitution,
    acronym, keyword-only reference, or type-only constraint.
    """
    tokens = list(desc.name_tokens)
    move = rng.random()
    if move < 0.25 and len(tokens) >= 2:
        # Partial name: keep a random non-empty strict subset, order kept.
        keep = sorted(rng.sample(range(len(tokens)), rng.randint(1, len(tokens) - 1)))
        name = " ".join(tokens[i] for i in keep)
    elif move < 0.45 and tokens:
        # Typo: drop or swap a character in one token.
        i = rng.randrange(len(tokens))
        t = tokens[i]
        if len(t) > 3:
            j = rng.randrange(len(t) - 1)
            t = t[:j] + t[j + 1 :]
        tokens[i] = t
        name = " ".join(tokens)
    elif move < 0.6 and tokens:
        # Synonym substitution where the table allows.
        replaced = []
        for t in tokens:
            syns = sorted(ontology.synonyms_of(t) - {t})
            replaced.append(rng.choice(syns) if syns else t)
        name = " ".join(replaced)
    elif move < 0.7 and len(tokens) >= 2:
        # Acronym.
        name = "".join(t[0] for t in tokens)
    elif move < 0.85:
        name = desc.name  # exact reference
    else:
        # Reordered tokens (e.g. "Pitt Brad").
        rng.shuffle(tokens)
        name = " ".join(tokens) if tokens else desc.name
    q_type = desc.type if rng.random() < 0.5 else ""
    q_keywords = desc.keywords if rng.random() < 0.3 else ()
    return Descriptor(name, q_type, q_keywords)


def build_training_set(
    graph: KnowledgeGraph,
    num_pairs: int = 400,
    seed: int = 17,
) -> List[TrainingExample]:
    """Sample a balanced labelled pair corpus from *graph*."""
    rng = random.Random(seed)
    cache = DescriptorCache(graph)
    node_ids = list(graph.nodes())
    examples: List[TrainingExample] = []
    for _ in range(num_pairs // 2):
        target = rng.choice(node_ids)
        data = cache.get(target)
        examples.append(
            TrainingExample(perturb_description(data, rng), data, 1)
        )
        other = rng.choice(node_ids)
        while other == target and len(node_ids) > 1:
            other = rng.choice(node_ids)
        examples.append(
            TrainingExample(perturb_description(data, rng), cache.get(other), 0)
        )
    return examples


def featurize(
    examples: Sequence[TrainingExample], corpus: CorpusContext
) -> Tuple[np.ndarray, np.ndarray]:
    """Evaluate all 42 node measures on each pair.

    Returns:
        ``(X, y)`` with ``X.shape == (n, 42)`` and binary labels ``y``.
    """
    rows = []
    labels = []
    for ex in examples:
        rows.append(
            [fn(ex.query, ex.data, corpus) for _name, fn in NODE_FUNCTIONS]
        )
        labels.append(ex.label)
    return np.asarray(rows, dtype=float), np.asarray(labels, dtype=float)


def fit_logistic(
    X: np.ndarray,
    y: np.ndarray,
    learning_rate: float = 0.5,
    epochs: int = 300,
    l2: float = 1e-3,
    seed: int = 3,
) -> np.ndarray:
    """Fit logistic-regression coefficients by full-batch gradient descent."""
    rng = np.random.default_rng(seed)
    n, p = X.shape
    w = rng.normal(0, 0.01, size=p)
    b = 0.0
    for _ in range(epochs):
        z = X @ w + b
        pred = 1.0 / (1.0 + np.exp(-np.clip(z, -30, 30)))
        grad_w = X.T @ (pred - y) / n + l2 * w
        grad_b = float(np.mean(pred - y))
        w -= learning_rate * grad_w
        b -= learning_rate * grad_b
    return w


def coefficients_to_weights(coefficients: np.ndarray) -> Dict[str, float]:
    """Convert signed logistic coefficients to scoring weights.

    Negative coefficients (measures anti-correlated with a true match on
    this corpus) are clamped to zero; the rest keep their magnitude.  The
    scorer re-normalizes, so scale is irrelevant.
    """
    weights: Dict[str, float] = {}
    for (name, _fn), coef in zip(NODE_FUNCTIONS, coefficients):
        weights[name] = max(0.0, float(coef))
    if all(w == 0.0 for w in weights.values()):
        # Degenerate fit -- fall back to uniform so the scorer stays valid.
        weights = {name: 1.0 for name, _fn in NODE_FUNCTIONS}
    return weights


def learn_weights(
    graph: KnowledgeGraph,
    num_pairs: int = 400,
    seed: int = 17,
) -> Dict[str, float]:
    """End-to-end weight learning on *graph* (Section VII's training step).

    Returns a node-measure weight dict usable as
    ``ScoringConfig(node_weights=...)``.
    """
    examples = build_training_set(graph, num_pairs=num_pairs, seed=seed)
    corpus = CorpusContext.from_graph(graph)
    X, y = featurize(examples, corpus)
    coefficients = fit_logistic(X, y)
    return coefficients_to_weights(coefficients)


def evaluate_weights(
    graph: KnowledgeGraph,
    weights: Dict[str, float],
    num_pairs: int = 200,
    seed: int = 91,
) -> float:
    """Holdout accuracy of a weight vector (0.5 decision threshold on the
    normalized aggregate score).  Used by tests to check learning works."""
    from repro.similarity.scoring import ScoringConfig, ScoringFunction

    examples = build_training_set(graph, num_pairs=num_pairs, seed=seed)
    scorer = ScoringFunction(graph, ScoringConfig(node_weights=weights))
    corpus = scorer.corpus
    correct = 0
    for ex in examples:
        score = bind_measures(
            NODE_FUNCTIONS, scorer.node_weights, ex.query, corpus
        )(ex.data)
        predicted = 1 if score >= 0.35 else 0
        correct += int(predicted == ex.label)
    return correct / len(examples)
