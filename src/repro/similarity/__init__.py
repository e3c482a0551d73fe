"""Similarity substrate: the paper's learned 46-measure ranking function.

Public surface:

* :class:`Descriptor` / :class:`CorpusContext` -- the two sides of a
  comparison plus corpus statistics.
* :data:`NODE_FUNCTIONS` / :data:`EDGE_FUNCTIONS` -- the measure catalog.
* :class:`ScoringConfig` / :class:`ScoringFunction` -- Eq. 1/Eq. 2
  aggregation with thresholds and the d-bounded edge-path score.
* :func:`learn_weights` -- offline weight training (Section VII setup).
"""

from repro.similarity.descriptors import CorpusContext, Descriptor, DescriptorCache
from repro.similarity.functions import (
    EDGE_FUNCTIONS,
    FAST_NODE_FUNCTION_NAMES,
    NODE_FUNCTIONS,
    TOTAL_FUNCTIONS,
)
from repro.similarity.explain import (
    Contribution,
    explain_match,
    explain_node_score,
    explain_relation_score,
)
from repro.similarity.config_io import load_config, save_config
from repro.similarity.learning import evaluate_weights, learn_weights
from repro.similarity.path_score import PathScore
from repro.similarity.scoring import (
    DEFAULT_EDGE_WEIGHTS,
    DEFAULT_NODE_WEIGHTS,
    ScoringConfig,
    ScoringFunction,
    selected_edge_weights,
    selected_node_weights,
)

__all__ = [
    "Contribution",
    "CorpusContext",
    "DEFAULT_EDGE_WEIGHTS",
    "DEFAULT_NODE_WEIGHTS",
    "Descriptor",
    "DescriptorCache",
    "EDGE_FUNCTIONS",
    "FAST_NODE_FUNCTION_NAMES",
    "NODE_FUNCTIONS",
    "PathScore",
    "ScoringConfig",
    "ScoringFunction",
    "TOTAL_FUNCTIONS",
    "evaluate_weights",
    "explain_match",
    "explain_node_score",
    "explain_relation_score",
    "learn_weights",
    "load_config",
    "save_config",
    "selected_edge_weights",
    "selected_node_weights",
]
