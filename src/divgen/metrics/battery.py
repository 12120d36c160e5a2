"""Metric batteries over query corpora.

The optimized battery holds the eight scores driving candidate ranking; the
full battery adds the four held-out scores used only in reports. Every metric
is oriented so that higher means more diverse. ``MarginalScorer`` evaluates
the optimized battery of one fixed corpus plus each of many candidates.
"""

from __future__ import annotations

from collections import Counter
from typing import Callable, Sequence

import numpy as np

from divgen.metrics.cluster_entropy import query_cluster_entropy
from divgen.metrics.semantic import (
    chamfer_distance_score,
    chamfer_from_similarity,
    cosine_matrix,
    paraphrase_variety,
    paraphrase_variety_from_similarity,
    semantic_spread,
    vendi_from_similarity,
    vendi_score,
)
from divgen.metrics.text import (
    compression_ratio,
    compression_ratio_diversity,
    deflater,
    fkgl_grade,
    ratio_of_types,
    simpson_index,
    tokenize,
    type_token_ratio,
    variance,
)
from divgen.metrics.trees import (
    avg_tree_edit_distance,
    parse_tree_entropy,
    sentence_shapes,
    shape_entropy,
)

#: Metrics optimized during generation, in ranking order.
OPTIMIZED_METRICS: tuple[str, ...] = (
    "ttr",
    "compression_ratio",
    "paraphrase_variety",
    "parse_tree_entropy",
    "chamfer",
    "var_fkgl",
    "var_length",
    "vendi",
)

#: Full report battery: the optimized eight plus the held-out four.
REPORT_METRICS: tuple[str, ...] = OPTIMIZED_METRICS + (
    "simpson",
    "tree_edit_distance",
    "cluster_entropy",
    "semantic_spread",
)


#: Every metric as a function of (texts, embedding rows). Entries look their
#: metric function up by module-global name at call time, so rebinding one of
#: those names (as a tracer wrapping each metric does) reaches every caller.
METRICS: dict[str, Callable[[Sequence[str], np.ndarray], float]] = {
    "ttr": lambda texts, emb: type_token_ratio(texts),
    "compression_ratio": lambda texts, emb: compression_ratio_diversity(texts),
    "paraphrase_variety": lambda texts, emb: paraphrase_variety(emb),
    "parse_tree_entropy": lambda texts, emb: parse_tree_entropy(texts),
    "chamfer": lambda texts, emb: chamfer_distance_score(emb),
    "var_fkgl": lambda texts, emb: variance([fkgl_grade(t) for t in texts]),
    "var_length": lambda texts, emb: variance([float(len(tokenize(t))) for t in texts]),
    "vendi": lambda texts, emb: vendi_score(emb),
    "simpson": lambda texts, emb: simpson_index(texts),
    "tree_edit_distance": lambda texts, emb: avg_tree_edit_distance(texts),
    "cluster_entropy": lambda texts, emb: query_cluster_entropy(emb),
    "semantic_spread": lambda texts, emb: semantic_spread(emb),
}


class EmbeddingCache:
    """Per-text embedding memo for one run: the ranking's corpus and candidates
    and the library descriptions that retrieval scores. Each distinct text
    reaches the embedder once."""

    def __init__(self, embedder):
        self.embedder = embedder
        self._memo: dict[str, np.ndarray] = {}

    def matrix(self, texts: Sequence[str]) -> np.ndarray:
        missing = list(dict.fromkeys(t for t in texts if t not in self._memo))
        if missing:
            for text, vec in zip(missing, self.embedder.embed(missing)):
                self._memo[text] = np.asarray(vec, dtype=np.float64)
        return np.stack([self._memo[t] for t in texts])


def _evaluate(names: Sequence[str], texts: Sequence[str],
              embeddings: np.ndarray) -> dict[str, float]:
    if len(texts) == 0:
        raise ValueError("battery requires a non-empty corpus")
    return {name: METRICS[name](texts, embeddings) for name in names}


def evaluate_battery(texts: Sequence[str], embeddings: np.ndarray) -> dict[str, float]:
    """The eight optimized metrics for one corpus snapshot."""
    return _evaluate(OPTIMIZED_METRICS, texts, embeddings)


class MarginalScorer:
    """The optimized battery of ``corpus + [candidate]``, for many candidates.

    The corpus-side state is built once: its token-type set and token count, a
    DEFLATE stream primed with the newline-joined corpus, its sentence-shape
    table, its FKGL and length lists, and its embedding rows. ``score`` returns
    exactly, bit for bit, what ``evaluate_battery`` returns on the extended
    corpus, and evaluates each distinct candidate only once. The embedding
    metrics share one cosine matrix per candidate; it is recomputed whole,
    since a Gram or running-sum update would round differently.
    """

    def __init__(self, corpus: Sequence[str], embed_cache: EmbeddingCache):
        corpus = list(corpus)
        self._embed_cache = embed_cache
        tokens = [tok for text in corpus for tok in tokenize(text)]
        self._types = set(tokens)
        self._n_tokens = len(tokens)
        raw = "\n".join(corpus).encode("utf-8")
        self._raw_bytes = len(raw)
        self._deflate = deflater()
        self._deflated_bytes = len(self._deflate.compress(raw))
        self._separator = "\n" if corpus else ""
        self._shapes = Counter(shape for text in corpus for shape in sentence_shapes(text))
        self._fkgls = [fkgl_grade(t) for t in corpus]
        self._lengths = [float(len(tokenize(t))) for t in corpus]
        self._rows = embed_cache.matrix(corpus) if corpus else None
        self._scores: dict[str, dict[str, float]] = {}

    def score(self, candidate: str) -> dict[str, float]:
        """The eight optimized metrics of the corpus extended by ``candidate``."""
        if candidate not in self._scores:
            self._scores[candidate] = self._evaluate(candidate)
        return self._scores[candidate]

    def _evaluate(self, candidate: str) -> dict[str, float]:
        tokens = tokenize(candidate)
        extra = (self._separator + candidate).encode("utf-8")
        deflate = self._deflate.copy()
        deflated = (self._deflated_bytes + len(deflate.compress(extra))
                    + len(deflate.flush()))
        shapes = self._shapes.copy()
        shapes.update(sentence_shapes(candidate))
        row = self._embed_cache.matrix([candidate])
        sim = cosine_matrix(row if self._rows is None else np.vstack([self._rows, row]))
        return {
            "ttr": ratio_of_types(len(self._types) + len(set(tokens) - self._types),
                                  self._n_tokens + len(tokens)),
            "compression_ratio": compression_ratio(deflated, self._raw_bytes + len(extra)),
            "paraphrase_variety": paraphrase_variety_from_similarity(sim),
            "parse_tree_entropy": shape_entropy(shapes),
            "chamfer": chamfer_from_similarity(sim),
            "var_fkgl": variance(self._fkgls + [fkgl_grade(candidate)]),
            "var_length": variance(self._lengths + [float(len(tokens))]),
            "vendi": vendi_from_similarity(sim),
        }


def evaluate_full_battery(texts: Sequence[str], embeddings: np.ndarray) -> dict[str, float]:
    """All twelve report metrics for one corpus snapshot."""
    return _evaluate(REPORT_METRICS, texts, embeddings)


def metric_fn_over_indices(
    name: str, texts: Sequence[str], embeddings: np.ndarray
) -> Callable[[list[int]], float]:
    """A single named metric as a function of corpus index subsets.

    Used by bootstrap resampling: texts and embeddings are fixed once, each call
    evaluates the metric on the selected rows only.
    """
    metric = METRICS[name]
    texts = list(texts)
    return lambda indices: metric([texts[i] for i in indices], embeddings[indices])
