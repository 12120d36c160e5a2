"""Metric batteries over query corpora.

The optimized battery holds the eight scores driving candidate ranking; the
full battery adds the four held-out scores used only in reports. Every metric
is oriented so that higher means more diverse. ``MarginalScorer`` evaluates
the optimized battery of one growing corpus plus each of many candidates.
"""

from __future__ import annotations

import functools
from collections import Counter
from typing import Callable, Sequence

import numpy as np

from divgen.metrics.cluster_entropy import entropy_of_sizes, query_entropy_over_indices
from divgen.metrics.semantic import (
    chamfer_distance_score,
    kernel_eigenvalues,
    paraphrase_variety,
    semantic_spread,
    unit_rows,
    vendi_from_eigenvalues,
    vendi_score,
)
from divgen.metrics.text import (  # type_token_ratio: bench/spans.py wraps this name
    TokenCounts,
    compression_ratio,
    compression_ratio_diversity,
    deflater,
    fkgl_grade,
    ratio_of_types,
    tokenize,
    type_token_ratio,
    variance,
)
from divgen.metrics.trees import (
    avg_tree_edit_distance,
    parse_tree_entropy,
    sentence_shapes,
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


class Corpus:
    """A corpus's texts and embedding rows (a ``semantic.UnitRows`` in the
    report), and the tables its metrics share, each built on first use: token
    ids for TTR and Simpson, and the neighbourhood table of cluster entropy.
    A table read equals the metric of the gathered texts or rows bit for bit."""

    def __init__(self, texts: Sequence[str], rows):
        self.texts, self.rows = list(texts), rows

    @functools.cached_property
    def tokens(self) -> TokenCounts:
        return TokenCounts(self.texts)

    @functools.cached_property
    def cluster_entropy(self) -> Callable[[Sequence[int]], float]:
        return query_entropy_over_indices(self.rows)

    def texts_at(self, indices: Sequence[int]) -> list[str]:
        return [self.texts[i] for i in indices]


#: The one metric registry: each metric as a function of (corpus, index
#: subset), the score of the texts and rows at those indices, so a report
#: reads a score and its resamples from one entry. Entries look their metric
#: function up by module-global name at call time, so rebinding one of those
#: names (as a tracer wrapping each metric does) reaches every caller.
METRICS: dict[str, Callable[[Corpus, Sequence[int]], float]] = {
    "ttr": lambda c, idx: c.tokens.type_token_ratio(idx),
    "compression_ratio": lambda c, idx: compression_ratio_diversity(c.texts_at(idx)),
    "paraphrase_variety": lambda c, idx: paraphrase_variety(c.rows[idx]),
    "parse_tree_entropy": lambda c, idx: parse_tree_entropy(c.texts_at(idx)),
    "chamfer": lambda c, idx: chamfer_distance_score(c.rows[idx]),
    "var_fkgl": lambda c, idx: variance([fkgl_grade(t) for t in c.texts_at(idx)]),
    "var_length": lambda c, idx: variance([float(len(tokenize(t))) for t in c.texts_at(idx)]),
    "vendi": lambda c, idx: vendi_score(c.rows[idx]),
    "simpson": lambda c, idx: c.tokens.simpson_index(idx),
    "tree_edit_distance": lambda c, idx: avg_tree_edit_distance(c.texts_at(idx)),
    "cluster_entropy": lambda c, idx: c.cluster_entropy(idx),
    "semantic_spread": lambda c, idx: semantic_spread(c.rows[idx]),
}


class EmbeddingCache:
    """Per-text embedding memo for one run: every text the run embeds (the
    ranking's corpus and candidates, the library descriptions that retrieval
    and the walk check score, and parameter values) goes through it, so each
    distinct text reaches the embedder once. ``embed`` lets it stand in for
    the embedder itself."""

    def __init__(self, embedder):
        self.embedder = embedder
        self._memo: dict[str, np.ndarray] = {}

    def matrix(self, texts: Sequence[str]) -> np.ndarray:
        missing = list(dict.fromkeys(t for t in texts if t not in self._memo))
        if missing:
            for text, vec in zip(missing, self.embedder.embed(missing)):
                self._memo[text] = np.asarray(vec, dtype=np.float64)
        return np.stack([self._memo[t] for t in texts])

    def embed(self, texts: Sequence[str]) -> np.ndarray:
        """The rows of ``matrix(texts)``."""
        return self.matrix(texts)


def _evaluate(names: Sequence[str], texts: Sequence[str],
              embeddings: np.ndarray) -> dict[str, float]:
    if len(texts) == 0:
        raise ValueError("battery requires a non-empty corpus")
    corpus, indices = Corpus(texts, embeddings), list(range(len(texts)))
    return {name: METRICS[name](corpus, indices) for name in names}


def evaluate_battery(texts: Sequence[str], embeddings: np.ndarray) -> dict[str, float]:
    """The eight optimized metrics for one corpus snapshot."""
    return _evaluate(OPTIMIZED_METRICS, texts, embeddings)


#: Byte cap on one stack of Vendi kernels. Batches are split to stay under it,
#: so a large corpus, where ``eigvalsh`` dominates and stacking saves nothing,
#: holds one (N+1)² kernel at a time instead of one per candidate.
_STACK_BYTES = 4 << 20


class MarginalScorer:
    """The optimized battery of ``corpus + [candidate]``, for many candidates.

    ``sync`` grows the corpus-side state one text at a time, so a run keeps
    one scorer and adds each accepted text once: its token types and count, a
    DEFLATE stream fed the newline-joined corpus, its sentence-shape table, its
    FKGL and length lists and its unit row. Once per sync it takes the rows'
    clipped Gram K, the sum of the pair distances 1 − K, and each row's
    distance to its nearest other row. ``score`` evaluates each distinct
    candidate once per corpus; a call's new candidates are scored as one batch
    from one product s of their unit rows with the corpus's: paraphrase variety
    and Chamfer in O(N) each, and Vendi from ``eigvalsh`` of K bordered by s
    and a 1, stacked under ``_STACK_BYTES``. The text metrics come from the
    memoised tokens of each candidate and the per-token tag and syllable memos:
    its sentence shapes are rendered from the chunker's tags without a tree.

    Each score is within 1e-12 (relative or absolute) of what
    ``evaluate_battery`` returns on the extended corpus, and the text metrics
    equal it. Ranking sorts on the scores rounded to 12 decimals, ties broken
    by pool position, so that difference reorders nothing; candidates with one
    embedding row get the same embedding scores and tie.
    """

    def __init__(self, corpus: Sequence[str], embed_cache: EmbeddingCache):
        self._embed_cache = embed_cache
        self._reset()
        self.sync(corpus)

    def _reset(self) -> None:
        self._texts: list[str] = []
        self._types: set[str] = set()
        self._n_tokens = 0
        self._raw_bytes = 0
        self._deflate = deflater()
        self._deflated_bytes = 0
        self._shapes: Counter[str] = Counter()
        self._fkgls: list[float] = []
        self._lengths: list[float] = []
        self._units: np.ndarray | None = None
        self._gram = np.empty((0, 0))
        self._pair_sum = 0.0
        self._nearest = np.empty(0)
        self._scores: dict[str, dict[str, float]] = {}

    def sync(self, corpus: Sequence[str]) -> None:
        """Make the scorer's corpus exactly ``corpus``: append the new texts
        when it holds a prefix of them, rebuild it otherwise."""
        if list(corpus[: len(self._texts)]) != self._texts:
            self._reset()
        new = list(corpus[len(self._texts):])
        if not new:
            return
        for text in new:
            tokens = tokenize(text)
            self._types.update(tokens)
            self._n_tokens += len(tokens)
            raw = self._next_line(text)
            self._raw_bytes += len(raw)
            self._deflated_bytes += len(self._deflate.compress(raw))
            self._shapes.update(sentence_shapes(text))
            self._fkgls.append(fkgl_grade(text))
            self._lengths.append(float(len(tokens)))
            self._texts.append(text)
        units = unit_rows(self._embed_cache.matrix(new))
        self._units = units if self._units is None else np.concatenate((self._units, units))
        gram = self._units @ self._units.T
        self._gram = np.clip(gram, -1.0, 1.0, out=gram)
        dist = 1.0 - self._gram
        np.fill_diagonal(dist, 0.0)
        self._pair_sum = float(dist.sum()) / 2.0
        np.fill_diagonal(dist, np.inf)
        self._nearest = dist.min(axis=1)
        self._scores = {}

    def _next_line(self, text: str) -> bytes:
        """``text`` as the newline-joined corpus's next bytes."""
        return (f"\n{text}" if self._texts else text).encode("utf-8")

    def score(self, candidates: Sequence[str]) -> list[dict[str, float]]:
        """The eight optimized metrics of the corpus extended by each candidate,
        in order."""
        new = [c for c in dict.fromkeys(candidates) if c not in self._scores]
        if new:
            self._scores.update(zip(new, self._evaluate_batch(new)))
        return [self._scores[c] for c in candidates]

    def _evaluate_batch(self, candidates: list[str]) -> list[dict[str, float]]:
        units = unit_rows(self._embed_cache.matrix(candidates))
        n, size = len(self._texts), len(self._texts) + 1
        sims = np.clip(units @ self._units.T, -1.0, 1.0) if n else units[:, :0]
        dists = 1.0 - sims
        if n:
            varieties = (self._pair_sum + dists.sum(axis=1)) / (size * n / 2)
            chamfers = (np.minimum(self._nearest, dists).sum(axis=1)
                        + dists.min(axis=1)) / size
        else:
            varieties = chamfers = np.zeros(len(units))
        vendis: list[float] = []
        step = max(1, _STACK_BYTES // (8 * size * size))
        for start in range(0, len(units), step):
            border = sims[start:start + step]
            kernels = np.empty((len(border), size, size))
            kernels[:, :n, :n] = self._gram
            kernels[:, :n, n] = kernels[:, n, :n] = border
            kernels[:, n, n] = 1.0
            vendis += [vendi_from_eigenvalues(e) for e in kernel_eigenvalues(kernels)]
        return [self._battery(c, float(variety), float(chamfer), vendi)
                for c, variety, chamfer, vendi in zip(candidates, varieties, chamfers, vendis)]

    def _battery(self, candidate: str, variety: float, chamfer: float,
                 vendi: float) -> dict[str, float]:
        """The candidate's eight scores: the text metrics computed here, the
        embedding metrics from the batch."""
        tokens = tokenize(candidate)
        extra = self._next_line(candidate)
        deflate = self._deflate.copy()
        deflated = (self._deflated_bytes + len(deflate.compress(extra))
                    + len(deflate.flush()))
        shapes = self._shapes.copy()
        shapes.update(sentence_shapes(candidate))
        return {
            "ttr": ratio_of_types(len(self._types) + len(set(tokens) - self._types),
                                  self._n_tokens + len(tokens)),
            "compression_ratio": compression_ratio(deflated, self._raw_bytes + len(extra)),
            "paraphrase_variety": variety,
            "parse_tree_entropy": entropy_of_sizes(shapes.values()),
            "chamfer": chamfer,
            "var_fkgl": variance(self._fkgls + [fkgl_grade(candidate)]),
            "var_length": variance(self._lengths + [float(len(tokens))]),
            "vendi": vendi,
        }


def evaluate_full_battery(texts: Sequence[str], embeddings: np.ndarray) -> dict[str, float]:
    """All twelve report metrics for one corpus snapshot."""
    return _evaluate(REPORT_METRICS, texts, embeddings)

