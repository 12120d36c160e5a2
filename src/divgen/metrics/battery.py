"""Metric batteries over query corpora.

The optimized battery holds the eight scores driving candidate ranking; the
full battery adds the four held-out scores used only in reports. Every metric
is oriented so that higher means more diverse. The report's ``METRICS`` and
``MarginalScorer``, which scores many candidates against one growing corpus,
read the same per-text records of a ``Corpus``.
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
    compression_ratio,
    compression_ratio_diversity,
    deflater,
    fkgl_grade,
    ratio_of_types,
    simpson_of_counts,
    tokenize,
    type_token_ratio,
    variance,
)
from divgen.metrics.trees import (  # parse_tree_entropy: bench/spans.py wraps this name
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
    """A corpus's texts with one record each, and its embedding rows (a
    ``semantic.UnitRows`` in the report), whose cluster-entropy neighbourhood
    table is built on first use. ``append`` records each text once: its FKGL
    grade (a text without a word token raises ValueError), its token ids into
    the corpus's vocabulary, its token count and its sentence shapes. The text
    metrics read these records, so each equals the metric of the gathered
    texts bit for bit."""

    def __init__(self, texts: Sequence[str] = (), rows=None):
        self.texts: list[str] = []
        self.rows = rows
        self.vocabulary: dict[str, int] = {}
        self.token_ids: list[np.ndarray] = []
        self.lengths: list[float] = []
        self.fkgls: list[float] = []
        self.shapes: list[list[str]] = []
        self.append(texts)

    def append(self, texts: Sequence[str]) -> None:
        for text in texts:
            grade = fkgl_grade(text)
            tokens = tokenize(text)
            self.token_ids.append(np.array(
                [self.vocabulary.setdefault(t, len(self.vocabulary)) for t in tokens],
                dtype=np.intp))
            self.lengths.append(float(len(tokens)))
            self.fkgls.append(grade)
            self.shapes.append(sentence_shapes(text))
            self.texts.append(text)

    def counts(self, indices: Sequence[int]) -> np.ndarray:
        """How often each vocabulary token occurs in the texts at ``indices``."""
        return np.bincount(np.concatenate([self.token_ids[i] for i in indices]))

    def type_token_ratio(self, indices: Sequence[int]) -> float:
        counts = self.counts(indices)
        return ratio_of_types(int(np.count_nonzero(counts)), int(counts.sum()))

    def simpson_index(self, indices: Sequence[int]) -> float:
        counts = self.counts(indices)
        return simpson_of_counts(counts[counts > 0].tolist())

    @functools.cached_property
    def cluster_entropy(self) -> Callable[[Sequence[int]], float]:
        return query_entropy_over_indices(self.rows)


#: The one metric registry: each metric as a function of (corpus, index
#: subset), the score of the texts and rows at those indices, so a report
#: reads a score and its resamples from one entry. TTR, Simpson, shape entropy
#: and the variances read the corpus's records; the other entries look their
#: metric function up by module-global name at call time, so rebinding one of
#: those names (as a tracer wrapping each metric does) reaches every caller.
METRICS: dict[str, Callable[[Corpus, Sequence[int]], float]] = {
    "ttr": lambda c, idx: c.type_token_ratio(idx),
    "compression_ratio": lambda c, idx: compression_ratio_diversity([c.texts[i] for i in idx]),
    "paraphrase_variety": lambda c, idx: paraphrase_variety(c.rows[idx]),
    "parse_tree_entropy":
        lambda c, idx: entropy_of_sizes(Counter(s for i in idx for s in c.shapes[i]).values()),
    "chamfer": lambda c, idx: chamfer_distance_score(c.rows[idx]),
    "var_fkgl": lambda c, idx: variance([c.fkgls[i] for i in idx]),
    "var_length": lambda c, idx: variance([c.lengths[i] for i in idx]),
    "vendi": lambda c, idx: vendi_score(c.rows[idx]),
    "simpson": lambda c, idx: c.simpson_index(idx),
    "tree_edit_distance": lambda c, idx: avg_tree_edit_distance([c.texts[i] for i in idx]),
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


class MarginalScorer:
    """The optimized battery of ``corpus + [candidate]``, for many candidates.

    ``sync`` grows the scorer's ``Corpus`` one text at a time, so a run keeps
    one scorer and records each accepted text once. Next to the records it
    keeps a DEFLATE stream fed the newline-joined corpus, the corpus's shape
    counts, its token total and its unit rows. Once per sync it takes the
    rows' clipped Gram K, the sum of the pair distances 1 − K, and each row's
    distance to its nearest other row. ``score`` evaluates each distinct
    candidate once per corpus; a call's new candidates are scored as one batch
    from one product s of their unit rows with the corpus's: paraphrase
    variety and Chamfer in O(N) each, and Vendi from ``eigvalsh`` of K
    bordered by s and a 1, in one (N+1)² kernel buffer whose border each
    candidate refills. The text metrics combine the corpus's records and
    running totals with the candidate's tokens, FKGL grade and sentence
    shapes, rendered from the chunker's tags without a tree.

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
        self.corpus = Corpus()
        self._n_tokens = 0
        self._raw_bytes = 0
        self._deflate = deflater()
        self._deflated_bytes = 0
        self._shapes: Counter[str] = Counter()
        self._units: np.ndarray | None = None
        self._gram = np.empty((0, 0))
        self._pair_sum = 0.0
        self._nearest = np.empty(0)
        self._scores: dict[str, dict[str, float]] = {}

    def sync(self, corpus: Sequence[str]) -> None:
        """Make the scorer's corpus exactly ``corpus``: append the new texts
        when it holds a prefix of them, rebuild it otherwise."""
        held = self.corpus.texts
        if list(corpus[: len(held)]) != held:
            self._reset()
        new = list(corpus[len(self.corpus.texts):])
        if not new:
            return
        for text in new:
            raw = self._next_line(text)
            self._raw_bytes += len(raw)
            self._deflated_bytes += len(self._deflate.compress(raw))
            self.corpus.append([text])
            self._n_tokens += len(self.corpus.token_ids[-1])
            self._shapes.update(self.corpus.shapes[-1])
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
        return (f"\n{text}" if self.corpus.texts else text).encode("utf-8")

    def score(self, candidates: Sequence[str]) -> list[dict[str, float]]:
        """The eight optimized metrics of the corpus extended by each candidate,
        in order."""
        new = [c for c in dict.fromkeys(candidates) if c not in self._scores]
        if new:
            self._scores.update(zip(new, self._evaluate_batch(new)))
        return [self._scores[c] for c in candidates]

    def _evaluate_batch(self, candidates: list[str]) -> list[dict[str, float]]:
        units = unit_rows(self._embed_cache.matrix(candidates))
        n, size = len(self.corpus.texts), len(self.corpus.texts) + 1
        sims = np.clip(units @ self._units.T, -1.0, 1.0) if n else units[:, :0]
        dists = 1.0 - sims
        if n:
            varieties = (self._pair_sum + dists.sum(axis=1)) / (size * n / 2)
            chamfers = (np.minimum(self._nearest, dists).sum(axis=1)
                        + dists.min(axis=1)) / size
        else:
            varieties = chamfers = np.zeros(len(units))
        kernel = np.empty((size, size))
        kernel[:n, :n] = self._gram
        kernel[n, n] = 1.0
        vendis: list[float] = []
        for border in sims:
            kernel[:n, n] = kernel[n, :n] = border
            vendis.append(vendi_from_eigenvalues(kernel_eigenvalues(kernel)))
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
        vocabulary = self.corpus.vocabulary
        return {
            "ttr": ratio_of_types(len(vocabulary) + len(set(tokens).difference(vocabulary)),
                                  self._n_tokens + len(tokens)),
            "compression_ratio": compression_ratio(deflated, self._raw_bytes + len(extra)),
            "paraphrase_variety": variety,
            "parse_tree_entropy": entropy_of_sizes(shapes.values()),
            "chamfer": chamfer,
            "var_fkgl": variance(self.corpus.fkgls + [fkgl_grade(candidate)]),
            "var_length": variance(self.corpus.lengths + [float(len(tokens))]),
            "vendi": vendi,
        }


def evaluate_full_battery(texts: Sequence[str], embeddings: np.ndarray) -> dict[str, float]:
    """All twelve report metrics for one corpus snapshot."""
    return _evaluate(REPORT_METRICS, texts, embeddings)

