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


#: Byte cap on one stack of similarity matrices. Batches are split to stay
#: under it, so a large corpus, where ``eigvalsh`` dominates and stacking saves
#: nothing, holds one (N+1)² matrix at a time instead of one per candidate.
_STACK_BYTES = 4 << 20


class MarginalScorer:
    """The optimized battery of ``corpus + [candidate]``, for many candidates.

    The corpus-side state is built only by ``sync``, one text at a time, so a
    run keeps one scorer and adds each accepted text once: its token-type set
    and token count, a DEFLATE stream fed the newline-joined corpus, its
    sentence-shape table, its FKGL and length lists, and one (N+1, d) buffer
    of its embedding rows scaled to unit norm, whose last row is the candidate
    slot. ``score`` returns exactly, bit for bit, what ``evaluate_battery``
    returns on each extended corpus, and evaluates each distinct candidate only
    once per corpus. The candidates a call has not seen before are scored as
    one batch: one embedding lookup, then a stack of similarity matrices, one
    per candidate (several stacks if one would pass ``_STACK_BYTES``), from
    which Chamfer, the pair distances and the kernel eigenvalues are computed
    together. The text metrics are computed per candidate, from the memoised
    tokens of its text and the per-token tag and syllable memos: its sentence
    shapes are rendered from the chunker's tags without building a tree.

    Four facts keep the scores exact: DEFLATE's output does not depend on how
    its input is split among ``compress`` calls; a row's norm does not depend
    on the rows normalised with it; each matrix of the stack is the 2-D
    product ``a @ a.T`` of ``cosine_matrix``, taken over the row buffer with
    each candidate's row in turn in its slot; and a stacked ``eigvalsh``
    equals one ``eigvalsh`` per matrix. A 2-D ``mean(axis=1)`` does not always
    round like a 1-D ``np.mean`` of each row, so every per-candidate mean is
    taken over one row. A Gram or running-sum update would round differently
    and is not used.
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
        self._rows: np.ndarray | None = None
        self._resized()

    def _resized(self) -> None:
        """Index the extended corpus's pairs and diagonal, and drop the
        candidate scores of the previous corpus."""
        size = len(self._texts) + 1  # texts in each extended corpus
        self._pairs = np.triu_indices(size, k=1)
        self._diagonal = np.arange(size)
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
        kept = units[:0] if self._rows is None else self._rows[:-1]
        self._rows = np.concatenate((kept, units, units[:1]))  # last: the candidate slot
        self._resized()

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
        rows = np.empty((1, units.shape[1])) if self._rows is None else self._rows
        size = self._diagonal.size
        step = max(1, _STACK_BYTES // (8 * size * size))
        embedding = [scores for start in range(0, len(units), step)
                     for scores in self._embedding_metrics(rows, units[start:start + step])]
        return [self._battery(c, *scores) for c, scores in zip(candidates, embedding)]

    def _embedding_metrics(self, rows: np.ndarray,
                           units: np.ndarray) -> list[tuple[float, float, float]]:
        """Paraphrase variety, Chamfer and Vendi of the corpus extended by each
        unit row; ``rows`` holds the corpus unit rows and the candidate slot."""
        size = len(rows)
        sims = np.empty((len(units), size, size))
        for unit, sim in zip(units, sims):
            rows[-1] = unit
            np.matmul(rows, rows.T, out=sim)
        np.clip(sims, -1.0, 1.0, out=sims)
        vendis = [vendi_from_eigenvalues(e) for e in kernel_eigenvalues(sims)]
        if size < 2:
            return [(0.0, 0.0, vendi) for vendi in vendis]
        pair_dists = sims[:, self._pairs[0], self._pairs[1]]
        np.subtract(1.0, pair_dists, out=pair_dists)
        varieties = [float(np.mean(row)) for row in pair_dists]
        dist = np.subtract(1.0, sims, out=sims)
        dist[:, self._diagonal, self._diagonal] = np.inf
        chamfers = [float(np.mean(row)) for row in dist.min(axis=2)]
        return list(zip(varieties, chamfers, vendis))

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

