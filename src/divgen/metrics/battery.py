"""Metric batteries over query corpora.

The optimized battery holds the eight scores driving candidate ranking; the
full battery adds the four held-out scores used only in reports. Every metric
is oriented so that higher means more diverse. The report's ``METRICS`` and
``MarginalScorer``, which scores many candidates against one growing corpus,
read the same per-text records of a ``Corpus``.
"""

from __future__ import annotations

import functools
import math
from collections import Counter
from typing import Callable, Iterable, Sequence

import numpy as np

from divgen.metrics.cluster_entropy import entropy_of_sizes, query_entropy_over_indices
from divgen.metrics.semantic import (
    UnitRows,
    chamfer_distance_score,
    cosine_matrix,
    paraphrase_variety,
    semantic_spread,
    unit_rows,
    vendi_score,
)
from divgen.metrics.text import (  # fkgl_grade, tokenize, type_token_ratio:
    # kept for bench/spans.py, which wraps these names
    compression_ratio,
    compression_ratio_diversity,
    deflater,
    fkgl_grade,
    fkgl_of,
    ratio_of_types,
    sentences_of,
    simpson_of_counts,
    tokenize,
    type_token_ratio,
    variance,
)
from divgen.metrics.trees import (  # avg_tree_edit_distance, parse_tree_entropy:
    # kept for bench/spans.py, which wraps these names
    Shape,
    avg_tree_edit_distance,
    chunks,
    distance_table,
    mean_tree_distance,
    parse_tree_entropy,
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
    """A corpus's texts with one record each, its rows and running totals.
    ``append(texts, rows)`` reads each text once, by ``sentences_of``, and
    records its FKGL grade (a text without a word token raises ValueError),
    its token ids into the corpus's ``vocabulary``, its token count and the
    shape id of each of its sentences, adding the last two to the totals
    ``n_tokens`` and ``shape_counts``. A sentence's shape is its chunks, which
    the chunker yields once per sentence; ``shapes`` gives each distinct one
    an id, and ``tree_distances``, the edit distances of their trees, is built
    on first use. Appended rows are normalised once, on arrival, and written
    with their unit form to buffers that double when full; ``rows`` is one
    ``semantic.UnitRows`` over the filled prefixes, whose cluster-entropy
    neighbourhood table is also built on first use. A row's unit form does
    not depend on the rows normalised with it, so it is bit for bit that of a
    corpus built at once. Each text metric equals that of the gathered texts
    bit for bit."""

    def __init__(self, texts: Sequence[str] = (), rows=None):
        self.texts: list[str] = []
        self._raw = self._unit = np.empty((0, 0))
        self._filled = 0  # rows written to the buffers
        self.vocabulary: dict[str, int] = {}
        self.token_ids: list[np.ndarray] = []
        self.lengths: list[float] = []
        self.fkgls: list[float] = []
        self.shapes: dict[Shape, int] = {}  # a sentence's chunks -> its shape id
        self.shape_ids: list[np.ndarray] = []
        self.n_tokens = 0
        self.shape_counts: Counter[int] = Counter()
        self.append(texts, rows)

    def append(self, texts: Sequence[str], rows=None) -> None:
        for text in texts:
            sentences = sentences_of(text)
            tokens = [t for sentence in sentences for t in sentence]
            self.fkgls.append(fkgl_of(sentences))  # first: it raises for a wordless text
            self.token_ids.append(np.array(
                [self.vocabulary.setdefault(t, len(self.vocabulary)) for t in tokens],
                dtype=np.intp))
            self.lengths.append(float(len(tokens)))
            shape_ids = [self.shapes.setdefault(shape, len(self.shapes))
                         for shape in map(chunks, sentences)]
            self.shape_ids.append(np.array(shape_ids, dtype=np.intp))
            self.n_tokens += len(tokens)
            self.shape_counts.update(shape_ids)
            self.texts.append(text)
        self.__dict__.pop("tree_distances", None)
        if rows is not None:
            block = UnitRows(rows)
            first, end = self._filled, self._filled + len(block)
            if end > len(self._raw) or not first:  # full, or the first rows set the width
                self._raw, self._unit = (self._grown(buf, end, block.raw.shape[1])
                                         for buf in (self._raw, self._unit))
            self._raw[first:end], self._unit[first:end] = block.raw, block.unit
            self._filled = end
            self.__dict__.pop("cluster_entropy", None)

    def _grown(self, buffer: np.ndarray, count: int, width: int) -> np.ndarray:
        """A copy of ``buffer``'s filled rows with room for ``count`` rows, at
        least double its size."""
        grown = np.empty((max(count, 2 * len(buffer)), width))
        if self._filled:
            grown[:self._filled] = buffer[:self._filled]
        return grown

    @property
    def rows(self) -> UnitRows | None:
        """The appended rows with their unit form, or None before any."""
        if not self._filled:
            return None
        return UnitRows.held(self._raw[:self._filled], self._unit[:self._filled])

    def counts(self, indices: Sequence[int]) -> np.ndarray:
        """How often each vocabulary token occurs in the texts at ``indices``."""
        return np.bincount(np.concatenate([self.token_ids[i] for i in indices]))

    def shape_counts_of(self, indices: Sequence[int]) -> np.ndarray:
        """How often each shape id occurs in the texts at ``indices``."""
        return np.bincount(np.concatenate([self.shape_ids[i] for i in indices]),
                           minlength=len(self.shapes))

    def type_token_ratio(self, indices: Sequence[int]) -> float:
        counts = self.counts(indices)
        return ratio_of_types(int(np.count_nonzero(counts)), int(counts.sum()))

    def simpson_index(self, indices: Sequence[int]) -> float:
        counts = self.counts(indices)
        return simpson_of_counts(counts[counts > 0].tolist())

    @functools.cached_property
    def cluster_entropy(self) -> Callable[[Sequence[int]], float]:
        return query_entropy_over_indices(self.rows)

    @functools.cached_property
    def tree_distances(self) -> np.ndarray:
        """The edit distance of every pair of shapes, by shape id."""
        return distance_table(self.shapes)


#: The one metric registry: each metric as a function of (corpus, index
#: subset), the score of the texts and rows at those indices, so a report
#: reads a score and its resamples from one entry. TTR, Simpson, shape entropy,
#: tree edit distance and the variances read the corpus's records; the other
#: entries look their metric function up by module-global name at call time,
#: so rebinding one of those names (as a tracer wrapping each metric does)
#: reaches every caller.
METRICS: dict[str, Callable[[Corpus, Sequence[int]], float]] = {
    "ttr": lambda c, idx: c.type_token_ratio(idx),
    "compression_ratio": lambda c, idx: compression_ratio_diversity([c.texts[i] for i in idx]),
    "paraphrase_variety": lambda c, idx: paraphrase_variety(c.rows[idx]),
    "parse_tree_entropy": lambda c, idx: entropy_of_sizes(c.shape_counts_of(idx).tolist()),
    "chamfer": lambda c, idx: chamfer_distance_score(c.rows[idx]),
    "var_fkgl": lambda c, idx: variance([c.fkgls[i] for i in idx]),
    "var_length": lambda c, idx: variance([c.lengths[i] for i in idx]),
    "vendi": lambda c, idx: vendi_score(c.rows[idx]),
    "simpson": lambda c, idx: c.simpson_index(idx),
    "tree_edit_distance":
        lambda c, idx: mean_tree_distance(c.tree_distances, c.shape_counts_of(idx)),
    "cluster_entropy": lambda c, idx: c.cluster_entropy(idx),
    "semantic_spread": lambda c, idx: semantic_spread(c.rows[idx]),
}


class EmbeddingCache:
    """Per-text embedding memo for one run: every text the run embeds (the
    ranking's corpus and candidates, the library descriptions that retrieval
    and the walk check score, and parameter values) goes through it. It holds
    a row only while some later step may still ask it for that row; the
    component that reads a row later holds it from then on:

    - ``MarginalScorer.sync`` appends the newly accepted queries to its
      ``Corpus`` and releases them with every candidate scored since the
      previous acceptance (an abandoned attempt's candidates stay until then);
    - a ``cluster_entropy.ValueIndex`` releases the values it has indexed and
      serves them again from its own unit rows;
    - ``unit_matrix`` holds a text list's unit rows and releases their raw ones.

    A text asked for again after its release reaches the embedder again.
    ``embed`` lets the cache stand in for the embedder."""

    def __init__(self, embedder):
        self.embedder = embedder
        self._memo: dict[str, np.ndarray] = {}
        self._units: dict[tuple[str, ...], np.ndarray] = {}

    def matrix(self, texts: Sequence[str]) -> np.ndarray:
        missing = list(dict.fromkeys(t for t in texts if t not in self._memo))
        if missing:
            for text, vec in zip(missing, self.embedder.embed(missing)):
                self._memo[text] = np.asarray(vec, dtype=np.float64)
        return np.stack([self._memo[t] for t in texts])

    def embed(self, texts: Sequence[str]) -> np.ndarray:
        """The rows of ``matrix(texts)``."""
        return self.matrix(texts)

    def release(self, texts: Iterable[str]) -> None:
        """Drop the rows of ``texts`` that the cache holds."""
        for text in texts:
            self._memo.pop(text, None)

    def unit_matrix(self, texts: Sequence[str], also: Sequence[str]) -> np.ndarray:
        """``unit_rows(matrix(texts), allow_zero=True)``, held for the run under
        ``texts``; the first call embeds what ``matrix([*texts, *also])`` would
        and releases the raw rows of ``texts`` but not of ``also``."""
        key = tuple(texts)
        if key not in self._units:
            self._units[key] = unit_rows(self.matrix([*key, *also])[: len(key)], allow_zero=True)
            self.release(set(key).difference(also))
        return self._units[key]


def _evaluate(names: Sequence[str], texts: Sequence[str],
              embeddings: np.ndarray) -> dict[str, float]:
    if len(texts) == 0:
        raise ValueError("battery requires a non-empty corpus")
    corpus, indices = Corpus(texts, embeddings), list(range(len(texts)))
    return {name: METRICS[name](corpus, indices) for name in names}


def evaluate_battery(texts: Sequence[str], embeddings: np.ndarray) -> dict[str, float]:
    """The eight optimized metrics for one corpus snapshot."""
    return _evaluate(OPTIMIZED_METRICS, texts, embeddings)


#: Rows per block of the corpus's Gram UᵀU: it is the in-order sum of its
#: closed blocks' Grams plus its open block's, so a corpus grown text by text
#: and one synced at once hold the same bits.
GRAM_BLOCK = 64


class BorderedVendi:
    """Vendi of the corpus kernel K (the N×N clipped cosine similarities of
    the corpus rows U) bordered by each of a batch of candidates, from one
    eigendecomposition of K's smaller side and two matrix products per batch.

    With B = [[K, s], [sᵀ, 1]] for a candidate with similarities s, and
    f(x) = x log x = ∫₀^∞ (x/(1+t) − x/(x+t)) dt summed over eigenvalues, the
    Schur complement of B + t gives
    Σf(eig B) − Σf(eig K) = ∫₀^∞ t(A1 + (1+t)A2) / ((1+t)(1+t−A1)) dt, where
    Aₖ = sᵀ(K+t)⁻ᵏs = Σᵢ zᵢ²/(λᵢ+t)ᵏ over K's eigenpairs (λᵢ, qᵢ), zᵢ = qᵢᵀs.
    B's trace is m = N + 1, so its Vendi is exp(log m − Σf(eig B)/m).

    ``eigenvalues`` come from one ``eigh``, of K or of G = UᵀU, which shares
    K's nonzero eigenvalues, and the columns of ``vectors`` map a candidate's
    unit row u to its components z: UᵀQ for K, where z = Qᵀs with s = U·u,
    and P√λ for G, where zᵢ² = λᵢ(pᵢᵀu)². Eigenvalues up to
    1e-10·λ_max count as 0, together with their components: a component along
    K's null space is rounding noise (2e-13 for a candidate in the span of a
    rank-deficient K), which 1/(λ+t) would magnify. The integrand is analytic
    in |Im log t| < π, so the trapezoid rule in log t, with step 0.5 over
    [−40, log max(λ_max, 1) + 40], converges geometrically (Trefethen &
    Weideman, SIAM Rev. 2014); the error left is the eigendecomposition's.
    """

    STEP = 0.5
    MARGIN = 40.0
    DEFLATION = 1e-10

    def __init__(self, eigenvalues: np.ndarray, vectors: np.ndarray, size: int):
        top = eigenvalues.max(initial=0.0)
        kept = slice(np.searchsorted(eigenvalues, self.DEFLATION * top, side="right"), None)
        self.size = size
        self.eigenvalues = lam = eigenvalues[kept]  # eigh's are ascending
        self.vectors = vectors[:, kept]
        self.entropy_sum = math.fsum((lam * np.log(lam)).tolist())
        count = int((math.log(max(top, 1.0)) + 2 * self.MARGIN) / self.STEP) + 1
        self.nodes = np.exp(self.STEP * np.arange(count) - self.MARGIN)
        self.resolvent = 1.0 / (lam[:, None] + self.nodes)
        self.resolvent_sq = np.square(self.resolvent)

    def scores(self, units: np.ndarray) -> np.ndarray:
        """The Vendi of K bordered by each candidate, from its unit rows
        ``units``."""
        z2 = np.square(units @ self.vectors)
        a1, a2 = z2 @ self.resolvent, z2 @ self.resolvent_sq
        t = self.nodes
        schur = np.maximum(1.0 + t - a1, t)  # B + t's Schur complement is at least t
        delta = self.STEP * ((t * (a1 + (1.0 + t) * a2) / ((1.0 + t) * schur)) @ t)
        m = self.size + 1
        return np.exp(math.log(m) - (self.entropy_sum + delta) / m)


class MarginalScorer:
    """The optimized battery of ``corpus + [candidate]``, for many candidates.

    ``sync`` appends new texts and their rows to the scorer's one ``Corpus``
    and feeds them to a DEFLATE stream of the newline-joined corpus. Each
    appended row u, with s = clip(U·u), adds Σ(1 − s) to the sum of pair
    distances and lowers the nearest distances to 1 − s. Once per sync that
    adds texts, one ``eigh`` decomposes the smaller side of the corpus's
    clipped kernel K for a ``BorderedVendi``: K itself, formed from the rows
    only then, while N < d, from then on the d×d Gram UᵀU, summed in
    ``GRAM_BLOCK``-row blocks. The scorer holds no N×N array.
    ``score`` evaluates each distinct candidate once per corpus, a call's new
    ones as one batch from one product of their unit rows with the corpus's:
    paraphrase variety and Chamfer in O(N) each, Vendi by the decomposition's
    quadrature in two matrix products, and the text metrics from the corpus's
    records and totals and one reading of the candidate: its tokens, FKGL
    grade and its sentences' chunks, each counted under the corpus's shape id
    (a new shape under its chunks), so ranking builds no tree. Scoring solves
    no eigenproblem.

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
        self._raw_bytes = 0
        self._deflate = deflater()
        self._deflated_bytes = 0
        self._gram = 0.0  # the sum of the closed blocks' Grams
        self._closed = 0  # rows in closed blocks
        self._vendi: BorderedVendi | None = None  # decomposed by a sync that adds texts
        self._pair_sum = 0.0
        self._nearest = np.empty(0)
        self._scores: dict[str, tuple[float, ...]] = {}

    def sync(self, corpus: Sequence[str]) -> None:
        """Make the scorer's corpus exactly ``corpus``: append the new texts
        when it holds a prefix of them, rebuild it otherwise. The cache then
        releases the new texts, which the corpus holds, and the candidates
        scored against the old corpus."""
        scored = list(self._scores)
        if list(corpus[: len(self.corpus.texts)]) != self.corpus.texts:
            self._reset()
        n = len(self.corpus.texts)
        new = list(corpus[n:])
        if not new:
            return
        raw = self._next_line("\n".join(new))
        self._raw_bytes += len(raw)
        self._deflated_bytes += len(self._deflate.compress(raw))
        self.corpus.append(new, self._embed_cache.matrix(new))
        self._embed_cache.release([*scored, *new])
        units = unit_rows(self.corpus.rows)
        nearest = np.concatenate((self._nearest, np.empty(len(new))))
        for i in range(n, len(units)):
            # i + 1 rows: BLAS rounds by operand shape; this one keeps the pair sum's bits
            dists = 1.0 - np.clip(units[: i + 1] @ units[i], -1.0, 1.0)[:i]
            self._pair_sum += float(dists.sum())
            np.minimum(nearest[:i], dists, out=nearest[:i])
            nearest[i] = dists.min(initial=np.inf)
        self._nearest, self._scores = nearest, {}
        self._vendi = self._decompose(units)

    def _decompose(self, units: np.ndarray) -> BorderedVendi:
        """Close the Gram blocks the corpus has filled, then decompose K's
        smaller side: K, formed from the rows, while N < d, else the closed
        blocks' Gram plus the open block's."""
        size, width = units.shape
        while self._closed + GRAM_BLOCK <= size:
            block = units[self._closed: self._closed + GRAM_BLOCK]
            self._gram = self._gram + block.T @ block
            self._closed += GRAM_BLOCK
        if size < width:
            lam, vectors = np.linalg.eigh(cosine_matrix(self.corpus.rows))
            return BorderedVendi(lam, units.T @ vectors, size)
        open_block = units[self._closed:]
        lam, vectors = np.linalg.eigh(self._gram + open_block.T @ open_block)
        return BorderedVendi(lam, vectors * np.sqrt(np.maximum(lam, 0.0)), size)

    def _next_line(self, text: str) -> bytes:
        """``text`` as the newline-joined corpus's next bytes."""
        return (f"\n{text}" if self.corpus.texts else text).encode("utf-8")

    def score(self, candidates: Sequence[str]) -> np.ndarray:
        """The eight optimized metrics of the corpus extended by each candidate:
        a (len(candidates) × 8) float64 array, one row per candidate in order,
        one column per metric in ``OPTIMIZED_METRICS`` order."""
        new = [c for c in dict.fromkeys(candidates) if c not in self._scores]
        if new:
            self._scores.update(zip(new, self._evaluate_batch(new)))
        return np.array([self._scores[c] for c in candidates])

    def _evaluate_batch(self, candidates: list[str]) -> list[tuple[float, ...]]:
        units = unit_rows(self._embed_cache.matrix(candidates))
        n = len(self.corpus.texts)
        if n:
            dists = 1.0 - np.clip(units @ unit_rows(self.corpus.rows).T, -1.0, 1.0)
            varieties = (self._pair_sum + dists.sum(axis=1)) / ((n + 1) * n / 2)
            chamfers = (np.minimum(self._nearest, dists).sum(axis=1)
                        + dists.min(axis=1)) / (n + 1)
            vendis = self._vendi.scores(units)
        else:  # a one-text corpus: no pairs, and the Vendi of a 1×1 kernel
            varieties = chamfers = np.zeros(len(units))
            vendis = np.ones(len(units))
        return [self._battery(c, float(variety), float(chamfer), float(vendi))
                for c, variety, chamfer, vendi in zip(candidates, varieties, chamfers, vendis)]

    def _battery(self, candidate: str, variety: float, chamfer: float,
                 vendi: float) -> tuple[float, ...]:
        """The candidate's eight scores in ``OPTIMIZED_METRICS`` order: the text
        metrics computed here, the embedding metrics from the batch."""
        sentences = sentences_of(candidate)
        tokens = [t for sentence in sentences for t in sentence]
        extra = self._next_line(candidate)
        deflate = self._deflate.copy()
        deflated = (self._deflated_bytes + len(deflate.compress(extra))
                    + len(deflate.flush()))
        shapes = self.corpus.shape_counts.copy()  # a new shape is counted under its chunks
        shapes.update(self.corpus.shapes.get(shape, shape) for shape in map(chunks, sentences))
        vocabulary = self.corpus.vocabulary
        return (
            ratio_of_types(len(vocabulary) + len(set(tokens).difference(vocabulary)),
                           self.corpus.n_tokens + len(tokens)),
            compression_ratio(deflated, self._raw_bytes + len(extra)),
            variety,
            entropy_of_sizes(shapes.values()),
            chamfer,
            variance(self.corpus.fkgls + [fkgl_of(sentences)]),
            variance(self.corpus.lengths + [float(len(tokens))]),
            vendi,
        )


def evaluate_full_battery(texts: Sequence[str], embeddings: np.ndarray) -> dict[str, float]:
    """All twelve report metrics for one corpus snapshot."""
    return _evaluate(REPORT_METRICS, texts, embeddings)

