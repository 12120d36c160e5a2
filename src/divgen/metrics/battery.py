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
import os
import struct
from collections import Counter
from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence

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
    ValueCounts,
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


class Reading:
    """One reading of a text: the tokens of each of its sentences, by
    ``sentences_of``, and its tokens; its FKGL grade (a text without a word
    token raises ValueError) and the chunks of each of its sentences, which
    are the sentences' shapes, are taken on first use."""

    __slots__ = ("sentences", "tokens", "_fkgl", "_shapes")

    def __init__(self, text: str):
        self.sentences = sentences_of(text)
        self.tokens = [t for sentence in self.sentences for t in sentence]
        self._fkgl: float | None = None
        self._shapes: list[Shape] | None = None

    @property
    def fkgl(self) -> float:
        if self._fkgl is None:
            self._fkgl = fkgl_of(self.sentences)
        return self._fkgl

    @property
    def shapes(self) -> list[Shape]:
        if self._shapes is None:
            self._shapes = list(map(chunks, self.sentences))
        return self._shapes


class Corpus:
    """A corpus's texts with one record each, its rows and running totals.
    ``append(texts, rows, readings)`` takes each text's ``Reading`` from
    ``readings``, or reads the text once, and records its FKGL grade (a text
    without a word token raises ValueError), its token ids into the corpus's
    ``vocabulary``, its token count and the shape id of each of its sentences,
    adding the last two to the totals ``n_tokens`` and ``shape_counts``. A
    sentence's shape is its chunks; ``shapes`` gives each distinct one an id,
    and ``tree_distances``, the edit distances of their trees, is built on
    first use. Beside the lists, histograms count each distinct length and
    grade (``text.ValueCounts``) and each number of times a shape occurs
    (``shape_sizes``), so the variances and the shape entropy of the corpus
    plus one text cost a term or two per distinct value.
    Appended rows are normalised once, on arrival, and written
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
        self.length_counts, self.fkgl_counts = ValueCounts(), ValueCounts()
        self.shapes: dict[Shape, int] = {}  # a sentence's chunks -> its shape id
        self.shape_ids: list[np.ndarray] = []
        self.n_tokens = 0
        self.shape_counts: Counter[int] = Counter()
        self.shape_sizes: Counter[int] = Counter()  # a count in shape_counts -> its shapes
        self._shape_entropies: dict[tuple, float] = {}  # by shape_entropy_with's moves
        self.append(texts, rows)

    def append(self, texts: Sequence[str], rows=None,
               readings: Mapping[str, Reading] | None = None) -> None:
        for text in texts:
            reading = (readings or {}).get(text) or Reading(text)
            tokens, fkgl = reading.tokens, reading.fkgl  # first: a wordless text raises
            self.fkgls.append(fkgl)
            self.fkgl_counts.add(fkgl)
            self.token_ids.append(np.array(
                [self.vocabulary.setdefault(t, len(self.vocabulary)) for t in tokens],
                dtype=np.intp))
            self.lengths.append(float(len(tokens)))
            self.length_counts.add(float(len(tokens)))
            shape_ids = [self.shapes.setdefault(shape, len(self.shapes))
                         for shape in reading.shapes]
            self.shape_ids.append(np.array(shape_ids, dtype=np.intp))
            self.n_tokens += len(tokens)
            for shape_id in shape_ids:  # the shape moves up one size
                size = self.shape_counts[shape_id]
                if size:
                    self.shape_sizes[size] -= 1  # a size left at 0 adds nothing
                self.shape_sizes[size + 1] += 1
                self.shape_counts[shape_id] = size + 1
            self.texts.append(text)
        self._shape_entropies = {}
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

    def shape_entropy_with(self, shapes: Iterable) -> float:
        """Parse-tree entropy of the sentences plus ones of ``shapes``, each a
        shape id or a new shape's chunks: each distinct shape moves from its
        size to its size plus its added count in a copy of the size
        histogram, which has one entry per distinct size. The moves decide
        the entropy, so it is kept under them until the next ``append``."""
        added: dict = {}
        for shape in shapes:
            added[shape] = added.get(shape, 0) + 1
        moves = tuple(sorted((self.shape_counts.get(shape, 0), count)
                             for shape, count in added.items()))
        entropy = self._shape_entropies.get(moves)
        if entropy is None:
            sizes = dict(self.shape_sizes)
            for size, count in moves:
                if size:
                    sizes[size] -= 1  # a size left at 0 adds nothing to the entropy
                sizes[size + count] = sizes.get(size + count, 0) + 1
            entropy = self._shape_entropies[moves] = entropy_of_sizes(sizes)
        return entropy

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


class RowStore:
    """Append-only embedding rows, one record per distinct text: its UTF-8 size
    and row width (little-endian uint32), the text, then the row in little-endian
    float64, so it reads back bit for bit. Texts are scanned on first use, each
    record's header and text by one read, and rows read on request, each by
    its own text; a row not of ``width`` is passed over."""

    HEADER = struct.Struct("<II")
    TEXT_BYTES = 248  # text bytes the scan reads with a header; a longer text reads the rest

    def __init__(self, path: str | Path, width: int):
        self.path, self.width = Path(path), width

    def cut(self, size: int) -> None:
        """Drop every byte past ``size``."""
        with open(self.path, "ab") as fh:
            fh.truncate(min(size, fh.tell()))
        self.__dict__.pop("offsets", None)

    @functools.cached_property
    def offsets(self) -> dict[str, int]:
        """Each stored text's row offset; the scan cuts off a torn last record."""
        offsets, end, head = {}, 0, self.HEADER.size
        with open(self.path, "a+b") as fh:
            total = fh.seek(0, os.SEEK_END)
            while end + head <= total:
                data = os.pread(fh.fileno(), head + self.TEXT_BYTES, end)
                size, width = self.HEADER.unpack_from(data)
                row = end + head + size
                if row + 8 * width > total:  # torn
                    break
                if width == self.width:
                    if len(data) < head + size:
                        data += os.pread(fh.fileno(), head + size - len(data), end + len(data))
                    offsets.setdefault(
                        data[head:head + size].decode("utf-8", "surrogateescape"), row)
                end = row + 8 * width
            fh.truncate(end)
        return offsets

    def read(self, texts: Iterable[str]) -> dict[str, np.ndarray]:
        """The rows of those of ``texts`` the store holds."""
        held = [t for t in texts if t in self.offsets]
        if not held:
            return {}
        rows = np.empty((len(held), self.width), "<f8")
        with open(self.path, "rb") as fh:
            for text, row in zip(held, rows):
                os.preadv(fh.fileno(), [row], self.offsets[text])
        return dict(zip(held, rows.astype(np.float64, copy=False)))

    def append(self, rows: Iterable[tuple[str, np.ndarray]]) -> None:
        """Write each (text, row) of the store's width whose text it lacks; the
        file is opened only if there is one."""
        offsets = self.offsets  # scanned before the file is opened for writing
        new: dict[str, np.ndarray] = {}
        for text, row in rows:
            if text not in offsets and len(row) == self.width:
                new.setdefault(text, row)
        if not new:
            return
        with open(self.path, "ab") as fh:
            for text, row in new.items():
                data = text.encode("utf-8")
                fh.write(self.HEADER.pack(len(data), self.width) + data)
                offsets[text] = fh.tell()
                fh.write(np.asarray(row, "<f8").tobytes())


class EmbeddingCache:
    """Per-text embedding memo for one run: every text the run embeds (the
    ranking's corpus and candidates, the library descriptions that retrieval
    and the walk check score, and parameter values) goes through it, to its
    memo, then the run's ``RowStore`` if any, then the embedder. It holds a
    row only while some later step may still ask it for that row; the
    component that reads a row later holds it from then on:

    - ``MarginalScorer.sync`` appends the newly accepted queries to its
      ``Corpus`` and releases them with every candidate scored since the
      previous acceptance (an abandoned attempt's candidates stay until then);
    - a ``cluster_entropy.ValueIndex`` releases the values it has indexed and
      serves them again from its own unit rows, and owns the values of its
      last offer: a selection releases those of the previous offer that it
      does not repeat;
    - ``unit_matrix`` holds a text list's unit rows and releases their raw ones.

    The walk check's ``name: description`` texts stay for the run.
    A released text is read back from the store if ``store_rows`` wrote it
    there, else it reaches the embedder again. ``embed`` lets the cache stand
    in for the embedder."""

    def __init__(self, embedder, store: RowStore | None = None):
        self.embedder = embedder
        self.store = store
        self._memo: dict[str, np.ndarray] = {}
        self._units: dict[tuple[str, ...], np.ndarray] = {}

    def matrix(self, texts: Sequence[str]) -> np.ndarray:
        missing = list(dict.fromkeys(t for t in texts if t not in self._memo))
        if missing and self.store is not None:
            self._memo.update(self.store.read(missing))
            missing = [t for t in missing if t not in self._memo]
        if missing:
            for text, vec in zip(missing, self.embedder.embed(missing)):
                self._memo[text] = np.asarray(vec, dtype=np.float64)
        return np.stack([self._memo[t] for t in texts])

    def store_rows(self, texts: Iterable[str]) -> None:
        """Make the store hold each text's row: a held row as it is, the
        others embedded in blocks of 128 and not held."""
        missing = [t for t in dict.fromkeys(texts) if t not in self.store.offsets]
        self.store.append((t, self._memo[t]) for t in missing if t in self._memo)
        lacking = [t for t in missing if t not in self._memo]
        for i in range(0, len(lacking), 128):
            self.store.append(zip(lacking[i:i + 128], self.embedder.embed(lacking[i:i + 128])))

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
    totals and value histograms and the candidate's ``Reading``: its tokens,
    FKGL grade and its sentences' chunks, each counted under the corpus's
    shape id (a new shape under its chunks), so ranking builds no tree and no
    N-long list. Scoring solves no eigenproblem. ``read`` gives a text's one
    reading, which the pool filter takes and scoring reuses; a sync passes
    the readings of the texts it appends to the corpus and drops the rest
    with the scores.

    Each score is within 1e-12 (relative or absolute) of what
    ``evaluate_battery`` returns on the extended corpus, and the text metrics
    equal it. Ranking sorts on the scores rounded to 12 decimals, ties broken
    by pool position, so that difference reorders nothing; candidates with one
    embedding row get the same embedding scores and tie.
    """

    def __init__(self, corpus: Sequence[str], embed_cache: EmbeddingCache):
        self._embed_cache = embed_cache
        self._readings: dict[str, Reading] = {}  # by text, whatever the corpus
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
        """Make the scorer's corpus exactly ``corpus``: append the new texts,
        with the readings ``read`` took of them, when it holds a prefix of
        them, rebuild it otherwise. The cache then releases the new texts,
        which the corpus holds, and the candidates scored against the old
        corpus, whose readings are dropped."""
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
        self.corpus.append(new, self._embed_cache.matrix(new), self._readings)
        self._embed_cache.release([*scored, *new])
        self._readings = {}
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

    def read(self, text: str) -> Reading:
        """``text``'s reading, taken once until a sync adds texts."""
        reading = self._readings.get(text)
        if reading is None:
            reading = self._readings[text] = Reading(text)
        return reading

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
        reading, corpus = self.read(candidate), self.corpus
        tokens = reading.tokens
        extra = self._next_line(candidate)
        deflate = self._deflate.copy()
        deflated = (self._deflated_bytes + len(deflate.compress(extra))
                    + len(deflate.flush()))
        vocabulary = corpus.vocabulary
        return (
            ratio_of_types(len(vocabulary) + len(set(tokens).difference(vocabulary)),
                           corpus.n_tokens + len(tokens)),
            compression_ratio(deflated, self._raw_bytes + len(extra)),
            variety,
            # a new shape is counted under its chunks
            corpus.shape_entropy_with(corpus.shapes.get(shape, shape) for shape in reading.shapes),
            chamfer,
            corpus.fkgl_counts.variance_with(reading.fkgl),
            corpus.length_counts.variance_with(float(len(tokens))),
            vendi,
        )


def evaluate_full_battery(texts: Sequence[str], embeddings: np.ndarray) -> dict[str, float]:
    """All twelve report metrics for one corpus snapshot."""
    return _evaluate(REPORT_METRICS, texts, embeddings)

