"""Cluster entropy: the argument- and query-diversity objective.

Values are clustered with DBSCAN (euclidean eps=0.5 for numbers, cosine eps=0.1
over embeddings for strings, cosine eps=0.3 for query embeddings), every noise
point counts as its own singleton cluster, and the score is the base-2 entropy
of the cluster-size fractions. The attainable range is [0, log2 n]: 0 when all
values fall in one cluster, log2 n when every value stands alone.

Argument selection scores candidates against a group's committed values many
times per run; ``ValueIndex`` keeps those values' points and clusters between
calls, so each call costs the rows of its new values only. It grows its point
buffer in place and keeps a histogram of its component sizes, and an entropy
sums one term per distinct size, so neither a commit nor a score copies or
walks the whole index outside the distance product.

The report scores one value sample or query corpus and its resamples;
``value_entropy_over_indices`` and ``query_entropy_over_indices`` build its
neighbourhood table once, and each index subset reads the component sizes
of its sub-table, which are DBSCAN's cluster sizes with its noise points as
singletons (see ``ValueIndex``, whose points and neighbours a value table uses).
``numeric_value`` and ``text_value`` are the one rule of which values a group
can place, for generation, the artifact reader and the report: a finite number
(an infinity is at NaN distance from itself), or text with a word token.
"""

from __future__ import annotations

import math
from collections import Counter
from itertools import chain, repeat
from typing import Any, Callable, Iterable, Mapping, Sequence

import numpy as np

from divgen.metrics.dbscan import ClusterPartition, components, pairwise_distances, within_eps
from divgen.metrics.semantic import unit_rows
from divgen.metrics.text import sentences_of

NUMERIC_EPS = 0.5
STRING_EPS = 0.1
QUERY_EPS = 0.3
MIN_SAMPLES = 2


def cluster_entropy_bits(partition: ClusterPartition) -> float:
    """Base-2 entropy of cluster-size fractions, noise points as singletons."""
    return entropy_of_sizes(list(partition.cluster_sizes) + [1] * partition.noise_count)


def entropy_of_sizes(sizes: Iterable[int] | Mapping[int, int]) -> float:
    """Base-2 entropy of the fractions of a multiset of sizes (of clusters, or
    the counts of a frequency table).

    The multiset is an iterable of sizes, or a mapping from size to how often
    it occurs (a ``Counter``; counts <= 0 are skipped); a size of 0 adds
    nothing, so a frequency table may list absent items. Each distinct size's
    term is computed once and ``fsum`` adds it as often as it occurs: ``fsum``
    is correctly rounded, so the result is the same bits in any order.
    """
    counts = sizes if isinstance(sizes, Mapping) else Counter(sizes)
    counts = [(s, n) for s, n in counts.items() if n > 0 and s]
    total = sum(s * n for s, n in counts)
    if total == 0:
        raise ValueError("entropy of an empty partition is undefined")
    terms = (repeat((s / total) * math.log2(s / total), n) for s, n in counts)
    return -math.fsum(chain.from_iterable(terms)) + 0.0


class UnusableValue(ValueError):
    """A value that cannot be a NUMERICAL or STRING group's argument."""


def numeric_value(value: Any) -> int | float:
    """``value`` as a finite number: digit text reads as an int, other text as
    a float. A bool, a non-number and a number whose float is not finite (an
    int too large for a float included) raise UnusableValue."""
    if isinstance(value, bool):
        raise UnusableValue(f"non-numeric value: {value!r}")
    number = value
    if not isinstance(value, (int, float)):
        try:
            text = str(value).strip()
            number = int(text) if text.lstrip("+-").isdigit() else float(text)
        except ValueError:
            raise UnusableValue(f"non-numeric value: {value!r}") from None
    try:
        if math.isfinite(number):
            return number
    except OverflowError:  # an int past the largest float
        pass
    raise UnusableValue(f"non-finite value: {value!r}")


def text_value(value: Any) -> str:
    """``value`` as text with at least one word token, or UnusableValue."""
    text = str(value)
    if not sentences_of(text):
        raise UnusableValue(f"value {text!r} has no word token")
    return text


def _parse_numeric(values: Sequence) -> list[float]:
    """The values as finite floats; any other value raises ValueError naming it."""
    numbers, bad = [], []
    for v in values:
        try:
            numbers.append(float(numeric_value(v)))
        except UnusableValue:
            bad.append(repr(v))
    if bad:
        raise ValueError("non-numeric or non-finite value(s) for NUMERICAL entropy: "
                         + ", ".join(bad))
    return numbers


def value_cluster_entropy(values: Sequence, category: str, embedder=None) -> float:
    """Diversity of one parameter group's committed values, in bits."""
    return value_entropy_over_indices(values, category, embedder)(range(len(values)))


def query_cluster_entropy(embeddings: Sequence) -> float:
    """Diversity of a query corpus from its embeddings, in bits."""
    return query_entropy_over_indices(embeddings)(range(len(embeddings)))


def _entropy_over_indices(near: np.ndarray) -> Callable[[Sequence[int]], float]:
    """Per index subset, the entropy of the components of its sub-table of
    the neighbourhood table ``near``."""
    def entropy(indices: Sequence[int]) -> float:
        return entropy_of_sizes(np.bincount(components(near[np.ix_(indices, indices)])).tolist())
    return entropy


def value_entropy_over_indices(values: Sequence, category: str,
                               embedder=None) -> Callable[[Sequence[int]], float]:
    """The cluster entropy of the values at each index subset, from one
    neighbourhood table of ``values``, built as a ``ValueIndex`` builds its
    own: each subset reads the component sizes of its sub-table, which
    ``dbscan``'s 12-decimal neighbour test makes equal to the table of the
    gathered values, so every score is the same bits."""
    if len(values) == 0:
        raise ValueError("value_cluster_entropy requires at least one value")
    index = ValueIndex(category, embedder)
    return _entropy_over_indices(index._neighbours(index._points(values)))


def query_entropy_over_indices(embeddings: Sequence) -> Callable[[Sequence[int]], float]:
    """The cluster entropy of the rows at each index subset, from one
    neighbourhood table, as ``value_entropy_over_indices``."""
    if len(embeddings) == 0:
        raise ValueError("query_cluster_entropy requires at least one embedding")
    return _entropy_over_indices(
        within_eps(pairwise_distances(embeddings, "cosine"), QUERY_EPS))


# Committed values are indexed in blocks of this many, so building an index
# never holds an n x n distance matrix.
_BLOCK = 128


class ValueIndex:
    """One parameter group's committed values, as points, with the components
    of their eps-graph.

    With ``MIN_SAMPLES`` = 2 and every point its own neighbour, each point with
    a neighbour is a core point, so DBSCAN's clusters are exactly the
    eps-graph's components of two or more points and its noise points are the
    singletons. Adding points only merges components. ``entropies`` therefore
    scores each candidate against the indexed values plus per-call extra
    values from the distances of the new points alone, and each score equals
    ``value_cluster_entropy(values + extra + [candidate])`` bit for bit: the
    neighbour test is ``dbscan``'s own, and the entropy sums the same size
    multiset. Components are kept as a label per point (a point index) plus a
    size per label, and one routine, ``_join``, adds points to them: a commit
    joins its block into the index in place, and a score joins the extras
    into a copy of the index's components, then adds each candidate to the
    components it reaches.

    Points and labels live in buffers with spare room that double when full;
    ``_rows`` and ``_labels`` are views of their filled prefixes, so a commit
    writes its own rows only. A histogram of the component sizes is kept in
    step with every commit and merge, and a score starts from it.

    A STRING index is the owner of its values' rows: once a block is indexed,
    an embedder with a ``release`` (a run's ``battery.EmbeddingCache``) drops
    the block's raw rows, and a later request for an indexed value is served
    from the index's unit row, which is ``unit_rows`` of that raw row bit for
    bit.
    """

    def __init__(self, category: str, embedder=None):
        if category not in ("NUMERICAL", "STRING"):
            raise ValueError(f"cluster entropy is defined for NUMERICAL/STRING, not {category!r}")
        if category == "STRING" and embedder is None:
            raise ValueError("STRING entropy requires an embedder")
        self.eps = NUMERIC_EPS if category == "NUMERICAL" else STRING_EPS
        self.category = category
        self.embedder = embedder
        self._reset()

    def _reset(self) -> None:
        self.values: list[Any] = []
        self._row_buf = np.empty((0, 0))
        self._label_buf = np.empty(0, dtype=np.intp)
        self._sizes: dict[int, int] = {}
        self._size_counts: Counter[int] = Counter()  # component size -> components
        self._held: dict[str, int] = {}  # STRING value text -> its row

    def __len__(self) -> int:
        return len(self.values)

    @property
    def _rows(self) -> np.ndarray:
        return self._row_buf[:len(self.values)]

    @property
    def _labels(self) -> np.ndarray:
        return self._label_buf[:len(self.values)]

    def _points(self, values: Sequence) -> np.ndarray:
        """Numbers as one-column rows; strings as their embeddings scaled to
        unit norm (a zero-norm embedding raises), so an index normalises each
        string once. An indexed string's row is read from the index."""
        if self.category == "NUMERICAL":
            return np.asarray(_parse_numeric(values), dtype=np.float64).reshape(-1, 1)
        texts = [str(v) for v in values]
        missing = [t for t in texts if t not in self._held]
        fresh = dict(zip(missing, unit_rows(self.embedder.embed(missing)))) if missing else {}
        return np.stack([fresh[t] if t in fresh else self._row_buf[self._held[t]]
                         for t in texts])

    def _distances(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Euclidean distances of NUMERICAL points; cosine distances of STRING
        rows, which are already unit norm, with the norm ``cosine_matrix``
        would take, so the distance is ``1 - clip(a @ b.T)`` bit for bit."""
        if self.category == "NUMERICAL":
            return pairwise_distances(a, "euclidean", b)
        sim = a @ b.T
        return 1.0 - np.clip(sim, -1.0, 1.0, out=sim)

    def _neighbours(self, rows: np.ndarray) -> np.ndarray:
        """Neighbour mask of new points, (n + m) x m: against the indexed
        points, then among themselves."""
        among = within_eps(self._distances(rows, rows), self.eps)
        if not self.values:
            return among
        return np.vstack([within_eps(self._distances(self._rows, rows), self.eps), among])

    def sync(self, values: Sequence) -> None:
        """Make the index hold exactly ``values``: extend it when it holds a
        prefix of them, rebuild it otherwise."""
        if list(values[: len(self.values)]) != self.values:
            self._reset()
        self.extend(values[len(self.values):])

    def _reserve(self, count: int, width: int) -> None:
        """Room for ``count`` points of ``width`` columns, doubling the buffers
        when they are full."""
        if count <= len(self._label_buf):
            return
        filled, capacity = len(self.values), max(count, 2 * len(self._label_buf))
        rows, labels = np.empty((capacity, width)), np.empty(capacity, dtype=np.intp)
        if filled:
            rows[:filled], labels[:filled] = self._rows, self._labels
        self._row_buf, self._label_buf = rows, labels

    def extend(self, values: Iterable) -> None:
        """Index more committed values, in order."""
        values = list(values)
        for start in range(0, len(values), _BLOCK):
            block = values[start:start + _BLOCK]
            rows = self._points(block)
            near = self._neighbours(rows)
            first, end = len(self.values), len(self.values) + len(block)
            self._reserve(end, rows.shape[1])
            _join(self._label_buf[:end], self._sizes, self._size_counts, near, first)
            self._row_buf[first:end] = rows
            self.values.extend(block)
            if self.category == "STRING":
                texts = [str(v) for v in block]
                for position, text in enumerate(texts, first):
                    self._held.setdefault(text, position)
                if hasattr(self.embedder, "release"):
                    self.embedder.release(texts)

    def as_sets(self) -> tuple[frozenset[frozenset[int]], frozenset[int]]:
        """The indexed values' clusters and noise, as ``ClusterPartition.as_sets``."""
        members: dict[int, set[int]] = {}
        for i, label in enumerate(self._labels.tolist()):
            members.setdefault(label, set()).add(i)
        clusters = frozenset(frozenset(m) for m in members.values() if len(m) > 1)
        noise = frozenset(i for m in members.values() if len(m) == 1 for i in m)
        return clusters, noise

    def entropies(self, extra: Sequence, candidates: Sequence) -> list[float]:
        """Per candidate c, the cluster entropy of the indexed values + ``extra``
        + [c], in bits."""
        k, n = len(extra), len(self.values)
        near = self._neighbours(self._points(list(extra) + list(candidates)))[:n + k]
        labels = np.empty(n + k, dtype=np.intp)
        labels[:n] = self._labels
        sizes, counts = dict(self._sizes), self._size_counts.copy()
        _join(labels, sizes, counts, near[:, :k], n)
        out = []
        for c in range(k, near.shape[1]):
            reached = [sizes[lab] for lab in set(labels[near[:, c]].tolist())]
            scores = counts.copy()
            scores.subtract(reached)
            scores[1 + sum(reached)] += 1
            out.append(entropy_of_sizes(scores))
        return out


def _join(labels: np.ndarray, sizes: dict[int, int], counts: Counter[int],
          near: np.ndarray, first: int) -> None:
    """Add points ``first`` on to the components ``labels`` holds, in place.

    ``near`` is the new points' neighbour mask, (first + m) x m, and
    ``labels`` has room for all first + m points. Each new point starts as a
    singleton and then joins the components of the points it reaches, itself
    included: the largest keeps its label (the smallest label among equals)
    and the others take it. ``sizes`` (label -> size) and ``counts`` (size ->
    components) follow, and the merged labels leave ``sizes``."""
    end = len(labels)
    labels[first:] = np.arange(first, end)
    sizes.update(dict.fromkeys(range(first, end), 1))
    counts[1] += end - first
    for j in range(end - first):
        touched = set(labels[near[:, j]].tolist())
        if len(touched) < 2:
            continue
        keep = max(touched, key=lambda lab: (sizes[lab], -lab))
        for lab in touched:
            counts[sizes[lab]] -= 1
            if not counts[sizes[lab]]:
                del counts[sizes[lab]]
        for lab in touched - {keep}:
            labels[labels == lab] = keep
            sizes[keep] += sizes.pop(lab)
        counts[sizes[keep]] += 1
