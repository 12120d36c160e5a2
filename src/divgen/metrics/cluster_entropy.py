"""Cluster entropy: the argument- and query-diversity objective.

Values are clustered with DBSCAN (euclidean eps=0.5 for numbers, cosine eps=0.1
over embeddings for strings, cosine eps=0.3 for query embeddings), every noise
point counts as its own singleton cluster, and the score is the base-2 entropy
of the cluster-size fractions. The attainable range is [0, log2 n]: 0 when all
values fall in one cluster, log2 n when every value stands alone.

Argument selection scores candidates against a group's committed values many
times per run; ``ValueIndex`` keeps those values' points and clusters between
calls, so each call costs the rows of its new values only.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Any, Iterable, Sequence

import numpy as np

from divgen.metrics.dbscan import ClusterPartition, dbscan, pairwise_distances, within_eps

NUMERIC_EPS = 0.5
STRING_EPS = 0.1
QUERY_EPS = 0.3
MIN_SAMPLES = 2


def cluster_entropy_bits(partition: ClusterPartition) -> float:
    """Base-2 entropy of cluster-size fractions, noise points as singletons."""
    return entropy_of_sizes(list(partition.cluster_sizes) + [1] * partition.noise_count)


def entropy_of_sizes(sizes: Iterable[int]) -> float:
    """Base-2 entropy of the fractions of a cluster-size multiset."""
    sizes = sorted(sizes)
    total = sum(sizes)
    if total == 0:
        raise ValueError("entropy of an empty partition is undefined")
    return -math.fsum((s / total) * math.log2(s / total) for s in sizes) + 0.0


def _parse_numeric(values: Sequence) -> list[float]:
    out: list[float] = []
    bad: list[str] = []
    for v in values:
        try:
            out.append(float(v))
        except (TypeError, ValueError):
            bad.append(repr(v))
    if bad:
        raise ValueError(f"non-numeric value(s) for NUMERICAL entropy: {', '.join(bad)}")
    return out


def value_cluster_entropy(values: Sequence, category: str, embedder=None) -> float:
    """Diversity of one parameter group's committed values, in bits."""
    if len(values) == 0:
        raise ValueError("value_cluster_entropy requires at least one value")
    if category == "NUMERICAL":
        partition = dbscan(_parse_numeric(values), NUMERIC_EPS, MIN_SAMPLES, "euclidean")
    elif category == "STRING":
        if embedder is None:
            raise ValueError("STRING entropy requires an embedder")
        vectors = embedder.embed([str(v) for v in values])
        partition = dbscan(vectors, STRING_EPS, MIN_SAMPLES, "cosine")
    else:
        raise ValueError(f"cluster entropy is defined for NUMERICAL/STRING, not {category!r}")
    return cluster_entropy_bits(partition)


def query_cluster_entropy(embeddings: Sequence) -> float:
    """Diversity of a query corpus from its embeddings, in bits."""
    if len(embeddings) == 0:
        raise ValueError("query_cluster_entropy requires at least one embedding")
    return cluster_entropy_bits(dbscan(embeddings, QUERY_EPS, MIN_SAMPLES, "cosine"))


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
    size per label; a merge relabels the smaller components to the largest.
    """

    def __init__(self, category: str, embedder=None):
        if category == "NUMERICAL":
            self.eps, self.metric = NUMERIC_EPS, "euclidean"
        elif category == "STRING":
            if embedder is None:
                raise ValueError("STRING entropy requires an embedder")
            self.eps, self.metric = STRING_EPS, "cosine"
        else:
            raise ValueError(f"cluster entropy is defined for NUMERICAL/STRING, not {category!r}")
        self.category = category
        self.embedder = embedder
        self._reset()

    def _reset(self) -> None:
        self.values: list[Any] = []
        self._rows = np.empty((0, 0))
        self._labels = np.empty(0, dtype=np.intp)
        self._sizes: dict[int, int] = {}

    def __len__(self) -> int:
        return len(self.values)

    def _points(self, values: Sequence) -> np.ndarray:
        if self.category == "NUMERICAL":
            return np.asarray(_parse_numeric(values), dtype=np.float64).reshape(-1, 1)
        return np.asarray(self.embedder.embed([str(v) for v in values]), dtype=np.float64)

    def _neighbours(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Neighbour masks of new points: against the indexed points (n x m)
        and among themselves (m x m)."""
        among = within_eps(pairwise_distances(rows, self.metric), self.eps)
        if not self.values:
            return np.zeros((0, len(rows)), dtype=bool), among
        return within_eps(pairwise_distances(self._rows, self.metric, rows), self.eps), among

    def sync(self, values: Sequence) -> None:
        """Make the index hold exactly ``values``: extend it when it holds a
        prefix of them, rebuild it otherwise."""
        if list(values[: len(self.values)]) != self.values:
            self._reset()
        self.extend(values[len(self.values):])

    def extend(self, values: Iterable) -> None:
        """Index more committed values, in order."""
        values = list(values)
        for start in range(0, len(values), _BLOCK):
            block = values[start:start + _BLOCK]
            rows = self._points(block)
            old, among = self._neighbours(rows)
            near = np.vstack([old, among])
            first, end = len(self.values), len(self.values) + len(block)
            labels = np.concatenate([self._labels, np.arange(first, end)])
            self._sizes.update(dict.fromkeys(range(first, end), 1))
            for j in range(len(block)):
                touched = set(labels[near[:, j]].tolist())
                if len(touched) > 1:
                    self._merge(labels, touched)
            self._labels = labels
            self._rows = rows if not self.values else np.vstack([self._rows, rows])
            self.values.extend(block)

    def _merge(self, labels: np.ndarray, touched: set[int]) -> None:
        keep = max(touched, key=lambda lab: (self._sizes[lab], -lab))
        for lab in touched - {keep}:
            labels[labels == lab] = keep
            self._sizes[keep] += self._sizes.pop(lab)

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
        k = len(extra)
        rows = self._points(list(extra) + list(candidates))
        old, among = self._neighbours(rows)
        parent: dict[int, int] = {}  # the extras' merges: labels >= 0, extra j is -1 - j
        size = dict(self._sizes)

        def find(node: int) -> int:
            while parent.get(node, node) != node:
                node = parent[node]
            return node

        def touched(col: int, upto: int) -> set[int]:
            """Roots of the components new point ``col`` reaches: indexed
            points' labels, then extras before ``upto``."""
            roots = {find(lab) for lab in set(self._labels[old[:, col]].tolist())}
            roots.update(find(-1 - i) for i in np.nonzero(among[:upto, col])[0].tolist())
            return roots

        for j in range(k):
            node = -1 - j
            size[node] = 1
            for root in touched(j, j):
                parent[root] = node
                size[node] += size.pop(root)
        base = Counter(size.values())
        out = []
        for c in range(k, k + len(candidates)):
            roots = touched(c, k)
            sizes = base.copy()
            sizes.subtract(size[r] for r in roots)
            sizes[1 + sum(size[r] for r in roots)] += 1
            out.append(entropy_of_sizes(sizes.elements()))
        return out
