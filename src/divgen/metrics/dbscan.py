"""Density-based clustering with euclidean or cosine distance.

Standard semantics: a point is core when its eps-neighborhood (inclusive,
counting itself) holds at least ``min_samples`` points; clusters are the
density-connected components of core points; a non-core point within eps of a
core joins the cluster of its first core neighbor in input order (a fixed rule
so partitions are deterministic); everything else is noise.

Cosine distance is 1 - ``semantic.cosine_matrix``; a zero-norm point has no
direction, so it raises ValueError rather than landing at some distance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from divgen.metrics.semantic import cosine_matrix

NOISE = -1


@dataclass(frozen=True)
class ClusterPartition:
    """Per-point cluster ids (NOISE = -1) plus the cluster-size multiset."""

    assignments: tuple[int, ...]
    cluster_sizes: tuple[int, ...]

    @property
    def noise_count(self) -> int:
        return sum(1 for a in self.assignments if a == NOISE)

    def as_sets(self) -> tuple[frozenset[frozenset[int]], frozenset[int]]:
        """Label-independent view: the set of clusters plus the noise set."""
        by_label: dict[int, set[int]] = {}
        noise: set[int] = set()
        for idx, label in enumerate(self.assignments):
            if label == NOISE:
                noise.add(idx)
            else:
                by_label.setdefault(label, set()).add(idx)
        return frozenset(frozenset(v) for v in by_label.values()), frozenset(noise)


def _as_matrix(points: Sequence) -> np.ndarray:
    arr = np.asarray(points, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr.reshape(-1, 1)
    if arr.ndim != 2:
        raise ValueError("points must be scalars or fixed-length vectors")
    return arr


def pairwise_distances(points: Sequence, metric: str) -> np.ndarray:
    arr = _as_matrix(points)
    if metric == "euclidean":
        sq = np.sum(arr * arr, axis=1)
        d2 = sq[:, None] + sq[None, :] - 2.0 * (arr @ arr.T)
        return np.sqrt(np.maximum(d2, 0.0))
    if metric == "cosine":
        return 1.0 - cosine_matrix(arr)
    raise ValueError(f"unknown metric {metric!r}")


def dbscan(points: Sequence, eps: float, min_samples: int,
           metric: str = "euclidean") -> ClusterPartition:
    n = len(points)
    if n < 1:
        raise ValueError("dbscan requires at least one point")
    if eps <= 0:
        raise ValueError("eps must be positive")
    if min_samples < 1:
        raise ValueError("min_samples must be >= 1")

    dist = pairwise_distances(points, metric)
    neighbors = [np.nonzero(dist[i] <= eps)[0] for i in range(n)]
    core = np.array([len(nb) >= min_samples for nb in neighbors])

    labels = [NOISE] * n
    cluster = 0
    for seed in range(n):
        if not core[seed] or labels[seed] != NOISE:
            continue
        # flood-fill the density-connected component of core points
        stack = [seed]
        labels[seed] = cluster
        while stack:
            i = stack.pop()
            for j in neighbors[i]:
                j = int(j)
                if core[j] and labels[j] == NOISE:
                    labels[j] = cluster
                    stack.append(j)
        cluster += 1

    # border points: attach to the first core neighbor (input order)
    for i in range(n):
        if labels[i] != NOISE or core[i]:
            continue
        for j in neighbors[i]:
            j = int(j)
            if core[j]:
                labels[i] = labels[j]
                break

    sizes: dict[int, int] = {}
    for lab in labels:
        if lab != NOISE:
            sizes[lab] = sizes.get(lab, 0) + 1
    return ClusterPartition(tuple(labels), tuple(sizes[k] for k in sorted(sizes)))
