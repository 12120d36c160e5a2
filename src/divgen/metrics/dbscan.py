"""Density-based clustering with euclidean or cosine distance.

Standard semantics: a point is core when its eps-neighborhood (inclusive,
counting itself) holds at least ``min_samples`` points; clusters are the
density-connected components of core points; a non-core point within eps of a
core joins the cluster of its first core neighbor in input order (a fixed rule
so partitions are deterministic); everything else is noise.

Cosine distance is 1 - ``semantic.cosine_matrix``; a zero-norm point has no
direction, so it raises ValueError rather than landing at some distance.
Distances are compared with eps at 12 decimals (``within_eps``): a distance
computed from one row against a block can differ in its last bit from the same
entry of the full matrix, and the rounding makes both give the same
neighbourhood, so an incremental caller (``cluster_entropy.ValueIndex``) agrees
with this function at ties.
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


def pairwise_distances(a: Sequence, metric: str, b: Sequence | None = None) -> np.ndarray:
    """Distances between the rows of ``a`` and of ``b`` (of ``a`` itself when
    ``b`` is omitted)."""
    rows_a = _as_matrix(a)
    rows_b = rows_a if b is None else _as_matrix(b)
    if metric == "euclidean":
        if rows_a.shape[1] == 1:
            # |a - b| directly: the expanded form cancels for large scalars
            return np.abs(rows_a - rows_b.T)
        sq_a = np.sum(rows_a * rows_a, axis=1)
        sq_b = sq_a if b is None else np.sum(rows_b * rows_b, axis=1)
        d2 = sq_a[:, None] + sq_b[None, :] - 2.0 * (rows_a @ rows_b.T)
        return np.sqrt(np.maximum(d2, 0.0))
    if metric == "cosine":
        return 1.0 - cosine_matrix(rows_a, None if b is None else rows_b)
    raise ValueError(f"unknown metric {metric!r}")


def within_eps(dist: np.ndarray, eps: float) -> np.ndarray:
    """The neighbourhood test: ``dist <= eps`` at 12 decimals. Rounds ``dist``
    in place."""
    return np.round(dist, 12, out=dist) <= eps


def dbscan(points: Sequence, eps: float, min_samples: int,
           metric: str = "euclidean") -> ClusterPartition:
    n = len(points)
    if n < 1:
        raise ValueError("dbscan requires at least one point")
    if eps <= 0:
        raise ValueError("eps must be positive")
    if min_samples < 1:
        raise ValueError("min_samples must be >= 1")

    near = within_eps(pairwise_distances(points, metric), eps)
    neighbors = [np.nonzero(near[i])[0] for i in range(n)]
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
