"""Density-based clustering with euclidean or cosine distance.

Standard semantics: a point is core when its eps-neighborhood (inclusive,
counting itself) holds at least ``min_samples`` points; clusters are the
density-connected components of core points; a non-core point within eps of a
core joins the cluster of its first core neighbor in input order (a fixed rule
so partitions are deterministic); everything else is noise.

The partition is taken in numpy, with no per-point Python loop: the core
points' components come from hooking and pointer jumping over the
neighbourhood matrix (``components``), each labelled by its smallest core
index, and clusters are numbered in the order of those indices, the order in
which a flood fill seeded from each core in turn would find them.

Cosine distance is 1 - ``semantic.cosine_matrix``; a zero-norm point has no
direction, so it raises ValueError rather than landing at some distance. Rows
with a known unit form (``semantic.UnitRows``) reach ``cosine_matrix`` whole,
so their unit form is not recomputed.
Distances are compared with eps at 12 decimals (``within_eps``): a distance
computed from one row against a block can differ in its last bit from the same
entry of the full matrix, and the rounding makes both give the same
neighbourhood, so an incremental caller (``cluster_entropy.ValueIndex``) agrees
with this function at ties.

``dbscan`` takes two steps, each callable alone: the neighbourhood table,
``within_eps(pairwise_distances(points, metric), eps)``, and the ``partition``
of that table. A caller that clusters many subsets of one point set, as the
report's bootstrap resamples do, builds the table once and reads
``near[np.ix_(idx, idx)]`` per subset (the report takes its ``components``):
by the same rounding, that sub-table is the table of the gathered points.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from divgen.metrics.semantic import UnitRows, cosine_matrix

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


def _cosine_rows(points: Sequence) -> np.ndarray | UnitRows:
    """``_as_matrix(points)``, except that a ``UnitRows`` stays whole, so
    ``cosine_matrix`` reads its unit form."""
    return points if isinstance(points, UnitRows) else _as_matrix(points)


def pairwise_distances(a: Sequence, metric: str, b: Sequence | None = None) -> np.ndarray:
    """Distances between the rows of ``a`` and of ``b`` (of ``a`` itself when
    ``b`` is omitted)."""
    if metric == "cosine":
        return 1.0 - cosine_matrix(_cosine_rows(a), None if b is None else _cosine_rows(b))
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
    raise ValueError(f"unknown metric {metric!r}")


def within_eps(dist: np.ndarray, eps: float) -> np.ndarray:
    """The neighbourhood test: ``dist <= eps`` at 12 decimals. Rounds ``dist``
    in place."""
    return np.round(dist, 12, out=dist) <= eps


def components(adj: np.ndarray) -> np.ndarray:
    """Per node, the smallest node index of its component in the graph of the
    symmetric boolean adjacency matrix ``adj``.

    Each node points at a node no larger than itself, so the pointers form
    trees, each rooted at its smallest node. A round hooks each root onto the
    smallest root adjacent to its tree, then jumps pointers until every node
    points at its root. A tree with no smaller root next to it in one round
    has one in the next, so a component's tree count halves every two rounds
    and a chain of n nodes takes O(log n) rounds, not n. Once no root hooks,
    adjacent nodes share a root: their component's smallest node.
    """
    n = len(adj)
    parent = np.arange(n)
    while True:
        hooked = parent.copy()
        np.minimum.at(hooked, parent, np.where(adj, parent, n).min(axis=1))
        if (hooked == parent).all():
            return parent
        jumped = hooked[hooked]
        while (jumped != hooked).any():
            hooked, jumped = jumped, jumped[jumped]
        parent = hooked


def partition(near: np.ndarray, min_samples: int) -> ClusterPartition:
    """The DBSCAN partition of the points of a neighbourhood table: ``near``
    is the symmetric boolean (n, n) table of which points lie within eps of
    which, each of itself included, as ``within_eps`` gives it."""
    n = len(near)
    core = near.sum(axis=1) >= min_samples
    to_cores = near & core  # [i, j]: j is a core point within eps of i
    # clusters: the components of the graph of core points, numbered by
    # smallest core index
    roots = components(to_cores & core[:, None])
    numbers = np.cumsum(core & (roots == np.arange(n))) - 1
    labels = np.where(core, numbers[roots], NOISE)
    # border points: attach to the first core neighbor (input order)
    border = ~core & to_cores.any(axis=1)
    labels[border] = labels[to_cores[border].argmax(axis=1)]
    sizes = np.bincount(labels[labels != NOISE])
    return ClusterPartition(tuple(labels.tolist()), tuple(sizes.tolist()))


def dbscan(points: Sequence, eps: float, min_samples: int,
           metric: str = "euclidean") -> ClusterPartition:
    n = len(points)
    if n < 1:
        raise ValueError("dbscan requires at least one point")
    if eps <= 0:
        raise ValueError("eps must be positive")
    if min_samples < 1:
        raise ValueError("min_samples must be >= 1")
    return partition(within_eps(pairwise_distances(points, metric), eps), min_samples)
