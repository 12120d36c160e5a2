"""Embedding-space diversity: pairwise spread, nearest-neighbor isolation,
centroid dispersion, and the kernel eigenvalue entropy score.

``cosine_matrix`` is the package's one cosine; DBSCAN, parameter grouping, the
API similarity graph, the walk coherence check and distractor retrieval call it
too. It scales rows to unit norm, takes one matrix product and clips to
[-1, 1]. The metrics and DBSCAN refuse a zero-norm row; the library-side
callers pass ``allow_zero=True`` and read its similarities as 0 (text without
a word token embeds to zero under the hash embedder). Callers that compare or
rank similarities round them to 12 decimals, and candidate ranking sorts on
each metric's value rounded to 12 decimals, so no result depends on the
summation order of a matrix product or of a metric's sum.

``cosine_matrix`` and the metrics also take rows with a known unit form, a
``UnitRows``: a corpus's rows held with their unit form, computed once.
``unit_rows`` passes that form through, so the report's bootstrap resamples,
which gather rows of one corpus, normalise nothing. A row's norm does not
depend on the rows normalised with it, so the gathered unit rows are bit for
bit ``unit_rows`` of the gathered raw rows, and each score is unchanged.
"""

from __future__ import annotations

import functools
import math
from typing import Sequence

import numpy as np


def _stack(embeddings: Sequence) -> np.ndarray:
    arr = np.asarray(embeddings, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr.reshape(1, -1)
    return arr


class UnitRows:
    """Embedding rows held with their unit form, which is computed once (a
    zero-norm row raises ValueError). ``unit_rows`` returns that form as it
    is and ``np.asarray`` gives the raw rows. Indexing with a sequence of row
    indices gathers lazily: ``rows[idx]`` is a ``UnitRows`` that takes its
    raw or unit rows only when one is read, so a caller that reads neither
    costs no copy."""

    __slots__ = ("_raw", "_unit", "_index")

    def __init__(self, embeddings: Sequence):
        self._raw = _stack(embeddings)
        self._unit = unit_rows(self._raw)
        self._index = None  # every row

    def __len__(self) -> int:
        return len(self._raw) if self._index is None else len(self._index)

    def __getitem__(self, index: Sequence[int]) -> "UnitRows":
        rows = object.__new__(UnitRows)
        rows._raw, rows._unit = self._raw, self._unit
        rows._index = index if self._index is None else np.asarray(self._index)[index]
        return rows

    @property
    def raw(self) -> np.ndarray:
        return self._raw if self._index is None else self._raw[self._index]

    @property
    def unit(self) -> np.ndarray:
        return self._unit if self._index is None else self._unit[self._index]

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        return np.asarray(self.raw, dtype=dtype)


def unit_rows(embeddings: Sequence, allow_zero: bool = False) -> np.ndarray:
    """Each row scaled to unit norm; a zero-norm row raises ValueError, or
    with ``allow_zero`` stays zero. A ``UnitRows`` gives its unit form."""
    if isinstance(embeddings, UnitRows):
        return embeddings.unit
    arr = _stack(embeddings)
    norms = np.linalg.norm(arr, axis=1)
    zero = np.nonzero(norms == 0.0)[0]
    if zero.size and not allow_zero:
        raise ValueError(f"cosine undefined for zero-norm row(s) {zero.tolist()}")
    norms[zero] = 1.0
    return arr / norms[:, None]


def cosine_matrix(a: Sequence, b: Sequence | None = None,
                  allow_zero: bool = False) -> np.ndarray:
    """Cosine similarities between the rows of ``a`` and of ``b`` (of ``a``
    itself when ``b`` is omitted), clipped to [-1, 1].

    A zero-norm row raises ValueError, or with ``allow_zero`` has similarity 0
    to every row.
    """
    unit_a = unit_rows(a, allow_zero)
    unit_b = unit_a if b is None else unit_rows(b, allow_zero)
    sim = unit_a @ unit_b.T
    return np.clip(sim, -1.0, 1.0, out=sim)


@functools.lru_cache(maxsize=16)
def _pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """``np.triu_indices(n, k=1)``, built once per size and read-only, since
    every caller shares it."""
    pairs = np.triu_indices(n, k=1)
    for index in pairs:
        index.flags.writeable = False
    return pairs


def paraphrase_variety(embeddings: Sequence) -> float:
    """Mean (1 - cosine similarity) over unordered pairs."""
    sim = cosine_matrix(embeddings)
    n = sim.shape[0]
    if n < 2:
        return 0.0
    return float(np.mean(1.0 - sim[_pairs(n)]))


def chamfer_distance_score(embeddings: Sequence) -> float:
    """Mean over points of the cosine distance to their nearest other point."""
    sim = cosine_matrix(embeddings)
    n = sim.shape[0]
    if n < 2:
        return 0.0
    dist = 1.0 - sim
    np.fill_diagonal(dist, np.inf)
    return float(np.mean(np.min(dist, axis=1)))


def semantic_spread(embeddings: Sequence) -> float:
    """Mean cosine distance from each embedding to the arithmetic centroid."""
    arr = _stack(embeddings)
    centroid = arr.mean(axis=0)
    cnorm = float(np.linalg.norm(centroid))
    if cnorm == 0.0:
        raise ValueError("semantic_spread: centroid has zero norm (degenerate"
                         " antipodal configuration)")
    return float(np.mean(1.0 - cosine_matrix(embeddings, centroid)[:, 0]))


def vendi_score(embeddings: Sequence) -> float:
    """Effective number of distinct items: exp of the eigenvalue entropy of K/n.

    K is the cosine-similarity kernel, symmetric and PSD for the unit-norm
    inputs we feed it; eigenvalues within -1e-9 of zero are clamped.
    """
    return vendi_from_eigenvalues(kernel_eigenvalues(cosine_matrix(embeddings)))


def kernel_eigenvalues(sim: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of the Vendi kernel K/n of one (n, n) similarity
    matrix, symmetrised as (K + Kᵀ)/2n. ``sim`` itself is not written.

    Raises ValueError if any eigenvalue is below -1e-9 (K is not PSD).
    """
    n = len(sim)
    scaled = sim + sim.T
    scaled /= 2.0 * n
    eigenvalues = np.linalg.eigvalsh(scaled)
    if np.any(eigenvalues < -1e-9):
        raise ValueError("kernel is not PSD within tolerance")
    return eigenvalues


def vendi_from_eigenvalues(eigenvalues: np.ndarray) -> float:
    """exp of the entropy of one kernel's eigenvalues, negatives clamped to 0
    (they add nothing, and neither do zeros or NaN)."""
    entropy = 0.0
    for lam in eigenvalues.tolist():
        if lam > 0.0:
            entropy -= lam * math.log(lam)
    return math.exp(entropy)
