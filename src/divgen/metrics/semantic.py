"""Embedding-space diversity: pairwise spread, nearest-neighbor isolation,
centroid dispersion, and the kernel eigenvalue entropy score.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np


def _stack(embeddings: Sequence) -> np.ndarray:
    arr = np.asarray(embeddings, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr.reshape(1, -1)
    return arr


def cosine_matrix(embeddings: Sequence) -> np.ndarray:
    """Pairwise cosine similarities, clipped to [-1, 1]."""
    arr = _stack(embeddings)
    norms = np.linalg.norm(arr, axis=1)
    if np.any(norms == 0.0):
        raise ValueError("cosine undefined for zero-norm embedding")
    unit = arr / norms[:, None]
    return np.clip(unit @ unit.T, -1.0, 1.0)


def paraphrase_variety(embeddings: Sequence) -> float:
    """Mean (1 - cosine similarity) over unordered pairs."""
    return paraphrase_variety_from_similarity(cosine_matrix(embeddings))


def paraphrase_variety_from_similarity(sim: np.ndarray) -> float:
    n = sim.shape[0]
    if n < 2:
        return 0.0
    iu = np.triu_indices(n, k=1)
    return float(np.mean(1.0 - sim[iu]))


def chamfer_distance_score(embeddings: Sequence) -> float:
    """Mean over points of the cosine distance to their nearest other point."""
    return chamfer_from_similarity(cosine_matrix(embeddings))


def chamfer_from_similarity(sim: np.ndarray) -> float:
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
    norms = np.linalg.norm(arr, axis=1)
    if np.any(norms == 0.0):
        raise ValueError("cosine undefined for zero-norm embedding")
    cos = np.clip((arr @ centroid) / (norms * cnorm), -1.0, 1.0)
    return float(np.mean(1.0 - cos))


def vendi_score(embeddings: Sequence) -> float:
    """Effective number of distinct items: exp of the eigenvalue entropy of K/n.

    K is the cosine-similarity kernel, symmetric and PSD for the unit-norm
    inputs we feed it; eigenvalues within -1e-9 of zero are clamped.
    """
    return vendi_from_similarity(cosine_matrix(embeddings))


def vendi_from_similarity(sim: np.ndarray) -> float:
    n = sim.shape[0]
    scaled = (sim + sim.T) / (2.0 * n)
    eigenvalues = np.linalg.eigvalsh(scaled)
    if np.any(eigenvalues < -1e-9):
        raise ValueError("kernel is not PSD within tolerance")
    entropy = 0.0
    for lam in eigenvalues:
        lam = float(max(lam, 0.0))
        if lam > 0.0:
            entropy -= lam * math.log(lam)
    return math.exp(entropy)
