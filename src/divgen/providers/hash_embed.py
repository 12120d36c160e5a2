"""Deterministic offline embedder with controllable cosine geometry.

The word tokens of ``metrics.text.tokenize`` are hashed into one of
``dimension`` buckets; the bucket count vector is L2-normalized. Shared tokens
raise cosine similarity, disjoint token sets give (hash collisions aside)
orthogonal vectors, and every output is unit-norm and nonnegative, so cosine
similarity lands in [0, 1]. Text without a word token embeds to zero.
"""

from __future__ import annotations

import functools
import hashlib
from typing import Sequence

import numpy as np

from divgen.metrics.text import tokenize


@functools.lru_cache(maxsize=1 << 16)
def _bucket(token: str, dimension: int) -> int:
    digest = hashlib.md5(token.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % dimension


class HashEmbedder:
    """Pure, process-stable embedding provider for tests and offline runs. It
    keeps no per-text state: a run's ``battery.EmbeddingCache`` sends it each
    distinct text once, and again only a released text its store lacks (a
    query candidate or argument value proposed again after it was let go)."""

    def __init__(self, dimension: int = 384):
        if dimension <= 0:
            raise ValueError("dimension must be positive")
        self.dimension = dimension

    def _embed_one(self, text: str) -> np.ndarray:
        vec = np.zeros(self.dimension, dtype=np.float64)
        # a run embeds each text once, so this skips tokenize's memo
        for token in tokenize.__wrapped__(text):
            vec[_bucket(token, self.dimension)] += 1.0
        norm = float(np.linalg.norm(vec))
        if norm > 0.0:
            vec /= norm
        return vec

    def embed(self, texts: Sequence[str]) -> list[np.ndarray]:
        if len(texts) == 0:
            raise ValueError("embed requires at least one text")
        return [self._embed_one(text) for text in texts]
