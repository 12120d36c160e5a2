"""Reciprocal rank fusion: merge incommensurable metric scales by rank."""

from __future__ import annotations

import math
from typing import Hashable, Sequence, TypeVar

C = TypeVar("C", bound=Hashable)

RRF_K = 60  # reciprocal-rank-fusion constant (Cormack et al., SIGIR 2009)


def rrf_fuse(
    candidates: Sequence[C],
    rankings: Sequence[Sequence[C]],
) -> tuple[dict[C, float], list[C]]:
    """Fuse per-metric orderings into one ranking.

    Each ranking lists the full candidate set best-first (ranks start at 1);
    score(c) = sum over rankings of 1/(RRF_K + rank(c)), taken by ``math.fsum``:
    correctly rounded, so two candidates with the same ranks in any metric
    order score the same. The fused ordering is by descending score with ties
    broken by the candidates' insertion order, so the result depends only on
    ranks, never on raw metric scales.
    """
    pool = list(candidates)
    pool_set = set(pool)
    if len(pool_set) != len(pool):
        raise ValueError("candidates must be distinct")
    terms = [1.0 / (RRF_K + rank) for rank in range(1, len(pool) + 1)]
    parts: dict[C, list[float]] = {c: [] for c in pool}
    for ranking in rankings:
        if set(ranking) != pool_set or len(ranking) != len(pool):
            raise ValueError("every ranking must order exactly the candidate set")
        for cand, term in zip(ranking, terms):
            parts[cand].append(term)
    scores = {c: math.fsum(p) for c, p in parts.items()}
    order = sorted(range(len(pool)), key=lambda i: (-scores[pool[i]], i))
    return scores, [pool[i] for i in order]
