"""Reciprocal rank fusion: merge incommensurable metric scales by rank."""

from __future__ import annotations

import math

import numpy as np

RRF_K = 60  # reciprocal-rank-fusion constant (Cormack et al., SIGIR 2009)


def rrf_fuse(ranks: np.ndarray) -> tuple[list[float], list[int]]:
    """Fuse a (candidates × metrics) matrix of ranks (1 = best) into one order.

    Row i's score is the sum over its ranks r of 1/(RRF_K + r), each term
    computed once per rank, taken by ``math.fsum``: correctly rounded, so two
    rows holding the same ranks in any metric order score the same. Returns
    the scores by row and the row indices by descending score, ties broken by
    row position, so the result depends only on ranks, never on raw metric
    scales.
    """
    terms = [1.0 / (RRF_K + r) for r in range(int(ranks.max(initial=0)) + 1)]
    scores = [math.fsum(map(terms.__getitem__, row)) for row in ranks.tolist()]
    return scores, sorted(range(len(scores)), key=lambda i: (-scores[i], i))
