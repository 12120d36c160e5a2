"""Bootstrap standard deviations over seeded draws of positions, and paired
significance tests."""

from __future__ import annotations

import functools
import math
import random
from typing import Callable, Sequence, TypeVar

import numpy as np

from divgen.metrics.text import variance

T = TypeVar("T")

MCNEMAR_EXACT_BELOW = 25
BOOTSTRAP_RESAMPLES = 100  # seeded subsamples per bootstrap std
BOOTSTRAP_FRACTION = 0.8  # share of the items each subsample draws
#: Draw sets kept by ``bootstrap_std``: a ``compare`` scores twelve metrics and
#: four argument columns, each under its own seed.
DRAW_MEMO_SIZE = 16


def bootstrap_std(
    items: Sequence[T],
    metric_fn: Callable[[list[T]], float],
    seed: int,
) -> float:
    """Population std of the metric over ``BOOTSTRAP_RESAMPLES`` seeded subsamples.

    Each resample draws floor(``BOOTSTRAP_FRACTION`` * n) items (at least one)
    without replacement from a ``random.Random(seed)`` stream (one ``sample``
    call per resample, in order), so the result is fully determined by the
    seed. ``sample`` chooses positions without looking at the items, so the
    positions are drawn once per (seed, n, size) and kept (``_draws``), and each
    resample maps its positions to the items: two corpora of one size, scored
    under one seed, share their draws.
    """
    if not items:
        raise ValueError("bootstrap_std requires at least one item")
    population = list(items)
    size = max(1, int(math.floor(BOOTSTRAP_FRACTION * len(population))))
    values = [float(metric_fn([population[i] for i in positions]))
              for positions in _draws(seed, len(population), size).tolist()]
    if min(values) == max(values):
        return 0.0
    return math.sqrt(variance(values))


@functools.lru_cache(maxsize=DRAW_MEMO_SIZE)
def _draws(seed: int, n: int, size: int) -> np.ndarray:
    """Row r: the positions that the r-th ``sample(population, size)`` call of
    a ``random.Random(seed)`` stream picks from a population of n. Read-only,
    since every caller with this key shares it."""
    rng = random.Random(seed)
    draws = np.array([rng.sample(range(n), size) for _ in range(BOOTSTRAP_RESAMPLES)],
                     dtype=np.intp).reshape(BOOTSTRAP_RESAMPLES, size)
    draws.flags.writeable = False
    return draws


def significance(mu1: float, sigma1: float, mu2: float, sigma2: float) -> tuple[bool, int]:
    """(significant, direction): |mu1-mu2| strictly above 1.96*sqrt(s1^2+s2^2).

    direction is +1 when the first mean is higher, -1 when lower, 0 when equal.
    """
    gap = abs(mu1 - mu2)
    threshold = 1.96 * math.sqrt(sigma1 * sigma1 + sigma2 * sigma2)
    if mu1 > mu2:
        direction = 1
    elif mu1 < mu2:
        direction = -1
    else:
        direction = 0
    return gap > threshold, direction


def mcnemar(b: int, c: int) -> float:
    """Two-sided p-value from the discordant-pair counts.

    Below ``MCNEMAR_EXACT_BELOW`` total discordant pairs, the exact binomial(n, 1/2)
    two-sided tail is used (capped at 1); otherwise the continuity-corrected
    chi-square (|b-c|-1)^2/(b+c) with one degree of freedom. b = c = 0 gives 1.
    Symmetric in (b, c).
    """
    if b < 0 or c < 0:
        raise ValueError("discordant counts must be nonnegative")
    n = b + c
    if n == 0:
        return 1.0
    if n < MCNEMAR_EXACT_BELOW:
        lo, hi = min(b, c), max(b, c)
        tail = sum(math.comb(n, i) for i in range(lo + 1))
        upper = sum(math.comb(n, i) for i in range(hi, n + 1))
        return min(1.0, (tail + upper) / 2.0 ** n)
    chi2 = (abs(b - c) - 1) ** 2 / n
    # survival function of chi-square with 1 df
    return math.erfc(math.sqrt(chi2 / 2.0))


def holm_bonferroni(pvalues: Sequence[float], alpha: float = 0.05) -> list[bool]:
    """Step-down multiple-comparison correction.

    Sort ascending and reject the i-th smallest (1-based) while
    p_(i) <= alpha/(m-i+1); the first failure stops the procedure. Decisions are
    returned in the input order.
    """
    if any(not 0.0 <= p <= 1.0 for p in pvalues):
        raise ValueError("p-values must lie in [0, 1]")
    m = len(pvalues)
    order = sorted(range(m), key=lambda i: pvalues[i])
    decisions = [False] * m
    for step, idx in enumerate(order, start=1):
        if pvalues[idx] <= alpha / (m - step + 1):
            decisions[idx] = True
        else:
            break
    return decisions
