import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from divgen.metrics.battery import OPTIMIZED_METRICS
from divgen.metrics.fusion import RRF_K, rrf_fuse
from divgen.querygen import rank_candidates_by_diversity
from test_marginal_scorer import FixedScorer


def rank_matrix(tables):
    """Ranks (1 = highest score, ties by position) of each table's scores, one
    column per table."""
    ranks = np.empty((len(tables[0]), len(tables)), dtype=np.intp)
    for j, table in enumerate(tables):
        order = sorted(range(len(table)), key=lambda i: (-table[i], i))
        ranks[order, j] = np.arange(1, len(table) + 1)
    return ranks


def test_single_candidate_scores_m_over_k_plus_one():
    scores, order = rrf_fuse(np.array([[1, 1, 1]]))
    assert scores[0] == pytest.approx(3 / 61, abs=1e-15)
    assert order == [0]


def test_dominant_candidate_ranks_first():
    # orderings abc, acb, abc
    scores, order = rrf_fuse(np.array([[1, 1, 1], [2, 3, 2], [3, 2, 3]]))
    assert order[0] == 0
    assert scores[0] == pytest.approx(3 / 61)


def test_eight_metric_all_rank_one_score():
    scores, _ = rrf_fuse(np.array([[1] * 8, [2] * 8]))
    assert scores[0] == pytest.approx(8 / 61, abs=1e-12)
    assert abs(scores[0] - 0.13114754098360656) < 1e-12


def test_mirror_ranks_tie_break_by_insertion_order():
    scores, order = rrf_fuse(np.array([[1, 2], [2, 1]]))
    assert scores[0] == scores[1] == pytest.approx(1 / 61 + 1 / 62)
    assert order == [0, 1]


def test_equal_rank_multisets_tie_break_by_pool_position():
    # the same eight ranks in two metric orders: summed in metric order, the
    # second row's score came out one ulp above the first's, so it went first
    a_ranks, b_ranks = [18, 19, 10, 15, 3, 20, 13, 11], [13, 11, 18, 3, 20, 19, 10, 15]
    assert sorted(a_ranks) == sorted(b_ranks)
    ranks = np.empty((20, 8), dtype=np.intp)
    ranks[0], ranks[1] = a_ranks, b_ranks
    for j in range(8):
        ranks[2:, j] = sorted(set(range(1, 21)) - {a_ranks[j], b_ranks[j]})
    scores, order = rrf_fuse(ranks)
    assert scores[0] == scores[1]
    assert order.index(0) < order.index(1)


def test_rank_only_dependence_under_monotone_transforms():
    # fused order must match whether built from raw scores or exp(raw)
    metric_scores = [[0.9, 0.5, 0.7, 0.1], [0.2, 0.8, 0.6, 0.4], [0.55, 0.54, 0.53, 0.52]]
    transformed = [[math.exp(7 * v) for v in t] for t in metric_scores]
    assert rrf_fuse(rank_matrix(metric_scores))[1] == rrf_fuse(rank_matrix(transformed))[1]


@settings(max_examples=50, deadline=None)
@given(data=st.data(), n=st.integers(1, 8), m=st.integers(1, 5))
def test_fused_order_is_a_permutation(data, n, m):
    ranks = np.array([data.draw(st.permutations(range(1, n + 1))) for _ in range(m)]).T
    scores, order = rrf_fuse(ranks)
    assert sorted(order) == list(range(n))
    assert len(scores) == n
    # descending by construction
    vals = [scores[i] for i in order]
    assert all(vals[i] >= vals[i + 1] - 1e-15 for i in range(len(vals) - 1))


def orderings_rrf_fuse(candidates, rankings):
    """Fusion of per-metric orderings, as ranking did before it took one rank
    matrix: each ordering lists the candidates best-first."""
    pool = list(candidates)
    terms = [1.0 / (RRF_K + rank) for rank in range(1, len(pool) + 1)]
    parts = {c: [] for c in pool}
    for ranking in rankings:
        for cand, term in zip(ranking, terms):
            parts[cand].append(term)
    scores = {c: math.fsum(p) for c, p in parts.items()}
    order = sorted(range(len(pool)), key=lambda i: (-scores[pool[i]], i))
    return scores, [pool[i] for i in order]


def orderings_rank(rows, pool):
    """Ranking by eight Python sorts of the rounded scores, one per metric."""
    rankings, ranks = [], {c: {} for c in pool}
    for j, metric in enumerate(OPTIMIZED_METRICS):
        order = sorted(range(len(pool)), key=lambda i: (-round(rows[pool[i]][j], 12), i))
        rankings.append([pool[i] for i in order])
        for rank, i in enumerate(order, start=1):
            ranks[pool[i]][metric] = rank
    scores, fused = orderings_rrf_fuse(pool, rankings)
    return fused, ranks, scores


# ties are common: signed zeros, values below 1e-12 that round to a zero, and
# values less than 1e-12 apart that round together or apart
TIED_VALUES = [0.0, -0.0, 1e-13, -4e-13, 0.5, 0.5 + 4e-13, 0.5 - 3e-13, 0.5 + 6e-13,
               math.nextafter(0.5, 1.0), 0.25, -1.0]
FREE_MATRICES = st.integers(1, 25).flatmap(lambda p: st.lists(
    st.lists(st.sampled_from(TIED_VALUES), min_size=8, max_size=8), min_size=p, max_size=p))
# rows of eight values that round apart, each with its reverse: a row and its
# reverse lead in mirrored columns, so their fused scores often tie
MIRRORED_MATRICES = st.lists(
    st.permutations([-0.0, 1e-12, 0.5 - 6e-13, 0.5, 0.5 + 6e-13, 0.25, -1.0, 0.75]),
    min_size=1, max_size=3).map(lambda rows: [*rows, *(row[::-1] for row in rows)])


@settings(max_examples=200, deadline=None)
@given(matrix=st.one_of(FREE_MATRICES, MIRRORED_MATRICES))
def test_rank_matrix_ranking_equals_eight_sorts_and_ordering_fusion(matrix):
    pool = [f"c{i}" for i in range(len(matrix))]
    rows = dict(zip(pool, matrix))
    fused, ranks, scores = rank_candidates_by_diversity(FixedScorer(rows), pool)
    want_fused, want_ranks, want_scores = orderings_rank(rows, pool)
    assert fused == want_fused
    assert ranks == want_ranks
    assert {c: s.hex() for c, s in scores.items()} == \
        {c: s.hex() for c, s in want_scores.items()}
