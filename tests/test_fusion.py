import math

import pytest
from hypothesis import given, settings, strategies as st

from divgen.metrics.fusion import rrf_fuse


def test_single_candidate_scores_m_over_k_plus_one():
    scores, order = rrf_fuse(["only"], [["only"]] * 3)
    assert scores["only"] == pytest.approx(3 / 61, abs=1e-15)
    assert order == ["only"]


def test_dominant_candidate_ranks_first():
    cands = ["a", "b", "c"]
    rankings = [["a", "b", "c"], ["a", "c", "b"], ["a", "b", "c"]]
    scores, order = rrf_fuse(cands, rankings)
    assert order[0] == "a"
    assert scores["a"] == pytest.approx(3 / 61)


def test_eight_metric_all_rank_one_score():
    cands = ["win", "lose"]
    rankings = [["win", "lose"]] * 8
    scores, _ = rrf_fuse(cands, rankings)
    assert scores["win"] == pytest.approx(8 / 61, abs=1e-12)
    assert abs(scores["win"] - 0.13114754098360656) < 1e-12


def test_mirror_ranks_tie_break_by_insertion_order():
    cands = ["first", "second"]
    rankings = [["first", "second"], ["second", "first"]]
    scores, order = rrf_fuse(cands, rankings)
    assert scores["first"] == scores["second"] == pytest.approx(1 / 61 + 1 / 62)
    assert order == ["first", "second"]


def test_equal_rank_multisets_tie_break_by_pool_position():
    # the same eight ranks in two metric orders: summed in metric order, b's
    # score came out one ulp above a's, so b went first
    a_ranks, b_ranks = [18, 19, 10, 15, 3, 20, 13, 11], [13, 11, 18, 3, 20, 19, 10, 15]
    assert sorted(a_ranks) == sorted(b_ranks)
    others = [f"c{i}" for i in range(18)]
    cands = ["a", "b", *others]
    rankings = []
    for ra, rb in zip(a_ranks, b_ranks):
        ranking = list(others)
        for name, rank in sorted((("a", ra), ("b", rb)), key=lambda x: x[1]):
            ranking.insert(rank - 1, name)
        assert ranking.index("a") == ra - 1 and ranking.index("b") == rb - 1
        rankings.append(ranking)
    scores, order = rrf_fuse(cands, rankings)
    assert scores["a"] == scores["b"]
    assert order.index("a") < order.index("b")


def test_rank_only_dependence_under_monotone_transforms():
    # fused order must match whether built from raw scores or exp(raw)
    cands = ["a", "b", "c", "d"]
    metric_scores = [
        {"a": 0.9, "b": 0.5, "c": 0.7, "d": 0.1},
        {"a": 0.2, "b": 0.8, "c": 0.6, "d": 0.4},
        {"a": 0.55, "b": 0.54, "c": 0.53, "d": 0.52},
    ]

    def ranking(table):
        return sorted(cands, key=lambda c: (-table[c], cands.index(c)))

    raw = [ranking(t) for t in metric_scores]
    transformed = [ranking({c: math.exp(7 * v) for c, v in t.items()})
                   for t in metric_scores]
    assert rrf_fuse(cands, raw)[1] == rrf_fuse(cands, transformed)[1]


def test_rankings_must_cover_candidate_set():
    with pytest.raises(ValueError):
        rrf_fuse(["a", "b"], [["a"]])
    with pytest.raises(ValueError):
        rrf_fuse(["a", "a"], [["a", "a"]])


@settings(max_examples=50, deadline=None)
@given(data=st.data(), n=st.integers(1, 8), m=st.integers(1, 5))
def test_fused_order_is_a_permutation(data, n, m):
    cands = [f"c{i}" for i in range(n)]
    rankings = [data.draw(st.permutations(cands)) for _ in range(m)]
    scores, order = rrf_fuse(cands, rankings)
    assert sorted(order) == sorted(cands)
    assert set(scores) == set(cands)
    # descending by construction
    vals = [scores[c] for c in order]
    assert all(vals[i] >= vals[i + 1] - 1e-15 for i in range(len(vals) - 1))
