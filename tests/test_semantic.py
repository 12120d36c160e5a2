import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from divgen.metrics.semantic import (
    UnitRows,
    chamfer_distance_score,
    cosine_matrix,
    paraphrase_variety,
    round12,
    semantic_spread,
    unit_rows,
    vendi_from_eigenvalues,
    vendi_score,
)


def unit(*xs):
    v = np.asarray(xs, dtype=np.float64)
    return v / np.linalg.norm(v)


def test_paraphrase_variety_examples():
    assert paraphrase_variety([unit(1, 0)] * 4) == pytest.approx(0.0, abs=1e-12)
    assert paraphrase_variety([unit(1, 0), unit(0, 1)]) == pytest.approx(1.0, abs=1e-12)
    # e1, e2, and the bisector: cosines 0, sqrt(2)/2, sqrt(2)/2
    vecs = [unit(1, 0), unit(0, 1), unit(1, 1)]
    expected = 1.0 - (0.0 + math.sqrt(2) / 2 + math.sqrt(2) / 2) / 3
    assert paraphrase_variety(vecs) == pytest.approx(expected, abs=1e-12)


def test_chamfer_examples():
    vecs = [unit(1, 0), unit(1, 0), unit(0, 1), unit(1, 1)]
    # duplicates contribute exactly 0
    dist = 1.0 - np.clip(np.stack(vecs) @ np.stack(vecs).T, -1, 1)
    np.fill_diagonal(dist, np.inf)
    brute = float(np.mean(np.min(dist, axis=1)))
    assert chamfer_distance_score(vecs) == pytest.approx(brute, abs=1e-12)
    assert chamfer_distance_score([unit(1, 0), unit(0, 1)]) == pytest.approx(1.0)
    assert chamfer_distance_score([unit(1, 0)] * 3) == pytest.approx(0.0, abs=1e-12)


def test_semantic_spread_examples():
    assert semantic_spread([unit(1, 0)] * 5) == pytest.approx(0.0, abs=1e-12)
    expected = 1.0 - 1.0 / math.sqrt(2)
    assert semantic_spread([unit(1, 0), unit(0, 1)]) == pytest.approx(expected, abs=1e-12)
    with pytest.raises(ValueError, match="zero norm"):
        semantic_spread([unit(1, 0), -unit(1, 0)])


def test_vendi_extremes_and_block_case():
    assert vendi_score([unit(1, 0)] * 6) == pytest.approx(1.0, abs=1e-9)
    eye = [unit(*row) for row in np.eye(5)]
    assert vendi_score(eye) == pytest.approx(5.0, abs=1e-9)
    # two orthogonal duplicate-pairs: K/4 eigenvalues {0.5, 0.5, 0, 0} -> 2.0
    pairs = [unit(1, 0), unit(1, 0), unit(0, 1), unit(0, 1)]
    assert vendi_score(pairs) == pytest.approx(2.0, abs=1e-6)
    eigs = np.linalg.eigvalsh(np.clip(np.stack(pairs) @ np.stack(pairs).T, -1, 1) / 4)
    assert sorted(np.round(eigs, 9).tolist()) == [0.0, 0.0, 0.5, 0.5]


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 9999), n=st.integers(2, 12))
def test_vendi_bounds_and_permutation_invariance(seed, n):
    rng = np.random.default_rng(seed)
    vecs = rng.normal(size=(n, 6))
    vecs = np.abs(vecs) + 0.05
    vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
    score = vendi_score(vecs)
    assert 1.0 - 1e-9 <= score <= n + 1e-9
    perm = rng.permutation(n)
    assert vendi_score(vecs[perm]) == pytest.approx(score, abs=1e-8)


def scalar_vendi(eigenvalues):
    """The loop over numpy scalars that ``vendi_from_eigenvalues`` replaced."""
    entropy = 0.0
    for lam in eigenvalues:
        lam = float(max(lam, 0.0))
        if lam > 0.0:
            entropy -= lam * math.log(lam)
    return math.exp(entropy)


_eigenvalue = st.one_of(
    st.floats(-1.0, 4.0),
    st.sampled_from([0.0, -0.0, -1e-12, 5e-324, 0.25, 1.0, math.nan]),
)


@settings(max_examples=200, deadline=None)
@given(values=st.lists(_eigenvalue, max_size=40), repeats=st.integers(1, 3))
def test_vendi_from_eigenvalues_matches_the_scalar_loop(values, repeats):
    # negatives, zeros of either sign and NaN add nothing; repeated values
    # keep their order in the sum
    eigenvalues = np.array(values * repeats, dtype=np.float64)
    assert vendi_from_eigenvalues(eigenvalues).hex() == scalar_vendi(eigenvalues).hex()


def test_vendi_from_eigenvalues_of_kernel_rows_matches_the_scalar_loop():
    rng = np.random.default_rng(3)
    vecs = np.abs(rng.normal(size=(30, 8)))
    eigs = np.linalg.eigvalsh(np.clip(vecs @ vecs.T, -1, 1) / 30)
    for row in np.stack([eigs, -eigs, np.round(eigs, 2)]):
        assert vendi_from_eigenvalues(row).hex() == scalar_vendi(row).hex()


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 9999), n=st.integers(1, 9), m=st.integers(1, 9),
       d=st.integers(1, 12))
def test_cosine_matrix_matches_scalar_formula(seed, n, m, d):
    rng = np.random.default_rng(seed)
    a, b = rng.normal(size=(n, d)), rng.normal(size=(m, d))
    want = [[float(x @ y) / (np.linalg.norm(x) * np.linalg.norm(y)) for y in b] for x in a]
    assert np.allclose(cosine_matrix(a, b), want, rtol=0.0, atol=1e-12)
    assert np.allclose(cosine_matrix(a), cosine_matrix(a, a), rtol=0.0, atol=1e-12)


def test_cosine_matrix_zero_row_policy():
    a = np.array([[3.0, 4.0], [0.0, 0.0]])
    b = np.array([[1.0, 0.0], [0.0, 2.0]])
    assert cosine_matrix(a, b, allow_zero=True).tolist() == [[0.6, 0.8], [0.0, 0.0]]
    assert cosine_matrix(b, a, allow_zero=True)[:, 1].tolist() == [0.0, 0.0]
    with pytest.raises(ValueError, match=r"zero-norm row\(s\) \[1\]"):
        cosine_matrix(a, b)
    with pytest.raises(ValueError, match="zero-norm"):
        cosine_matrix(b, a)


def test_unit_rows_gathers_raw_rows_and_their_unit_form():
    raw = np.random.default_rng(4).normal(size=(5, 3))
    rows = UnitRows(raw)
    # a gather with a repeated row, and a gather of that gather
    for gathered, want in ((rows[[2, 0, 2]], [2, 0, 2]), (rows[[2, 0, 2]][[1, 2]], [0, 2])):
        assert len(gathered) == len(want)
        assert np.array_equal(np.asarray(gathered), raw[want])
        assert np.array_equal(unit_rows(gathered), unit_rows(raw[want]))
        assert np.array_equal(cosine_matrix(gathered), cosine_matrix(raw[want]))
    with pytest.raises(ValueError, match=r"zero-norm row\(s\) \[1\]"):
        UnitRows([[1.0, 0.0], [0.0, 0.0]])


def bits(x):
    return struct.pack("<d", x)


def assert_rounds_as_python(values):
    got = round12(values).tolist()
    assert [bits(g) for g in got] == [bits(round(v, 12)) for v in values], values


def near_halves(k):
    """Values within one ulp of the half between k and k + 1 at the 12th decimal."""
    half = (k + 0.5) / 1e12
    return [half, math.nextafter(half, math.inf), math.nextafter(half, -math.inf)]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(allow_nan=True, allow_infinity=True), max_size=40))
def test_round12_is_python_round_on_any_float(values):
    assert_rounds_as_python(values)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(-4 * 10 ** 15, 4 * 10 ** 15), min_size=1, max_size=20))
def test_round12_is_python_round_next_to_a_half(ks):
    assert_rounds_as_python([v for k in ks for v in near_halves(k)])


def test_round12_edge_values():
    huge = 2.0 ** 52 / 1e12
    assert_rounds_as_python([
        0.0, -0.0, 1e-13, -1e-13, -4e-13, 5e-324, -5e-324,  # zeros keep their sign
        *near_halves(0), *near_halves(-1), *near_halves(7), *near_halves(-8),
        huge, -huge, math.nextafter(huge, 0.0), 4503.599627370497, 1e300, -1e300,
        math.inf, -math.inf, math.nan, 0.819028359348, -0.95652173913])
    assert round12([]).shape == (0,)
    assert round12([[0.1234567890125, -0.5e-12]]).tolist() == [[0.123456789012, -0.0]]
