import math
import random
import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import index_sets
import divgen.metrics.cluster_entropy as cluster_entropy
import divgen.metrics.semantic as semantic
from divgen.metrics.cluster_entropy import (
    NUMERIC_EPS,
    STRING_EPS,
    UnusableValue,
    ValueIndex,
    entropy_of_sizes,
    numeric_value,
    query_cluster_entropy,
    text_value,
    value_cluster_entropy,
    value_entropy_over_indices,
)
from divgen.metrics.dbscan import components, dbscan, pairwise_distances, within_eps
from divgen.providers.hash_embed import HashEmbedder


def test_twenty_distant_numeric_values_reach_log2_20():
    values = [i * 100.0 for i in range(20)]
    assert value_cluster_entropy(values, "NUMERICAL") == pytest.approx(
        math.log2(20), abs=1e-12)


def test_twenty_identical_values_give_zero():
    assert value_cluster_entropy([7.0] * 20, "NUMERICAL") == 0.0


def test_mixed_sizes_hand_computed():
    # one 10-value cluster plus 10 singletons over 20 points:
    # H = -(0.5 log2 0.5 + 10 * 0.05 log2 0.05) = 2.6610 bits
    values = [0.0] * 10 + [1000.0 + i * 100.0 for i in range(10)]
    expected = -(0.5 * math.log2(0.5) + 10 * 0.05 * math.log2(0.05))
    assert expected == pytest.approx(2.6610, abs=5e-4)
    assert value_cluster_entropy(values, "NUMERICAL") == pytest.approx(expected, abs=1e-12)


def test_string_values_cluster_via_embeddings(embedder):
    shared = "pick regional office branch site near downtown river plaza entrance wing"
    near = [f"{shared} alpha", f"{shared} beta", f"{shared} gamma"]
    far = ["unrelated quantum marmalade", "sleepy volcano ledger"]
    bits = value_cluster_entropy(near + far, "STRING", embedder)
    # one 3-cluster + 2 singletons over 5 points
    expected = -(0.6 * math.log2(0.6) + 2 * 0.2 * math.log2(0.2))
    assert bits == pytest.approx(expected, abs=1e-9)


def test_numeric_parse_error_lists_value():
    with pytest.raises(ValueError, match="'not-a-number'"):
        value_cluster_entropy(["3.5", "not-a-number"], "NUMERICAL")


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan, "1e400", "-inf", "nan",
                                 True, False])
def test_numerical_entropy_refuses_a_non_finite_value(bad):
    # |inf - inf| is NaN, so two equal infinities would never be neighbours
    message = f"non-finite value\\(s\\) for NUMERICAL entropy: {re.escape(repr(bad))}"
    with pytest.raises(ValueError, match=message):
        value_cluster_entropy([1, 2, bad, bad], "NUMERICAL")
    with pytest.raises(ValueError, match=message):
        value_entropy_over_indices([1, bad], "NUMERICAL")
    with pytest.raises(ValueError, match=message):
        ValueIndex("NUMERICAL").extend([1, bad])


def test_empty_values_error():
    with pytest.raises(ValueError):
        value_cluster_entropy([], "NUMERICAL")


def test_query_entropy_identical_is_zero(embedder):
    vecs = embedder.embed(["same text"] * 6)
    assert query_cluster_entropy(vecs) == 0.0


def test_query_entropy_orthogonal_is_log2_n():
    n = 8
    vecs = [[0.0] * n for _ in range(n)]
    for i in range(n):
        vecs[i][i] = 1.0
    assert query_cluster_entropy(vecs) == pytest.approx(math.log2(n), abs=1e-12)


def test_query_entropy_two_tight_groups_is_one_bit(embedder):
    a = ["ship the parcel to the northern depot today x" + str(i) for i in range(4)]
    b = ["quiet jazz evenings deserve velvet trumpet solos y" + str(i) for i in range(4)]
    vecs = embedder.embed(a + b)
    assert query_cluster_entropy(vecs) == pytest.approx(1.0, abs=1e-9)


@settings(max_examples=40, deadline=None)
@given(values=st.lists(st.integers(0, 40), min_size=1, max_size=30))
def test_entropy_bounds_property(values):
    floats = [float(v) * 10.0 for v in values]
    bits = value_cluster_entropy(floats, "NUMERICAL")
    n = len(floats)
    assert -1e-9 <= bits <= math.log2(n) + 1e-9
    if len(set(floats)) == 1:
        assert bits == 0.0
    if len(set(floats)) == n and n > 1:
        # spacing 10 with eps 0.5 keeps every point a singleton
        assert bits == pytest.approx(math.log2(n), abs=1e-9)


def sorted_entropy_of_sizes(sizes):
    """The sort-and-sum form that ``entropy_of_sizes`` replaced."""
    sizes = sorted(sizes)
    total = sum(sizes)
    if total == 0:
        raise ValueError("entropy of an empty partition is undefined")
    return -math.fsum((s / total) * math.log2(s / total) for s in sizes) + 0.0


_size = st.one_of(st.integers(1, 6), st.integers(1, 1000))


@settings(max_examples=200, deadline=None)
@given(sizes=st.lists(_size, min_size=1, max_size=80),
       emptied=st.lists(st.tuples(_size, st.integers(-2, 0)), max_size=4))
def test_entropy_of_sizes_matches_the_sort_and_sum_oracle(sizes, emptied):
    want = sorted_entropy_of_sizes(sizes).hex()
    assert entropy_of_sizes(sizes).hex() == want
    assert entropy_of_sizes(iter(sizes)).hex() == want
    counts = Counter(sizes)
    for size, count in emptied:  # what ``subtract`` leaves behind
        counts[size + 1000] = count
    assert entropy_of_sizes(counts).hex() == want


@pytest.mark.parametrize("sizes", [
    [1] * 1000,
    [7] * 13,
    [5],
    [1] * 500 + [2] * 250 + [3, 3, 3, 997],
    [2, 3] * 40 + [1] * 7,
])
def test_entropy_of_sizes_matches_the_oracle_on_fixed_multisets(sizes):
    want = sorted_entropy_of_sizes(sizes).hex()
    assert entropy_of_sizes(sizes).hex() == want
    counts = Counter(sizes)
    counts.subtract([sizes[0]])
    counts[sizes[0]] += 1
    counts[12345] = 0
    assert entropy_of_sizes(counts).hex() == want


@pytest.mark.parametrize("sizes", [[], (), Counter(), Counter({3: 0, 4: -1})])
def test_entropy_of_sizes_refuses_an_empty_multiset(sizes):
    with pytest.raises(ValueError, match="empty partition"):
        entropy_of_sizes(sizes)


# --- the value index ------------------------------------------------------------

# Ten of these twelve words per value: two values that share nine sit at cosine
# distance 0.1 = STRING_EPS, up to rounding.
TIE_WORDS = ("amber", "birch", "cedar", "delta", "ember", "fjord",
             "grove", "heron", "inlet", "juniper", "kestrel", "larch")
FREE_WORDS = tuple(f"{w}{i}" for w in ("port", "mesa", "reef", "dune") for i in range(10))


def numeric_values(rng, count):
    # a 0.5 grid puts pairs exactly at NUMERIC_EPS, a 0.1 grid puts them there
    # up to rounding, and the small ranges repeat values
    draws = (lambda: rng.randrange(80) * 0.5, lambda: rng.randrange(300) * 0.1,
             lambda: rng.randrange(40), lambda: rng.uniform(0.0, 60.0))
    return [rng.choice(draws)() for _ in range(count)]


def string_values(rng, count):
    out = []
    for _ in range(count):
        kind = rng.randrange(3)
        if kind == 0 or not out:
            out.append(" ".join(rng.sample(TIE_WORDS, 10)))
        elif kind == 1:
            out.append(" ".join(rng.sample(FREE_WORDS, rng.randrange(2, 6))))
        else:
            out.append(rng.choice(out))
    return out


def points_of(values, category, embedder):
    if category == "NUMERICAL":
        return [float(v) for v in values]
    return embedder.embed(values)


@pytest.mark.parametrize("category", ["NUMERICAL", "STRING"])
def test_value_index_matches_the_dbscan_oracle(category):
    embedder = HashEmbedder()
    make = numeric_values if category == "NUMERICAL" else string_values
    metric, eps = (("euclidean", NUMERIC_EPS) if category == "NUMERICAL"
                   else ("cosine", STRING_EPS))
    ties = 0
    for trial, n in enumerate((0, 1, 2, 9, 60, 250, 1000)):
        rng = random.Random(1000 * trial + len(category))
        values = make(rng, n)
        extra = make(rng, rng.randrange(0, 25))
        candidates = make(rng, 5)
        index = ValueIndex(category, embedder)
        cut = rng.randrange(0, n + 1)
        index.extend(values[:cut])
        index.sync(values)
        assert index.values == values
        got = index.entropies(extra, candidates)
        want = [value_cluster_entropy(values + extra + [c], category, embedder)
                for c in candidates]
        assert got == want, (trial, n)
        if n:
            points = points_of(values, category, embedder)
            assert index_sets(index) == dbscan(points, eps, 2, metric).as_sets(), (trial, n)
            dist = pairwise_distances(points, metric)
            ties += int(np.sum(np.abs(dist - eps) < 1e-12))
    assert ties > 0  # the data holds pairs at eps


# values with repeats and pairs at eps, for hypothesis to draw from
_POOLS = {"NUMERICAL": numeric_values(random.Random(41), 200),
          "STRING": string_values(random.Random(43), 200)}


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(sorted(_POOLS)),
       st.lists(st.integers(0, 199), min_size=cluster_entropy._BLOCK + 1,
                max_size=2 * cluster_entropy._BLOCK + 20),
       st.data())
def test_value_index_labels_each_value_by_its_components_smallest_index(category, picks,
                                                                          data):
    # as dbscan.components labels the full table, however the values were
    # indexed: all at once, one at a time, or restored from a prefix's record
    # and extended; so the records are equal too
    embedder = HashEmbedder()
    values = [_POOLS[category][i] for i in picks]
    metric, eps = (("euclidean", NUMERIC_EPS) if category == "NUMERICAL"
                   else ("cosine", STRING_EPS))
    want = components(within_eps(pairwise_distances(
        points_of(values, category, embedder), metric), eps)).tolist()
    bulk = ValueIndex(category, embedder)
    bulk.extend(values)
    single = ValueIndex(category, embedder)
    for value in values:
        single.extend([value])
    prefix = ValueIndex(category, embedder)
    prefix.extend(values[:data.draw(st.integers(0, len(values)), label="cut")])
    restored = ValueIndex(category, embedder)
    assert restored.restore(values, prefix.record())
    assert restored.values == prefix.values
    restored.sync(values)
    for index in (bulk, single, restored):
        assert index._labels.tolist() == want
        assert (index._sizes, index._size_counts) == (bulk._sizes, bulk._size_counts)
        assert index.record() == bulk.record()
    whole = ValueIndex(category, embedder)
    assert whole.restore(values, bulk.record()) and whole._labels.tolist() == want
    extra, candidates = values[:3], [_POOLS[category][i] for i in picks[-5:]]
    assert whole.entropies(extra, candidates) == bulk.entropies(extra, candidates)


def test_value_index_resyncs_when_the_tracker_is_not_extended():
    embedder = HashEmbedder()
    rng = random.Random(3)
    values = string_values(rng, 80)
    index = ValueIndex("STRING", embedder)
    index.sync(values)
    for tracker in (values[:50], values[:30] + values[31:], string_values(rng, 40), []):
        index.sync(tracker)
        assert index.values == tracker
        fresh = ValueIndex("STRING", embedder)
        fresh.extend(tracker)
        assert index_sets(index) == index_sets(fresh)
        assert index.entropies(values[:3], ["amber birch"]) == \
            fresh.entropies(values[:3], ["amber birch"])


def test_string_index_normalises_only_its_new_rows(monkeypatch):
    embedder = HashEmbedder()
    rng = random.Random(11)
    values = string_values(rng, 1000)
    index = ValueIndex("STRING", embedder)
    index.extend(values)
    extra, candidates = string_values(rng, 3), string_values(rng, 5)
    want = index.entropies(extra, candidates)
    normalised = []
    unit_rows = semantic.unit_rows

    def counting(rows, *args, **kwargs):
        out = unit_rows(rows, *args, **kwargs)
        normalised.append(len(out))
        return out

    monkeypatch.setattr(semantic, "unit_rows", counting)
    monkeypatch.setattr(cluster_entropy, "unit_rows", counting)
    assert index.entropies(extra, candidates) == want
    assert sum(normalised) == len(extra) + len(candidates)


def test_string_index_refuses_a_zero_norm_value():
    index = ValueIndex("STRING", HashEmbedder())  # no word token embeds to zero
    with pytest.raises(ValueError, match="zero-norm"):
        index.extend(["amber birch", "!!!"])
    index.extend(["amber birch"])
    with pytest.raises(ValueError, match="zero-norm"):
        index.entropies([], ["???"])


def test_large_numeric_values_keep_their_distances():
    # Unix-timestamp-sized values: the expanded form sqrt(a^2 + b^2 - 2ab)
    # cancels there and puts all three in one cluster
    values = [1.7e9, 1.7e9 + 0.4, 1.7e9 + 3.0]
    assert pairwise_distances(values, "euclidean")[0].tolist() == [0.0, values[1] - values[0], 3.0]
    expected = -(2 / 3 * math.log2(2 / 3) + 1 / 3 * math.log2(1 / 3))
    assert value_cluster_entropy(values, "NUMERICAL") == pytest.approx(expected, abs=1e-12)


def test_value_index_matches_the_dbscan_oracle_near_1e9():
    rng = random.Random(17)
    for n in (2, 60, 250):
        # the 0.5 grid is exact at this offset, so it must partition as unshifted
        grid = [rng.randrange(80) * 0.5 for _ in range(n)]
        shifted = [1e9 + v for v in grid]
        assert dbscan(shifted, NUMERIC_EPS, 2).as_sets() == dbscan(grid, NUMERIC_EPS, 2).as_sets()
        values = shifted + [1e9 + v for v in numeric_values(rng, n)]
        index = ValueIndex("NUMERICAL", None)
        index.extend(values)
        assert index_sets(index) == dbscan(values, NUMERIC_EPS, 2).as_sets()
        candidates = [1e9 + v for v in numeric_values(rng, 5)]
        assert index.entropies([], candidates) == [
            value_cluster_entropy(values + [c], "NUMERICAL") for c in candidates]


def test_value_index_refuses_other_categories_and_missing_embedder():
    with pytest.raises(ValueError, match="requires an embedder"):
        ValueIndex("STRING")
    with pytest.raises(ValueError, match="NUMERICAL/STRING"):
        ValueIndex("ENUM")
    with pytest.raises(ValueError, match="non-numeric"):
        ValueIndex("NUMERICAL").extend(["3.5", "not-a-number"])


# JSON-like values a model reply or a file could hold, the odd ones included
_odd_values = st.one_of(
    st.integers(-10 ** 400, 10 ** 400),
    st.integers(-10 ** 6, 10 ** 6),
    st.text("0123456789", min_size=1, max_size=400),
    st.floats(),
    st.sampled_from(["1e400", "nan", " 12 ", "+5", "", "?!", None, True, False]),
    st.text(max_size=8),
    st.lists(st.integers(), max_size=2),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
)


def _returns(call, *args, refusal=ValueError):
    try:
        call(*args)
    except refusal:
        return False
    return True


@settings(max_examples=150, deadline=None)
@given(_odd_values)
def test_a_value_is_admitted_exactly_when_its_index_can_place_it(value):
    assert _returns(numeric_value, value, refusal=UnusableValue) == _returns(
        ValueIndex("NUMERICAL").entropies, [], [value])
    assert _returns(text_value, value, refusal=UnusableValue) == _returns(
        ValueIndex("STRING", HashEmbedder()).entropies, [], [value])


def test_string_index_grows_its_rows_in_place():
    embedder = HashEmbedder()
    values = string_values(random.Random(5), 1000)
    index = ValueIndex("STRING", embedder)
    moves, data, capacity = 0, None, None
    for value in values:
        index.extend([value])
        rows = index._rows
        if rows.ctypes.data != data:
            moves += 1
            # a row buffer moves only when it is full
            assert capacity is None or len(index._row_buf) > capacity
        data, capacity = rows.ctypes.data, len(index._row_buf)
    assert moves <= math.ceil(math.log2(1000)) + 1
    assert index._rows.shape == (1000, len(embedder.embed(["x"])[0]))
    assert np.array_equal(index._rows, semantic.unit_rows(embedder.embed(values)))
    fresh = ValueIndex("STRING", embedder)
    fresh.extend(values)
    assert index_sets(index) == index_sets(fresh)
    extra, candidates = values[:4], string_values(random.Random(6), 5)
    assert index.entropies(extra, candidates) == fresh.entropies(extra, candidates)


def test_value_index_joins_the_extras_before_scoring():
    # 0.5 bridges the indexed 0.0 and 1.0, 5.4 joins the indexed 5.0, and each
    # candidate reaches a different mix of those joined components
    values, extra, candidates = [0.0, 1.0, 5.0], [0.5, 5.4], [1.4, 9.0, 0.25]
    index = ValueIndex("NUMERICAL")
    index.extend(values)
    want = [value_cluster_entropy(values + extra + [c], "NUMERICAL") for c in candidates]
    assert [s.hex() for s in want] == [
        "0x1.d62adf1ea257cp-1", "0x1.758ab7c7a895fp+0", "0x1.d62adf1ea257cp-1"]
    assert index.entropies(extra, candidates) == want


@pytest.mark.parametrize("category", ["NUMERICAL", "STRING"])
def test_value_index_never_tests_an_n_by_n_table(monkeypatch, category):
    embedder = HashEmbedder()
    make = numeric_values if category == "NUMERICAL" else string_values
    rng = random.Random(23)
    values, more = make(rng, 1000), make(rng, 3)
    extra, candidates = make(rng, 22), make(rng, 5)
    shapes = []
    within_eps = cluster_entropy.within_eps

    def recording(dist, eps):
        shapes.append(dist.shape)
        return within_eps(dist, eps)

    monkeypatch.setattr(cluster_entropy, "within_eps", recording)
    index = ValueIndex(category, embedder)
    index.extend(values)
    assert shapes and max(cols for _, cols in shapes) <= 128
    shapes.clear()
    index.extend(more)
    assert sorted(shapes) == [(3, 3), (1000, 3)]
    shapes.clear()
    index.entropies(extra, candidates)
    assert sorted(shapes) == [(27, 27), (1003, 27)]
