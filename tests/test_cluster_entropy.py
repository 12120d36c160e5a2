import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from divgen.metrics.cluster_entropy import (
    NUMERIC_EPS,
    STRING_EPS,
    ValueIndex,
    query_cluster_entropy,
    value_cluster_entropy,
)
from divgen.metrics.dbscan import dbscan, pairwise_distances
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
            assert index.as_sets() == dbscan(points, eps, 2, metric).as_sets(), (trial, n)
            dist = pairwise_distances(points, metric)
            ties += int(np.sum(np.abs(dist - eps) < 1e-12))
    assert ties > 0  # the data holds pairs at eps


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
        assert index.as_sets() == fresh.as_sets()
        assert index.entropies(values[:3], ["amber birch"]) == \
            fresh.entropies(values[:3], ["amber birch"])


def test_value_index_refuses_other_categories_and_missing_embedder():
    with pytest.raises(ValueError, match="requires an embedder"):
        ValueIndex("STRING")
    with pytest.raises(ValueError, match="NUMERICAL/STRING"):
        ValueIndex("ENUM")
    with pytest.raises(ValueError, match="non-numeric"):
        ValueIndex("NUMERICAL").extend(["3.5", "not-a-number"])
