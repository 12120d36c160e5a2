import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import alarm
from divgen.metrics.dbscan import (
    NOISE,
    ClusterPartition,
    dbscan,
    pairwise_distances,
    partition,
    within_eps,
)


def reference_dbscan(points, eps, min_samples, metric="euclidean"):
    """The flood fill ``dbscan`` ran before it took components in numpy: seeds
    in input order, each unlabelled core flooding its density-connected
    cores, then each border point joining its first core neighbor."""
    n = len(points)
    near = within_eps(pairwise_distances(points, metric), eps)
    neighbors = [np.nonzero(near[i])[0] for i in range(n)]
    core = np.array([len(nb) >= min_samples for nb in neighbors])

    labels = [NOISE] * n
    cluster = 0
    for seed in range(n):
        if not core[seed] or labels[seed] != NOISE:
            continue
        stack = [seed]
        labels[seed] = cluster
        while stack:
            i = stack.pop()
            for j in neighbors[i]:
                j = int(j)
                if core[j] and labels[j] == NOISE:
                    labels[j] = cluster
                    stack.append(j)
        cluster += 1

    for i in range(n):
        if labels[i] != NOISE or core[i]:
            continue
        for j in neighbors[i]:
            j = int(j)
            if core[j]:
                labels[i] = labels[j]
                break

    sizes: dict[int, int] = {}
    for lab in labels:
        if lab != NOISE:
            sizes[lab] = sizes.get(lab, 0) + 1
    return ClusterPartition(tuple(labels), tuple(sizes[k] for k in sorted(sizes)))


def assert_same_partition(points, eps, min_samples, metric="euclidean"):
    """``dbscan`` equals the flood fill label for label, not only as sets."""
    got = dbscan(points, eps, min_samples, metric)
    want = reference_dbscan(points, eps, min_samples, metric)
    assert got.assignments == want.assignments
    assert got.cluster_sizes == want.cluster_sizes
    assert all(type(label) is int for label in got.assignments + got.cluster_sizes)
    return got


def brute_force_partition(points, eps, min_samples, metric):
    """Independent oracle: explicit density-reachability closure.

    Core points have >= min_samples neighbors within eps (self included);
    clusters are connected components of cores under the eps relation; a
    non-core point attaches to the cluster of its first core neighbor in
    input order; the rest is noise. Returned as (set of clusters, noise set).
    """
    n = len(points)
    dist = pairwise_distances(points, metric)
    neighbor_sets = [set(np.nonzero(dist[i] <= eps)[0].tolist()) for i in range(n)]
    cores = [i for i in range(n) if len(neighbor_sets[i]) >= min_samples]
    core_set = set(cores)
    # closure over cores
    labels = {}
    for seed in cores:
        if seed in labels:
            continue
        component = {seed}
        frontier = [seed]
        while frontier:
            i = frontier.pop()
            for j in neighbor_sets[i]:
                if j in core_set and j not in component:
                    component.add(j)
                    frontier.append(j)
        for i in component:
            labels[i] = seed
    clusters: dict[int, set[int]] = {}
    for i, lab in labels.items():
        clusters.setdefault(lab, set()).add(i)
    noise = set()
    for i in range(n):
        if i in labels:
            continue
        attached = False
        for j in sorted(neighbor_sets[i]):
            if j in core_set:
                clusters[labels[j]].add(i)
                attached = True
                break
        if not attached:
            noise.add(i)
    return frozenset(frozenset(c) for c in clusters.values()), frozenset(noise)


def test_one_dense_pair_one_outlier():
    part = dbscan([0.0, 0.1, 10.0], eps=0.5, min_samples=2)
    assert part.assignments[0] == part.assignments[1] != NOISE
    assert part.assignments[2] == NOISE
    assert part.cluster_sizes == (2,)


def test_all_identical_points_form_one_cluster():
    part = dbscan([3.3] * 7, eps=0.5, min_samples=2)
    assert part.cluster_sizes == (7,)
    assert part.noise_count == 0


def test_min_samples_one_makes_every_point_core():
    part = dbscan([0.0, 100.0], eps=0.5, min_samples=1)
    assert part.noise_count == 0
    assert sorted(part.cluster_sizes) == [1, 1]


def test_cosine_zero_norm_errors():
    with pytest.raises(ValueError, match="zero-norm"):
        dbscan([[1.0, 0.0], [0.0, 0.0]], eps=0.1, min_samples=2, metric="cosine")


def test_input_validation():
    with pytest.raises(ValueError):
        dbscan([], eps=0.5, min_samples=2)
    with pytest.raises(ValueError):
        dbscan([1.0], eps=0.0, min_samples=2)
    with pytest.raises(ValueError):
        dbscan([1.0], eps=0.5, min_samples=0)


def test_partition_accounting():
    part = dbscan([0.0, 0.1, 10.0, 10.05, 50.0], eps=0.5, min_samples=2)
    assert sum(part.cluster_sizes) + part.noise_count == 5


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n=st.integers(1, 50),
    metric=st.sampled_from(["euclidean", "cosine"]),
)
def test_matches_brute_force_oracle(seed, n, metric):
    rng = np.random.default_rng(seed)
    points = rng.normal(size=(n, 2))
    if metric == "cosine":
        points = points + np.sign(points) * 0.1  # keep away from the origin
    eps = 0.4 if metric == "euclidean" else 0.2
    part = dbscan(points, eps=eps, min_samples=3, metric=metric)
    got_clusters, got_noise = part.as_sets()
    want_clusters, want_noise = brute_force_partition(points, eps, 3, metric)
    assert got_clusters == want_clusters
    assert got_noise == want_noise


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n=st.integers(1, 60),
    metric=st.sampled_from(["euclidean", "cosine"]),
    min_samples=st.integers(1, 4),
)
def test_matches_the_flood_fill(seed, n, metric, min_samples):
    rng = np.random.default_rng(seed)
    points = rng.normal(size=(n, 2))
    if metric == "cosine":
        points = points + np.sign(points) * 0.1  # keep away from the origin
    eps = 0.4 if metric == "euclidean" else 0.2
    assert_same_partition(points, eps, min_samples, metric)


def test_border_points_join_their_first_core_neighbor():
    # cores 1.2-1.5 (listed first) and 0.0-0.3; 0.75 is a border point within
    # eps of a core of each, 1.2 listed before 0.3; 1.95 borders 1.5 only
    points = [1.5, 0.0, 0.75, 1.2, 0.1, 1.3, 0.3, 1.4, 0.2, 1.95, 5.0]
    part = assert_same_partition(points, 0.45, 4)
    assert part.assignments == (0, 1, 0, 0, 1, 0, 1, 0, 1, 0, NOISE)
    assert part.cluster_sizes == (6, 4)


@pytest.mark.parametrize("metric", ["euclidean", "cosine"])
def test_matches_the_flood_fill_on_duplicates(metric):
    rng = np.random.default_rng(5)
    base = rng.normal(size=(6, 3)) + 0.5
    points = base[rng.integers(0, 6, size=30)]
    for min_samples in (1, 2, 3, 4):
        assert_same_partition(points, 0.05, min_samples, metric)


def test_matches_the_flood_fill_on_one_point_and_on_all_noise():
    assert assert_same_partition([3.0], 0.5, 2).assignments == (NOISE,)
    assert assert_same_partition([3.0], 0.5, 1).cluster_sizes == (1,)
    spaced = [float(10 * i) for i in range(12)]
    part = assert_same_partition(spaced, 0.5, 2)
    assert part.cluster_sizes == () and part.noise_count == 12


def test_matches_the_flood_fill_on_large_numerical_values():
    # NUMERICAL values such as timestamps: eps=0.5 on values near 1.7e9
    rng = np.random.default_rng(11)
    values = (1.7e9 + rng.integers(0, 40, size=50) * 0.25).tolist()
    for min_samples in (1, 2, 3, 4):
        assert_same_partition(values, 0.5, min_samples)


def test_a_long_chain_is_one_cluster_in_bounded_time():
    # a 300-point chain has diameter 299: propagating labels one hop per round
    # would take 299 rounds; pointer jumping takes O(log n)
    chain = [0.4 * i for i in range(300)]
    order = np.random.default_rng(3).permutation(300)
    with alarm(20):
        assert assert_same_partition(chain, 0.5, 2).cluster_sizes == (300,)
        shuffled = [chain[i] for i in order]
        assert assert_same_partition(shuffled, 0.5, 2).cluster_sizes == (300,)
        # the two ends are border points of the 298 cores between them
        assert assert_same_partition(shuffled, 0.5, 3).cluster_sizes == (300,)


def test_the_module_path_gives_the_module():
    import divgen.metrics
    import divgen.metrics.dbscan as module
    assert module.__name__ == "divgen.metrics.dbscan"
    assert divgen.metrics.dbscan is module
    assert (module.dbscan, module.partition, module.within_eps) == (dbscan, partition, within_eps)

