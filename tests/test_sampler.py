import math
import random
from collections import Counter

import pytest

from conftest import graph_of, templated_library
from divgen.model import ExecutionType, FunctionLibrary, ModelError, RunConfig
from divgen.preprocess import ApiGraph, ApiPools, GraphEdge, build_similarity_graph
from divgen.providers import catalog
from divgen.providers.base import SignatureClient
from divgen.providers.mock import ScriptedChat
from divgen.sampler import (
    SamplingFailure,
    check_pairwise_similarity,
    poisson_draw,
    sample_execution_type,
    sample_single_api,
    sample_walk,
    validate_sequential_schema_compatibility,
)


def test_all_weight_on_single():
    config = RunConfig(type_weights={"SINGLE": 1.0, "PARALLEL": 0, "SEQUENTIAL": 0,
                                     "MISSING_PARAMS": 0, "NONE": 0})
    rng = random.Random(0)
    assert all(sample_execution_type(config, rng) is ExecutionType.SINGLE
               for _ in range(50))


def test_equal_weights_frequency():
    config = RunConfig()
    rng = random.Random(1)
    counts = Counter(sample_execution_type(config, rng) for _ in range(1000))
    for etype in ExecutionType:
        assert abs(counts[etype] - 200) <= 50  # within ±5% of the total (1000)


def test_zero_weights_rejected():
    with pytest.raises(ModelError):
        RunConfig(type_weights={t.value: 0.0 for t in ExecutionType})


def test_single_api_uniform_over_general(library):
    pools = ApiPools(general=tuple(f.name for f in library), focused=(), other=())
    rng = random.Random(2)
    seen = {sample_single_api(pools, FunctionLibrary(library).by_name, rng).name for _ in range(399)}
    assert seen == {f.name for f in library}


def test_single_api_deterministic(library):
    pools = ApiPools(general=tuple(f.name for f in library),
                     focused=(library[0].name,), other=())
    a = sample_single_api(pools, FunctionLibrary(library).by_name, random.Random(5)).name
    b = sample_single_api(pools, FunctionLibrary(library).by_name, random.Random(5)).name
    assert a == b


def test_single_api_all_pools_empty(library):
    with pytest.raises(SamplingFailure):
        sample_single_api(ApiPools((), (), ()), FunctionLibrary(library).by_name,
                          random.Random(0))


def test_poisson_length_distribution():
    rng = random.Random(11)
    draws = [poisson_draw(0.75, rng) + 2 for _ in range(20000)]
    frac2 = sum(1 for d in draws if d == 2) / len(draws)
    assert abs(frac2 - math.exp(-0.75)) < 0.02


def _graph_single_pr():
    return graph_of(("u", "v"), (GraphEdge("u", "v", "P-R", 0.9),))


def test_walk_forced_path_on_single_pr_edge():
    graph = _graph_single_pr()
    successes = 0
    for seed in range(200):
        rng = random.Random(seed)
        try:
            walk = sample_walk(graph, ExecutionType.SEQUENTIAL, rng)
        except SamplingFailure:
            continue  # length drawn > 2 cannot be satisfied on one edge
        assert walk == ["u", "v"]
        successes += 1
    assert successes > 50


def test_walk_parallel_triangle_reproducible():
    graph = graph_of(
        ("a", "b", "c"),
        (GraphEdge("a", "b", "P-P", 0.8), GraphEdge("b", "c", "P-P", 0.8),
         GraphEdge("a", "c", "P-P", 0.8)))
    w1 = sample_walk(graph, ExecutionType.PARALLEL, random.Random(4))
    w2 = sample_walk(graph, ExecutionType.PARALLEL, random.Random(4))
    assert w1 == w2
    assert len(w1) in (2, 3)
    assert len(set(w1)) == len(w1)  # simple walk


def test_sequential_walk_contains_a_forward_pr_edge():
    graph = graph_of(
        ("a", "b", "c"), (GraphEdge("a", "b", "P-P", 0.8), GraphEdge("b", "c", "P-R", 0.9)))
    for seed in range(100):
        try:
            walk = sample_walk(graph, ExecutionType.SEQUENTIAL, random.Random(seed))
        except SamplingFailure:
            continue
        traversed = list(zip(walk, walk[1:]))
        assert ("b", "c") in traversed  # the only P-R edge, in direction


def test_walk_rejects_wrong_type():
    with pytest.raises(ValueError):
        sample_walk(_graph_single_pr(), ExecutionType.SINGLE, random.Random(0))


def test_pairwise_similarity(library, embedder):
    weather = next(f for f in library if f.name == "weather_forecast")
    hotel = next(f for f in library if f.name == "hotel_search")
    tags = next(f for f in library if f.name == "tag_collect")
    assert check_pairwise_similarity([weather, weather], embedder, 1.0)
    assert check_pairwise_similarity([weather, hotel], embedder, 0.3)
    assert not check_pairwise_similarity([weather, tags], embedder, 0.3)
    assert check_pairwise_similarity([weather], embedder, 0.99)  # vacuous


def test_schema_compatibility_verdicts(library):
    schemas = library[:2]
    chat = ScriptedChat().script_output(
        "ValidateSequentialSchemaCompatibility",
        {"reasoning": "outputs feed inputs", "is_compatible": "YES"})
    ok, reason = validate_sequential_schema_compatibility(
        schemas, SignatureClient(chat, 3, {}))
    assert ok and reason == "outputs feed inputs"

    chat = ScriptedChat().script_output(
        "ValidateSequentialSchemaCompatibility",
        {"reasoning": "first returns captions; second needs an id the captions"
                      " never carry", "is_compatible": "NO"})
    ok, _ = validate_sequential_schema_compatibility(schemas, SignatureClient(chat, 3, {}))
    assert not ok


def test_schema_compatibility_retry_then_accept(library):
    sig = catalog.get("ValidateSequentialSchemaCompatibility")
    from divgen.providers.signature import format_output
    good = format_output(sig, {"reasoning": "fine", "is_compatible": "YES"})
    chat = ScriptedChat().script(["[[ ## reasoning ## ]]\nhalf reply", good],
                                 signature="ValidateSequentialSchemaCompatibility")
    ok, _ = validate_sequential_schema_compatibility(
        library[:2], SignatureClient(chat, 3, {}))
    assert ok
    assert len(chat.calls) == 2


# ---------------------------------------------------------------------------
# The neighbour lists against an edge scan


class ScanGraph(ApiGraph):
    """The graph as it was before it indexed itself: every neighbour query
    scans every edge record, and the walk's start vertices are recomputed per
    call."""

    def pp_neighbors(self, name):
        out = []
        for e in self.edges:
            if e.kind != "P-P":
                continue
            if e.source == name:
                out.append((e.target, e.weight))
            elif e.target == name:
                out.append((e.source, e.weight))
        return out

    def pr_successors(self, name):
        return [(e.target, e.weight) for e in self.edges
                if e.kind == "P-R" and e.source == name]

    @property
    def starts(self):
        return tuple(v for v in self.vertices if self.pp_neighbors(v) or self.pr_successors(v))


def random_graph(rng, n_vertices, n_edges):
    """Edges of both kinds over the vertices, in any order, with self-loops
    and duplicates."""
    vertices = tuple(f"v{i}" for i in range(n_vertices))
    edges = []
    for _ in range(n_edges):
        if edges and rng.random() < 0.1:
            edges.append(edges[rng.randrange(len(edges))])  # duplicate
            continue
        src = rng.choice(vertices)
        dst = src if rng.random() < 0.1 else rng.choice(vertices)
        edges.append(GraphEdge(src, dst, rng.choice(("P-P", "P-R")), round(rng.random(), 3)))
    return vertices, tuple(edges)


def assert_same_adjacency(vertices, edges):
    graph = graph_of(vertices, edges)
    scan = graph_of(vertices, edges, ScanGraph)
    for name in vertices + ("absent",):
        assert list(graph.pp_neighbors(name)) == scan.pp_neighbors(name), name
        assert list(graph.pr_successors(name)) == scan.pr_successors(name), name
    assert graph.starts == scan.starts


def test_index_matches_edge_scan_on_random_graphs():
    rng = random.Random(0)
    for _ in range(300):
        assert_same_adjacency(*random_graph(rng, rng.randrange(1, 12), rng.randrange(0, 40)))


def test_index_edge_cases():
    assert_same_adjacency(("a", "b"), ())  # no edges
    loop = GraphEdge("a", "a", "P-P", 0.9)
    assert graph_of(("a",), (loop,)).pp_neighbors("a") == (("a", 0.9),)  # once
    assert_same_adjacency(("a", "b"), (loop, GraphEdge("a", "b", "P-P", 0.7), loop,
                                       GraphEdge("a", "a", "P-R", 0.8)))
    # edges given out of owner order keep their edge order in every list
    assert_same_adjacency(("a", "b", "c"), (
        GraphEdge("c", "a", "P-P", 0.1), GraphEdge("a", "b", "P-P", 0.2),
        GraphEdge("b", "a", "P-R", 0.3), GraphEdge("a", "c", "P-P", 0.4),
        GraphEdge("b", "c", "P-R", 0.5), GraphEdge("b", "a", "P-R", 0.6)))
    assert_same_adjacency(("a", "b", "c"), (GraphEdge("c", "b", "P-R", 0.5),))  # a isolated


def test_index_is_immutable_and_built_once():
    graph = graph_of(("a", "b"), (GraphEdge("a", "b", "P-P", 0.8),))
    first = graph.pp_neighbors("a")
    assert isinstance(first, tuple) and graph.pp_neighbors("a") is first
    assert isinstance(graph.starts, tuple)
    assert graph == graph_of(("a", "b"), (GraphEdge("a", "b", "P-P", 0.8),))
    for column in (graph.sources, graph.targets, graph.kinds, graph.weights):
        with pytest.raises(ValueError):
            column[0] = 0


def test_walks_read_the_columns_not_the_edge_records(embedder):
    graph = build_similarity_graph(templated_library(40), embedder, 0.6)
    for etype in (ExecutionType.PARALLEL, ExecutionType.SEQUENTIAL):
        for seed in range(20):
            try:
                sample_walk(graph, etype, random.Random(seed))
            except SamplingFailure:
                pass
    assert "edges" not in vars(graph)  # the per-edge view was never built


def assert_same_walks(graph, seeds):
    scan = graph_of(graph.vertices, graph.edges, ScanGraph)
    for etype in (ExecutionType.PARALLEL, ExecutionType.SEQUENTIAL):
        for seed in seeds:
            results = []
            for g in (graph, scan):
                rng = random.Random(seed)
                try:
                    walk = sample_walk(g, etype, rng)
                except SamplingFailure as exc:
                    walk = str(exc)
                results.append((walk, rng.getstate()))
            assert results[0] == results[1], (etype, seed)


def test_walks_match_edge_scan_on_fixture_graph(library, embedder):
    assert_same_walks(build_similarity_graph(library, embedder, 0.6), range(300))


def test_walks_match_edge_scan_on_templated_library(embedder):
    graph = build_similarity_graph(templated_library(120), embedder, 0.6)
    assert len(graph.edges) > 1000
    assert_same_walks(graph, range(150))


def test_walks_match_edge_scan_on_random_graphs():
    rng = random.Random(1)
    for _ in range(100):
        vertices, edges = random_graph(rng, rng.randrange(2, 10), rng.randrange(1, 30))
        assert_same_walks(graph_of(vertices, edges), range(5))
