import json
import math
import random

import numpy as np
import pytest

from conftest import PresetEmbedder, graph_of, packed_column, templated_library, traced_peak
from divgen.fixtures import fixture_library
from divgen.metrics.semantic import cosine_matrix
from divgen.model import (
    FunctionSchema,
    ParamCategory,
    ParameterSpec,
    ReturnField,
    classify_parameter_type,
)
from divgen.preprocess import (
    EDGE_KINDS,
    GRAPH_BLOCK,
    ApiGraph,
    GraphEdge,
    build_api_pools,
    build_similarity_graph,
    describe_parameter,
    describe_return_field,
    group_parameters,
    read_artifact,
    write_artifact,
)


def param(name, description, declared="string", enum=(), required=True):
    return ParameterSpec(
        name=name, description=description, declared_type=declared,
        category=classify_parameter_type(declared, enum),
        enum_values=tuple(enum), required=required)


def fn(name, *params, description="", returns=()):
    return FunctionSchema(name=name, description=description,
                          parameters=tuple(params), return_fields=tuple(returns))


def test_describe_parameter_template():
    spec = param("city", "names the target city")
    assert describe_parameter(spec) == (
        "The city parameter is a string that names the target city")


def test_describe_parameter_enum_suffix():
    spec = param("mode", "speed choice", enum=("a", "b"))
    assert describe_parameter(spec).endswith(" and must be one of: a, b")


def test_describe_parameter_empty_description():
    spec = param("x", "")
    assert describe_parameter(spec) == "The x parameter is a string that "


def test_identical_descriptions_form_one_group(embedder):
    lib = [fn("f", param("city", "name of the place")),
           fn("g", param("city", "name of the place"))]
    groups = group_parameters(lib, embedder, 0.6)
    string_groups = [g for g in groups.groups if g.category is ParamCategory.STRING]
    assert len(string_groups) == 1
    assert set(string_groups[0].members) == {("f", "city"), ("g", "city")}


def test_disjoint_descriptions_stay_singletons(embedder):
    lib = [fn("f", param("alpha", "entirely unrelated notion one")),
           fn("g", param("omega", "different completely separate thing"))]
    groups = group_parameters(lib, embedder, 0.6)
    assert all(len(g.members) == 1 for g in groups.groups)


def test_seed_anchored_absorption_is_not_transitive_closure():
    # cos(a,b) = cos(a,c) = 0.7, cos(b,c) = 0.2: one group {a, b, c}
    texts = {
        "The a parameter is a string that first": [1.0, 0.0, 0.0],
        "The b parameter is a string that second": [0.7, math.sqrt(1 - 0.49), 0.0],
    }
    x = (0.2 - 0.49) / math.sqrt(1 - 0.49)
    texts["The c parameter is a string that third"] = [
        0.7, x, math.sqrt(max(0.0, 1 - 0.49 - x * x))]
    emb = PresetEmbedder(texts)
    lib = [fn("f", param("a", "first"), param("b", "second"), param("c", "third"))]
    groups = group_parameters(lib, emb, 0.6)
    string_groups = [g for g in groups.groups if g.category is ParamCategory.STRING]
    assert len(string_groups) == 1
    assert set(string_groups[0].members) == {("f", "a"), ("f", "b"), ("f", "c")}


def test_grouping_is_a_partition(library, embedder):
    groups = group_parameters(library, embedder, 0.6)
    seen = set()
    for g in groups.groups:
        assert all(m not in seen for m in g.members)
        seen.update(g.members)
        cats = {classify_parameter_type(
            next(p for f in library if f.name == m[0]
                 for p in f.parameters if p.name == m[1]).declared_type,
            next(p for f in library if f.name == m[0]
                 for p in f.parameters if p.name == m[1]).enum_values)
            for m in g.members}
        assert len(cats) == 1
    total_params = sum(len(f.parameters) for f in library)
    assert len(seen) == total_params


def test_raising_threshold_never_merges(library, embedder):
    low = group_parameters(library, embedder, 0.5)
    high = group_parameters(library, embedder, 0.8)
    # every high-threshold group must sit inside one low-threshold group
    low_of = {m: g.id for g in low.groups for m in g.members}
    for g in high.groups:
        assert len({low_of[m] for m in g.members}) == 1


def test_pools_no_other_params_means_empty_other(embedder):
    lib = [fn("f", param("x", "plain text field"))]
    groups = group_parameters(lib, embedder, 0.6)
    pools = build_api_pools(lib, groups, random.Random(0))
    assert pools.other == ()
    assert pools.general == ("f",)


def test_pools_uniform_when_groups_singleton(embedder):
    lib = [fn("f", param("aa", "one unique thing")),
           fn("g", param("bb", "another separate thing")),
           fn("h", param("cc", "third standalone thing"))]
    groups = group_parameters(lib, embedder, 0.9)
    counts = {"f": 0, "g": 0, "h": 0}
    for seed in range(300):
        pools = build_api_pools(lib, groups, random.Random(seed))  # focuses on one of three
        counts[pools.focused[0]] += 1
    assert all(c > 60 for c in counts.values())  # roughly uniform


def test_pools_weighted_draw_matches_rng_trace(library, embedder):
    groups = group_parameters(library, embedder, 0.6)
    pools = build_api_pools(library, groups, random.Random(3))
    # oracle: replay the documented sequential weighted draw
    rng = random.Random(3)
    weights = {}
    for f in library:
        w = max((len(groups.group_of(f.name, p.name).members) for p in f.parameters),
                default=0)
        weights[f.name] = float(w) if w else 1.0
    remaining = [f.name for f in library]
    want = []
    size = math.ceil(len(library) / 3)
    while remaining and len(want) < size:
        total = sum(weights[n] for n in remaining)
        roll = rng.random() * total
        acc = 0.0
        chosen = remaining[-1]
        for n in remaining:
            acc += weights[n]
            if roll < acc:
                chosen = n
                break
        want.append(chosen)
        remaining.remove(chosen)
    assert list(pools.focused) == want


def test_graph_pp_edge_for_shared_parameter(embedder):
    lib = [fn("f", param("city", "name of the city")),
           fn("g", param("city", "name of the city"))]
    graph = build_similarity_graph(lib, embedder, 0.6)
    assert any(e.kind == "P-P" and {e.source, e.target} == {"f", "g"}
               for e in graph.edges)
    assert not any(e.source == e.target for e in graph.edges)


def test_graph_pr_edge_direction(embedder):
    lib = [
        fn("u", param("q", "free text query"),
           returns=(ReturnField("video_url", "string", "address of the found video"),)),
        fn("v", param("video_url", "address of the found video")),
    ]
    graph = build_similarity_graph(lib, embedder, 0.6)
    assert any(e.kind == "P-R" and e.source == "u" and e.target == "v"
               for e in graph.edges)
    assert not any(e.kind == "P-R" and e.source == "v" for e in graph.edges)


def test_graph_unreachable_threshold(library, embedder):
    graph = build_similarity_graph(library, embedder, 1.01)
    assert graph.edges == ()


def test_graph_edge_qualifies_on_its_rounded_weight():
    # the one cosine is the double just below the threshold, which rounds to
    # it, so the edge is kept with the threshold as its weight
    threshold = 0.6
    below = math.nextafter(threshold, 0.0)
    u, v = param("city", "name of the city"), param("town", "name of the town")
    preset = PresetEmbedder({describe_parameter(u): [1.0, 0.0],
                             describe_parameter(v): [below, math.nextafter(0.8, 1.0)]})
    assert cosine_matrix(preset.embed([describe_parameter(u), describe_parameter(v)]))[0, 1] == below
    graph = build_similarity_graph([fn("u", u), fn("v", v)], preset, threshold)
    assert graph.edges == (GraphEdge("u", "v", "P-P", threshold),)


# Traced peak of building the templated_library(400) graph, less its returned
# columns. Measured with Python 3.11: 1.4 MiB one block of owners at a time,
# 9.4 MiB when the build held (n, n) maxima and every pair's cosine.
GRAPH_PEAK_BOUND = 4 * 2**20


def test_graph_build_peak_is_not_quadratic(embedder):
    lib = templated_library(400)
    graph, peak = traced_peak(lambda: build_similarity_graph(lib, embedder, 0.6))
    columns = sum(getattr(graph, c).nbytes for c in ("sources", "targets", "kinds", "weights"))
    assert peak - columns < GRAPH_PEAK_BOUND, (peak, columns)


def test_graph_build_holds_each_edge_column_once(embedder):
    # with Python 3.11 the peak less the 3.8 MiB of columns measured 2.7 MiB
    # joining one column at a time, and 5.1 MiB while every block's parts
    # outlived all four joins
    lib = templated_library(1200)
    graph, peak = traced_peak(lambda: build_similarity_graph(lib, embedder, 0.6))
    columns = sum(getattr(graph, c).nbytes for c in ("sources", "targets", "kinds", "weights"))
    assert peak - columns < columns, (peak, columns)


class ZeroForMarker:
    """Hash embeddings, except that texts containing the marker embed to zero."""

    def __init__(self, inner, marker):
        self.inner, self.marker = inner, marker

    def embed(self, texts):
        return [np.zeros_like(v) if self.marker in t else v
                for t, v in zip(texts, self.inner.embed(texts))]


def brute_force_graph_edges(library, embedder, threshold):
    """Per-pair maximum of scalar cosines (0 against a zero vector), rounded
    to 12 decimals and kept when the rounded weight reaches the threshold, in
    the documented order: P-P for u before v, then P-R for every u != v."""
    def flat(fields):
        return [x for f in fields for x in (f, *flat(f.fields))]

    def cos(ta, tb):
        va, vb = embedder.embed([ta, tb])
        na, nb = np.linalg.norm(va), np.linalg.norm(vb)
        return 0.0 if na == 0.0 or nb == 0.0 else float(va @ vb) / (na * nb)

    def max_sim(texts_a, texts_b):
        return max((cos(ta, tb) for ta in texts_a for tb in texts_b), default=-np.inf)

    params = {f.name: [describe_parameter(p) for p in f.parameters] for f in library}
    returns = {f.name: [describe_return_field(r) for r in flat(f.return_fields)]
               for f in library}
    names = [f.name for f in library]
    edges = []
    for i, u in enumerate(names):
        for v in names[i + 1:]:
            weight = round(max_sim(params[u], params[v]), 12)
            if weight >= threshold:
                edges.append((u, v, "P-P", weight))
    for u in names:
        for v in names:
            weight = round(max_sim(returns[u], params[v]), 12)
            if u != v and weight >= threshold:
                edges.append((u, v, "P-R", weight))
    return edges


def graph_edges(library, embedder, threshold):
    graph = build_similarity_graph(library, embedder, threshold)
    return [(e.source, e.target, e.kind, e.weight) for e in graph.edges]


@pytest.mark.parametrize("threshold", [0.6, 0.3])
def test_graph_matches_brute_force_on_fixture(library, embedder, threshold):
    want = brute_force_graph_edges(library, embedder, threshold)
    assert want
    assert graph_edges(library, embedder, threshold) == want


@pytest.mark.parametrize("threshold", [0.6, 0.0, -1.0])
def test_graph_matches_brute_force_with_tokenless_description(embedder, threshold):
    lib = [
        fn("u", param("city", "name of the city"),
           returns=(ReturnField("video_url", "string", "address of the found video",
                                (ReturnField("mirror", "string", "東京"),)),)),
        fn("v", param("video_url", "address of the found video"), param("tag", "東京")),
        fn("w", param("label", "東京")),
        fn("x"),
        fn("y", param("city", "name of the city")),
    ]
    zeroing = ZeroForMarker(embedder, "東京")
    want = brute_force_graph_edges(lib, zeroing, threshold)
    assert graph_edges(lib, zeroing, threshold) == want
    if threshold == 0.0:
        # a zero vector is similar to nothing: cosine 0, not left out
        assert ("w", "y", "P-P", 0.0) in want


def reference_graph(library, embedder, threshold):
    """The full-matrix, per-edge builder: (n, n) owner maxima by
    ``np.maximum.at`` scatters, each rounded by Python's ``round(w, 12)``,
    then one edge per pair whose rounded weight reaches the threshold."""
    params, returns = [], []

    def flatten(owner, fields):
        for f in fields:
            returns.append((owner, describe_return_field(f)))
            flatten(owner, f.fields)

    for owner, f in enumerate(library):
        params.extend((owner, describe_parameter(p)) for p in f.parameters)
        flatten(owner, f.return_fields)
    texts = sorted({t for _, t in params} | {t for _, t in returns})
    row_of = {t: i for i, t in enumerate(texts)}
    vectors = np.asarray(embedder.embed(texts), dtype=np.float64) if texts else None
    n = len(library)

    def block_max(a, b):
        best = np.full((n, n), -np.inf)
        if a and b:
            sim = cosine_matrix(vectors[[row_of[t] for _, t in a]],
                                vectors[[row_of[t] for _, t in b]], allow_zero=True)
            by_owner_b = np.full((n, len(a)), -np.inf)
            np.maximum.at(by_owner_b, [o for o, _ in b], sim.T)
            np.maximum.at(best, [o for o, _ in a], by_owner_b.T)
        return best

    def edges_of(best, pairs, kind):
        weights = np.frompyfunc(lambda w: round(float(w), 12), 1, 1)(best).astype(float)
        return [GraphEdge(library[u].name, library[v].name, kind, float(weights[u, v]))
                for u, v in zip(*np.nonzero(pairs & (weights >= threshold)))]

    pp = block_max(params, params)
    pr = block_max(returns, params)
    np.fill_diagonal(pr, -np.inf)
    edges = (edges_of(pp, np.triu(np.ones((n, n), dtype=bool), k=1), "P-P")
             + edges_of(pr, True, "P-R"))
    return graph_of(tuple(f.name for f in library), edges)


def gapped_library(size):
    """``size`` tagged copies of five templates: no parameter and no return
    field, parameters only, returns only, and several parameters with nested
    returns, so owner runs have gaps and are longer than one."""
    templates = [
        fn("search", param("query", "free text to look up"),
           param("limit", "largest number of results", "integer"),
           returns=(ReturnField("results", "array", "items found", (
               ReturnField("url", "string", "address of the item"),
               ReturnField("title", "string", "headline of the item"))),)),
        fn("ping"),
        fn("open_page", param("url", "address of the item")),
        fn("now", returns=(ReturnField("timestamp", "integer", "current time in seconds"),)),
        fn("convert", param("amount", "sum of money", "float"),
           param("currency", "three letter code"), param("day", "date of the rate"),
           returns=(ReturnField("value", "float", "sum of money after conversion"),)),
    ]
    words = ("weekly", "nearby", "archived")
    return [fn(f"{t.name}_{i:03d}",
               *(param(p.name, f"{p.description} {words[i % 3]}", p.declared_type)
                 for p in t.parameters), returns=t.return_fields)
            for i, t in ((i, templates[i % len(templates)]) for i in range(size))]


def tokenless_in_a_later_block(embedder):
    """A library past one block whose last function's parameter and return
    field embed to zero."""
    lib = [*gapped_library(GRAPH_BLOCK + 1),
           fn("tagged", param("label", "東京"),
              returns=(ReturnField("mirror", "string", "東京"),))]
    return lib, ZeroForMarker(embedder, "東京")


# Libraries that put a function with no sentence, an owner run and the last
# function on each side of a block edge, and a zero row in a later block.
BLOCK_EDGES = [pytest.param(lambda e, size=size: (gapped_library(size), e),
                            id=f"gapped-{size}")
               for size in (GRAPH_BLOCK - 1, GRAPH_BLOCK, GRAPH_BLOCK + 1, 2 * GRAPH_BLOCK + 1)]
BLOCK_EDGES.append(pytest.param(tokenless_in_a_later_block, id="tokenless-later-block"))


@pytest.mark.parametrize("threshold", [0.6, 0.0, -1.0])
@pytest.mark.parametrize("library_of", [
    pytest.param(lambda e: (gapped_library(23), e), id="gapped"),
    pytest.param(lambda e: (templated_library(200), e), id="templated-200"),
    *BLOCK_EDGES])
def test_graph_equals_per_edge_reference(embedder, library_of, threshold):
    lib, embedder = library_of(embedder)
    graph = build_similarity_graph(lib, embedder, threshold)
    assert graph.edges
    assert graph == reference_graph(lib, embedder, threshold)


def per_edge_artifact_graph(graph):
    """The artifact's graph entry of the per-edge graph: each column read off
    the edge records, weights being ``round(w, 12)`` floats, and packed."""
    index = {v: i for i, v in enumerate(graph.vertices)}
    entry = {"vertices": list(graph.vertices)}
    for name, values in (("sources", [index[e.source] for e in graph.edges]),
                         ("targets", [index[e.target] for e in graph.edges]),
                         ("kinds", [EDGE_KINDS.index(e.kind) for e in graph.edges]),
                         ("weights", [e.weight for e in graph.edges])):
        entry[name] = ""  # no values yet
        packed_column(entry, name, lambda _, values=values: values)
    return entry


@pytest.mark.parametrize("threshold", [0.6, 0.0, -1.0])
@pytest.mark.parametrize("library_of", [
    pytest.param(lambda e: (fixture_library(), e), id="fixture"),
    pytest.param(lambda e: (templated_library(200), e), id="templated-200"),
    *BLOCK_EDGES])
def test_artifact_bytes_equal_the_per_edge_graphs(tmp_path, embedder, library_of, threshold):
    lib, embedder = library_of(embedder)
    groups = group_parameters(lib, embedder, 0.6)
    pools = build_api_pools(lib, groups, random.Random(1))
    graph = build_similarity_graph(lib, embedder, threshold)
    path = tmp_path / "a.json"
    write_artifact(path, lib, groups, pools, graph, {"rng_seed": 1})
    doc = json.loads(path.read_bytes())
    doc["graph"] = per_edge_artifact_graph(reference_graph(lib, embedder, threshold))
    assert path.read_bytes() == (json.dumps(doc, ensure_ascii=False, sort_keys=True)
                                 + "\n").encode("utf-8")
    _, _, _, read_back, _ = read_artifact(path)
    assert read_back == graph
    write_artifact(tmp_path / "b.json", lib, groups, pools, read_back, {"rng_seed": 1})
    assert (tmp_path / "b.json").read_bytes() == path.read_bytes()


def test_graph_at_threshold_minus_one_joins_only_functions_with_sentences(embedder):
    # a cosine is never below -1, so every pair with sentences on both sides
    # qualifies, and no pair without them does
    lib = gapped_library(5)
    graph = build_similarity_graph(lib, embedder, -1.0)
    by_name = {f.name: f for f in lib}
    pp = [(e.source, e.target) for e in graph.edges if e.kind == "P-P"]
    pr = [(e.source, e.target) for e in graph.edges if e.kind == "P-R"]
    assert pp and pr
    assert all(by_name[u].parameters and by_name[v].parameters for u, v in pp)
    assert all(by_name[u].return_fields and by_name[v].parameters for u, v in pr)
    assert all(e.weight >= -1.0 for e in graph.edges)


def test_artifact_round_trip_and_byte_stability(tmp_path, library, embedder):
    groups = group_parameters(library, embedder, 0.6)
    pools = build_api_pools(library, groups, random.Random(1))
    graph = build_similarity_graph(library, embedder, 0.6)
    p1 = tmp_path / "a.json"
    p2 = tmp_path / "b.json"
    write_artifact(p1, library, groups, pools, graph, {"rng_seed": 1})
    write_artifact(p2, library, groups, pools, graph, {"rng_seed": 1})
    assert p1.read_bytes() == p2.read_bytes()
    lib2, groups2, pools2, graph2, cfg = read_artifact(p1)
    assert [f.name for f in lib2] == [f.name for f in library]
    assert groups2.to_dicts() == groups.to_dicts()
    assert pools2 == pools
    assert graph2.to_dict() == graph.to_dict()
    assert graph2 == graph
    assert cfg == {"rng_seed": 1}


@pytest.mark.parametrize("weights", [
    [-0.0, 5e-324, 1.0, -1.0, 0.1 + 0.2], []], ids=["edge-weights", "no-edges"])
def test_graph_round_trips_bit_exact(weights):
    vertices = ("a", "b", "c")
    edges = [GraphEdge(vertices[i % 3], vertices[(i + 1) % 3], EDGE_KINDS[i % 2], w)
             for i, w in enumerate(weights)]
    graph = graph_of(vertices, edges)
    read_back = ApiGraph.from_dict(json.loads(json.dumps(graph.to_dict())))
    assert read_back == graph
    for name in ("sources", "targets", "kinds", "weights"):
        column, original = getattr(read_back, name), getattr(graph, name)
        assert column.dtype == original.dtype and not column.flags.writeable
        assert column.tobytes() == original.tobytes()
    assert read_back.edges == graph.edges


def test_graph_keeps_read_only_columns_of_its_dtypes():
    sources, targets = np.array([0, 1]), np.array([1, 0])
    kinds, weights = np.array([0, 1], np.int8), np.array([0.75, 0.5])
    for column in sources, kinds, weights:
        column.flags.writeable = False
    graph = ApiGraph(("a", "b"), sources, targets, kinds, weights)
    assert graph.sources is sources and graph.kinds is kinds and graph.weights is weights
    # a writable column is copied, so a later write cannot reach the graph
    assert graph.targets is not targets and not graph.targets.flags.writeable
    targets[0] = 0
    assert graph.targets.tolist() == [1, 0]
    # a column of another dtype is copied in the graph's
    graph = ApiGraph(("a", "b"), sources.astype(np.int32), targets, kinds, weights)
    assert graph.sources.dtype == np.intp and not graph.sources.flags.writeable


def test_a_failed_artifact_write_leaves_the_previous_artifact(tmp_path, library, embedder):
    groups = group_parameters(library, embedder, 0.6)
    pools = build_api_pools(library, groups, random.Random(1))
    graph = build_similarity_graph(library, embedder, 0.6)
    path = tmp_path / "a.json"
    write_artifact(path, library, groups, pools, graph, {"rng_seed": 1})
    before = path.read_bytes()
    with pytest.raises(TypeError):
        write_artifact(path, library, groups, pools, graph, {"bad": object()})
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["a.json"]


# Traced peak of reading the templated_library(1000) artifact (110,560
# edges). Measured with Python 3.11: 7.7 MiB with packed columns, 22.1 MiB
# when each column was a JSON list of one Python number or string per edge.
READ_PEAK_BOUND = 12 * 2**20


def test_artifact_read_peak_is_bounded(tmp_path, embedder):
    lib = templated_library(1000)
    groups = group_parameters(lib, embedder, 0.6)
    pools = build_api_pools(lib, groups, random.Random(1))
    graph = build_similarity_graph(lib, embedder, 0.6)
    path = tmp_path / "a.json"
    write_artifact(path, lib, groups, pools, graph, {"rng_seed": 1})
    (_, _, _, read_back, _), peak = traced_peak(lambda: read_artifact(path))
    assert read_back == graph
    assert peak < READ_PEAK_BOUND, peak
