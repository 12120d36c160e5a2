import math
import random

import numpy as np
import pytest

from conftest import PresetEmbedder
from divgen.model import (
    FunctionSchema,
    ParamCategory,
    ParameterSpec,
    ReturnField,
    classify_parameter_type,
)
from divgen.preprocess import (
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


class ZeroForMarker:
    """Hash embeddings, except that texts containing the marker embed to zero."""

    def __init__(self, inner, marker):
        self.inner, self.marker = inner, marker

    def embed(self, texts):
        return [np.zeros_like(v) if self.marker in t else v
                for t, v in zip(texts, self.inner.embed(texts))]


def brute_force_graph_edges(library, embedder, threshold):
    """Per-pair maximum of scalar cosines (0 against a zero vector), in the
    documented order: P-P for u before v, then P-R for every u != v."""
    def flat(fields):
        return [x for f in fields for x in (f, *flat(f.fields))]

    def cos(ta, tb):
        va, vb = embedder.embed([ta, tb])
        na, nb = np.linalg.norm(va), np.linalg.norm(vb)
        return 0.0 if na == 0.0 or nb == 0.0 else float(va @ vb) / (na * nb)

    def max_sim(texts_a, texts_b):
        return max((cos(ta, tb) for ta in texts_a for tb in texts_b), default=-1.0)

    params = {f.name: [describe_parameter(p) for p in f.parameters] for f in library}
    returns = {f.name: [describe_return_field(r) for r in flat(f.return_fields)]
               for f in library}
    names = [f.name for f in library]
    edges = []
    for i, u in enumerate(names):
        for v in names[i + 1:]:
            sim = max_sim(params[u], params[v])
            if sim >= threshold:
                edges.append((u, v, "P-P", round(sim, 12)))
    for u in names:
        for v in names:
            sim = max_sim(returns[u], params[v])
            if u != v and sim >= threshold:
                edges.append((u, v, "P-R", round(sim, 12)))
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
    assert cfg == {"rng_seed": 1}
