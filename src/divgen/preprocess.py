"""Preprocessing: parameter grouping, API pools, and the API similarity graph.

Grouping is a single seed-anchored pass per category: each still-ungrouped
parameter (in library order) opens a group and absorbs every later ungrouped
parameter whose described-sentence embedding lands within the cosine threshold
of the seed. The similarity graph takes, for every pair of functions, the
largest cosine between their described sentences. Every cosine comes from
``metrics.semantic.cosine_matrix``; a sentence that embeds to zero is similar
to nothing (cosine 0). Group value trackers are the only mutable state in the
system; everything else built here is immutable.
"""

from __future__ import annotations

import json
import math
import random
from collections import defaultdict
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Any, NamedTuple, Sequence

import numpy as np

from divgen.metrics.semantic import cosine_matrix
from divgen.model import FunctionSchema, ParamCategory, ParameterSpec, ReturnField, parse_function_library


def describe_parameter(spec: ParameterSpec) -> str:
    """The fixed sentence template embedded for grouping and graph building."""
    sentence = f"The {spec.name} parameter is a {spec.declared_type} that {spec.description}"
    if spec.category is ParamCategory.ENUM:
        sentence += " and must be one of: " + ", ".join(spec.enum_values)
    return sentence


def describe_return_field(field_spec: ReturnField) -> str:
    # return-schema fields reuse the parameter template so they embed comparably
    return f"The {field_spec.name} parameter is a {field_spec.declared_type} that {field_spec.description}"


@dataclass
class ParameterGroup:
    """A semantic cluster of parameters sharing one category.

    ``tracker`` is the append-only list of committed argument values used by the
    greedy diversity selector.
    """

    id: str
    category: ParamCategory
    members: tuple[tuple[str, str], ...]  # (function name, parameter name)
    tracker: list[Any] = field(default_factory=list)

    def to_dict(self) -> dict[str, Any]:
        return {
            "id": self.id,
            "category": self.category.value,
            "members": [list(m) for m in self.members],
            "tracker": list(self.tracker),
        }

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "ParameterGroup":
        return cls(
            id=d["id"],
            category=ParamCategory(d["category"]),
            members=tuple((m[0], m[1]) for m in d["members"]),
            tracker=list(d.get("tracker", [])),
        )


class GroupIndex:
    """Groups plus the (function, parameter) -> group lookup."""

    def __init__(self, groups: Sequence[ParameterGroup]):
        self.groups = list(groups)
        self._by_member: dict[tuple[str, str], ParameterGroup] = {}
        for g in self.groups:
            for member in g.members:
                if member in self._by_member:
                    raise ValueError(f"parameter {member} assigned to two groups")
                self._by_member[member] = g

    def group_of(self, function_name: str, parameter_name: str) -> ParameterGroup:
        return self._by_member[(function_name, parameter_name)]

    def snapshot_all(self) -> dict[str, list[Any]]:
        return {g.id: list(g.tracker) for g in self.groups}

    def restore(self, snapshot: dict[str, list[Any]]) -> None:
        for g in self.groups:
            g.tracker[:] = list(snapshot.get(g.id, []))

    def to_dicts(self) -> list[dict[str, Any]]:
        return [g.to_dict() for g in self.groups]

    @classmethod
    def from_dicts(cls, rows: list[dict[str, Any]]) -> "GroupIndex":
        return cls([ParameterGroup.from_dict(r) for r in rows])


def group_parameters(
    library: Sequence[FunctionSchema], embedder, threshold: float = 0.6
) -> GroupIndex:
    """Partition all parameters into semantic groups, one pass per category."""
    if not library:
        raise ValueError("group_parameters requires a non-empty library")
    entries: list[tuple[str, str, ParamCategory, str]] = []
    for fn in library:
        for p in fn.parameters:
            entries.append((fn.name, p.name, p.category, describe_parameter(p)))
    groups: list[ParameterGroup] = []
    if not entries:
        return GroupIndex(groups)
    vectors = np.asarray(embedder.embed([e[3] for e in entries]), dtype=np.float64)

    for category in ParamCategory:
        idxs = np.array([i for i, e in enumerate(entries) if e[2] is category], dtype=int)
        sim = cosine_matrix(vectors[idxs], allow_zero=True)
        ungrouped = np.ones(idxs.size, dtype=bool)
        for seed in range(idxs.size):
            if not ungrouped[seed]:
                continue
            ungrouped[seed] = False
            joined = np.nonzero(ungrouped & (sim[seed] >= threshold))[0]
            ungrouped[joined] = False
            members = idxs[[seed, *joined]]
            groups.append(
                ParameterGroup(
                    id=f"g{len(groups):03d}",
                    category=category,
                    members=tuple((entries[k][0], entries[k][1]) for k in members),
                )
            )
    return GroupIndex(groups)


# ---------------------------------------------------------------------------
# API pools


@dataclass(frozen=True)
class ApiPools:
    general: tuple[str, ...]
    focused: tuple[str, ...]
    other: tuple[str, ...]

    def to_dict(self) -> dict[str, list[str]]:
        return {"general": list(self.general), "focused": list(self.focused),
                "other": list(self.other)}

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "ApiPools":
        return cls(tuple(d["general"]), tuple(d["focused"]), tuple(d["other"]))


def weighted_pick(items: Sequence[Any], weights: Sequence[float], rng: random.Random) -> Any:
    """Categorical draw (one rng.random()); the last item if rounding leaves
    the roll past every cumulative weight."""
    roll = rng.random() * sum(weights)
    acc = 0.0
    for item, w in zip(items, weights):
        acc += w
        if roll < acc:
            return item
    return items[-1]


def build_api_pools(
    library: Sequence[FunctionSchema],
    groups: GroupIndex,
    rng: random.Random,
) -> ApiPools:
    """General = everything; focused = weighted draw toward large groups;
    other = functions owning an OTHER-category parameter.

    The focused pool holds a third of the library (at least one function). A
    function's focused weight is the size of the largest group any of its
    parameters belongs to. Sampling is sequential weighted draws without
    replacement (one ``rng.random()`` per draw).
    """
    names = [fn.name for fn in library]
    focused_size = max(1, math.ceil(len(names) / 3))
    weights: dict[str, float] = {}
    for fn in library:
        w = 0.0
        for p in fn.parameters:
            w = max(w, float(len(groups.group_of(fn.name, p.name).members)))
        weights[fn.name] = w if w > 0 else 1.0

    remaining = list(names)
    focused: list[str] = []
    while remaining and len(focused) < focused_size:
        chosen = weighted_pick(remaining, [weights[n] for n in remaining], rng)
        focused.append(chosen)
        remaining.remove(chosen)

    other = tuple(
        fn.name for fn in library
        if any(p.category is ParamCategory.OTHER for p in fn.parameters)
    )
    return ApiPools(general=tuple(names), focused=tuple(focused), other=other)


# ---------------------------------------------------------------------------
# API similarity graph


@dataclass(frozen=True)
class GraphEdge:
    source: str
    target: str
    kind: str  # "P-P" (undirected) or "P-R" (directed source -> target)
    weight: float

    def to_dict(self) -> dict[str, Any]:
        return {"source": self.source, "target": self.target,
                "kind": self.kind, "weight": self.weight}


class _Adjacency(NamedTuple):
    pp: dict[str, tuple[tuple[str, float], ...]]
    pr: dict[str, tuple[tuple[str, float], ...]]
    starts: tuple[str, ...]


@dataclass(frozen=True)
class ApiGraph:
    """Vertices and edges, plus neighbour lists built from the edges on first
    use (one pass, in edge order) and shared by every later query."""

    vertices: tuple[str, ...]
    edges: tuple[GraphEdge, ...]

    @cached_property
    def _adjacency(self) -> _Adjacency:
        pp: dict[str, list[tuple[str, float]]] = defaultdict(list)
        pr: dict[str, list[tuple[str, float]]] = defaultdict(list)
        for e in self.edges:
            if e.kind == "P-P":
                pp[e.source].append((e.target, e.weight))
                if e.target != e.source:  # a self-loop is its own neighbour once
                    pp[e.target].append((e.source, e.weight))
            elif e.kind == "P-R":
                pr[e.source].append((e.target, e.weight))
        return _Adjacency(
            pp={v: tuple(n) for v, n in pp.items()},
            pr={v: tuple(n) for v, n in pr.items()},
            starts=tuple(v for v in self.vertices if v in pp or v in pr),
        )

    def pp_neighbors(self, name: str) -> tuple[tuple[str, float], ...]:
        """P-P neighbours in edge order; edges are undirected."""
        return self._adjacency.pp.get(name, ())

    def pr_successors(self, name: str) -> tuple[tuple[str, float], ...]:
        """Targets of P-R edges leaving ``name``, in edge order."""
        return self._adjacency.pr.get(name, ())

    @property
    def starts(self) -> tuple[str, ...]:
        """Vertices with at least one P-P neighbour or P-R successor, in vertex order."""
        return self._adjacency.starts

    def to_dict(self) -> dict[str, Any]:
        return {"vertices": list(self.vertices),
                "edges": [e.to_dict() for e in self.edges]}

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "ApiGraph":
        return cls(
            vertices=tuple(d["vertices"]),
            edges=tuple(GraphEdge(e["source"], e["target"], e["kind"], e["weight"])
                        for e in d["edges"]),
        )


def build_similarity_graph(
    library: Sequence[FunctionSchema], embedder, threshold: float = 0.6
) -> ApiGraph:
    """P-P edge when two functions share a similar input parameter; P-R edge
    u -> v when a return field of u resembles an input parameter of v.
    Edge weight is the maximum qualifying similarity, rounded to 12 decimals.
    Edges come P-P first, then P-R, each in library order of (u, v).
    """
    params: list[tuple[int, str]] = []  # (owner's library index, sentence)
    returns: list[tuple[int, str]] = []

    def flatten(owner: int, fields: tuple[ReturnField, ...]) -> None:
        for f in fields:
            returns.append((owner, describe_return_field(f)))
            flatten(owner, f.fields)

    for owner, fn in enumerate(library):
        params.extend((owner, describe_parameter(p)) for p in fn.parameters)
        flatten(owner, fn.return_fields)

    texts = sorted({t for _, t in params} | {t for _, t in returns})
    row_of = {t: i for i, t in enumerate(texts)}
    vectors = np.asarray(embedder.embed(texts), dtype=np.float64) if texts else None
    n = len(library)

    def block_max(a: list[tuple[int, str]], b: list[tuple[int, str]]) -> np.ndarray:
        """[u, v]: the largest cosine between a sentence of u in ``a`` and one
        of v in ``b``; -1 when either function has none."""
        best = np.full((n, n), -1.0)
        if a and b:
            sim = cosine_matrix(vectors[[row_of[t] for _, t in a]],
                                vectors[[row_of[t] for _, t in b]], allow_zero=True)
            by_owner_b = np.full((n, len(a)), -1.0)
            np.maximum.at(by_owner_b, [o for o, _ in b], sim.T)
            np.maximum.at(best, [o for o, _ in a], by_owner_b.T)
        return best

    def edges_of(best: np.ndarray, mask: np.ndarray, kind: str) -> list[GraphEdge]:
        return [GraphEdge(library[u].name, library[v].name, kind, round(float(best[u, v]), 12))
                for u, v in zip(*np.nonzero(mask))]

    pp = block_max(params, params)
    pr = block_max(returns, params)
    np.fill_diagonal(pr, -np.inf)  # no P-R edge from a function to itself
    edges = (edges_of(pp, np.triu(pp >= threshold, k=1), "P-P")
             + edges_of(pr, pr >= threshold, "P-R"))
    return ApiGraph(vertices=tuple(fn.name for fn in library), edges=tuple(edges))


# ---------------------------------------------------------------------------
# Artifact persistence


def write_artifact(
    path: str | Path,
    library: Sequence[FunctionSchema],
    groups: GroupIndex,
    pools: ApiPools,
    graph: ApiGraph,
    config: dict[str, Any] | None = None,
) -> None:
    """Persist everything `generate` needs so it can run without recomputation."""
    doc = {
        "library": [fn.to_dict() for fn in library],
        "groups": groups.to_dicts(),
        "pools": pools.to_dict(),
        "graph": graph.to_dict(),
        "config": config or {},
    }
    with open(path, "w", encoding="utf-8") as fh:
        # compact, so the C encoder writes it (an indent takes the Python one)
        fh.write(json.dumps(doc, ensure_ascii=False, sort_keys=True) + "\n")


def read_artifact(path: str | Path) -> tuple[list[FunctionSchema], GroupIndex, ApiPools, ApiGraph, dict]:
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    library = parse_function_library(doc["library"])
    return (
        library,
        GroupIndex.from_dicts(doc["groups"]),
        ApiPools.from_dict(doc["pools"]),
        ApiGraph.from_dict(doc["graph"]),
        doc.get("config", {}),
    )
