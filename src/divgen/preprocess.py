"""Preprocessing: parameter grouping, API pools, and the API similarity graph.

Grouping is a single seed-anchored pass per category: each still-ungrouped
parameter (in library order) opens a group and absorbs every later ungrouped
parameter whose described-sentence embedding lands within the cosine threshold
of the seed. The similarity graph takes, for every pair of functions, the
largest cosine between their described sentences. Every cosine comes from
``metrics.semantic.cosine_matrix``; a sentence that embeds to zero is similar
to nothing (cosine 0). Group value trackers are the only mutable state in the
system; everything else built here is immutable.

The artifact is one compact JSON document. Its graph holds the vertex names
once and the edges as four columns: source and target indexes into the
vertices, kinds and weights. ``read_artifact`` refuses, with ModelError, any
file ``write_artifact`` could not have written, an artifact from before the
columns included.
"""

from __future__ import annotations

import json
import math
import random
from collections import defaultdict
from dataclasses import dataclass, field
from functools import cached_property
from itertools import filterfalse
from pathlib import Path
from typing import Any, NamedTuple, Sequence

import numpy as np

from divgen.metrics.semantic import cosine_matrix
from divgen.model import (
    FunctionSchema,
    ModelError,
    ParamCategory,
    ParameterSpec,
    ReturnField,
    parse_function_library,
)


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


class GraphEdge(NamedTuple):
    source: str
    target: str
    kind: str  # "P-P" (undirected) or "P-R" (directed source -> target)
    weight: float


EDGE_KINDS = ("P-P", "P-R")


class _Adjacency(NamedTuple):
    pp: dict[str, tuple[tuple[str, float], ...]]
    pr: dict[str, tuple[tuple[str, float], ...]]
    starts: tuple[str, ...]


@dataclass(frozen=True)
class ApiGraph:
    """Vertices and edges, plus neighbour lists built from the edges on first
    use (one pass, in edge order) and shared by every later query. The
    artifact stores the edges as four columns, ``sources`` and ``targets``
    (indexes into ``vertices``), ``kinds`` and ``weights``."""

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
        index = {v: i for i, v in enumerate(self.vertices)}.__getitem__
        sources, targets, kinds, weights = zip(*self.edges) if self.edges else ((),) * 4
        return {"vertices": list(self.vertices), "sources": list(map(index, sources)),
                "targets": list(map(index, targets)), "kinds": list(kinds), "weights": list(weights)}

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "ApiGraph":
        """The graph ``to_dict`` wrote, checked column by column; ModelError
        for any entry that graph could not have."""
        if "edges" in d:
            raise ModelError("graph edges are in the per-edge form of an older divgen;"
                             " re-run `divgen preprocess`")
        vertices = tuple(d["vertices"])
        columns = [d[k] for k in ("sources", "targets", "kinds", "weights")]
        sources, targets, kinds, weights = columns
        if set(map(type, columns)) - {list} or len(set(map(len, columns))) > 1:
            raise ModelError("graph sources, targets, kinds and weights must be lists of"
                             " one length")
        ends = sources + targets
        if ends and (set(map(type, ends)) - {int} or min(ends) < 0
                     or max(ends) >= len(vertices)):
            raise ModelError(f"graph edge vertex indexes must be integers from 0 to"
                             f" {len(vertices) - 1}")
        for kind in filterfalse(EDGE_KINDS.__contains__, kinds):
            raise ModelError(f"graph edge kind {kind!r} is neither P-P nor P-R")
        if set(map(type, weights)) - {float} or not all(map(math.isfinite, weights)):
            raise ModelError("graph edge weights must be finite floats")
        name = vertices.__getitem__
        return cls(vertices, tuple(map(GraphEdge, map(name, sources), map(name, targets),
                                       kinds, weights)))


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
    names = [fn.name for fn in library]

    def block_max(a: list[tuple[int, str]], b: list[tuple[int, str]]) -> np.ndarray:
        """[u, v]: the largest cosine of a sentence of u in ``a`` and one of v
        in ``b``; -inf (no threshold passes it) if either has none. Rows are in
        library order, so each owner's rows are one run, no start repeated."""
        best = np.full((len(names), len(names)), -np.inf)
        if a and b:
            sim = cosine_matrix(vectors[[row_of[t] for _, t in a]],
                                vectors[[row_of[t] for _, t in b]], allow_zero=True)
            (starts_a, owners_a), (starts_b, owners_b) = runs(a), runs(b)
            best[np.array(owners_a)[:, None], owners_b] = np.maximum.reduceat(
                np.maximum.reduceat(sim, starts_a, axis=0), starts_b, axis=1)
        return best

    def runs(rows: list[tuple[int, str]]) -> tuple[list[int], list[int]]:
        starts = [i for i, (o, _) in enumerate(rows) if i == 0 or rows[i - 1][0] != o]
        return starts, [rows[i][0] for i in starts]

    def edges_of(best: np.ndarray, mask: np.ndarray, kind: str) -> list[GraphEdge]:
        us, vs = np.nonzero(mask)
        return [GraphEdge(names[u], names[v], kind, round(w, 12))
                for u, v, w in zip(us.tolist(), vs.tolist(), best[us, vs].tolist())]

    pp = block_max(params, params)
    pr = block_max(returns, params)
    np.fill_diagonal(pr, -np.inf)  # no P-R edge from a function to itself
    edges = (edges_of(pp, np.triu(pp >= threshold, k=1), "P-P")
             + edges_of(pr, pr >= threshold, "P-R"))
    return ApiGraph(vertices=tuple(names), edges=tuple(edges))


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
    """What ``write_artifact`` stored at ``path``. A file it could not have
    written (not JSON, an entry missing or malformed, graph edges in an older
    form) raises ModelError naming ``path``."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        graph = ApiGraph.from_dict(doc["graph"])
        library = parse_function_library(doc["library"])
        if graph.vertices != tuple(fn.name for fn in library):
            raise ModelError("the graph's vertices are not the library's functions")
        return (library, GroupIndex.from_dicts(doc["groups"]), ApiPools.from_dict(doc["pools"]),
                graph, doc.get("config", {}))
    except KeyError as exc:
        raise ModelError(f"cannot read artifact {path}: no {exc} entry") from exc
    except (TypeError, ValueError) as exc:  # JSONDecodeError and ModelError are ValueErrors
        raise ModelError(f"cannot read artifact {path}: {exc}") from exc
