"""Preprocessing: parameter grouping, API pools, and the API similarity graph.

Grouping is a single seed-anchored pass per category: each still-ungrouped
parameter (in library order) opens a group and absorbs every later ungrouped
parameter whose described-sentence embedding lands within the cosine threshold
of the seed. The similarity graph takes, for every pair of functions, the
largest cosine between their described sentences, one block of functions at a
time. Each cosine is ``metrics.semantic.cosine_matrix``'s; a sentence that
embeds to zero is similar to nothing (cosine 0). Group value trackers are the
only mutable state in the system; everything else built here is immutable.

The graph is held as columns from build to walk: the vertex names once and
the edges as four numpy columns, source and target indexes into the vertices,
kinds and weights (rounded to 12 decimals by ``round12``). No step creates
an object per edge; the walk's neighbour lists come from the columns. The
artifact is one compact JSON document holding the same columns, each packed
as base64 of its little-endian values, and everything else as readable JSON.
``read_artifact`` refuses, with ModelError, any file ``write_artifact`` could
not have written, an artifact of an older divgen included.
"""

from __future__ import annotations

import base64
import json
import math
import os
import random
from dataclasses import dataclass, field
from functools import cached_property
from itertools import filterfalse
from pathlib import Path
from typing import Any, NamedTuple, Sequence

import numpy as np

from divgen.metrics.cluster_entropy import UnusableValue, numeric_value, text_value
from divgen.metrics.semantic import cosine_matrix, round12, unit_rows
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
        group = cls(id=d["id"], category=ParamCategory(d["category"]),
                    members=tuple(tuple(m) for m in d["members"]),
                    tracker=d.get("tracker", []))  # d["id"] first: d may be no dict
        if not isinstance(group.tracker, list):
            raise ModelError(f"group {group.id}'s tracker must be an array, not {group.tracker!r}")
        return group


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
    library: Sequence[FunctionSchema], embedder, threshold: float
) -> GroupIndex:
    """Partition all parameters into semantic groups, one pass per category."""
    if not library:
        raise ValueError("group_parameters requires a non-empty library")
    entries = [(fn.name, p.name, p.category, describe_parameter(p))
               for fn in library for p in fn.parameters]
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
        pools = [d[k] for k in ("general", "focused", "other")]
        if set(map(type, pools)) - {list}:
            raise ModelError("the API pools must be lists of function names")
        return cls(*map(tuple, pools))


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
PP, PR = range(len(EDGE_KINDS))  # the codes in ``ApiGraph.kinds``
_COLUMNS = {"sources": np.dtype(np.intp), "targets": np.dtype(np.intp),
            "kinds": np.dtype(np.int8), "weights": np.dtype(np.float64)}
# each column's values in the artifact: little-endian, so the bytes do not
# depend on the machine, and weights keep every bit
_PACKED = {"sources": np.dtype("<i4"), "targets": np.dtype("<i4"), "kinds": np.dtype("i1"),
           "weights": np.dtype("<f8")}
GRAPH_BLOCK = 64  # functions whose sentences' cosines the graph build holds at once


class _NeighbourLists(dict):
    """Vertex name -> its (neighbour name, weight) pairs in edge order, from
    entries given in edge order: one stable sort by owner, and a vertex's
    tuple built on its first lookup. A name that is not a vertex has none."""

    def __init__(self, vertices: tuple[str, ...], owners: np.ndarray,
                 neighbours: np.ndarray, weights: np.ndarray):
        super().__init__()
        # a radix sort when the vertex count fits in 16 bits
        order = np.argsort(owners.astype(np.min_scalar_type(len(vertices))), kind="stable")
        self.counts = np.bincount(owners, minlength=len(vertices))
        self._bounds = [0, *np.cumsum(self.counts).tolist()]
        self._vertices, self._index = vertices, {v: i for i, v in enumerate(vertices)}
        self._neighbours, self._weights = neighbours[order], weights[order]

    def __missing__(self, name: str) -> tuple[tuple[str, float], ...]:
        vertex = self._index.get(name)
        if vertex is None:
            return ()
        span = slice(self._bounds[vertex], self._bounds[vertex + 1])
        lists = self[name] = tuple(zip(map(self._vertices.__getitem__,
                                           self._neighbours[span].tolist()),
                                       self._weights[span].tolist()))
        return lists


@dataclass(frozen=True, eq=False)
class ApiGraph:
    """The vertices and the edges as four columns, the artifact's own form:
    ``sources`` and ``targets`` index ``vertices``, ``kinds`` holds each
    edge's code (``PP`` or ``PR``, an index into ``EDGE_KINDS``) and
    ``weights`` its weight. The columns are read-only numpy arrays: one
    that arrives read-only with the column's dtype is kept as it is, anything
    else is copied.

    Neighbour lists come from the columns on first use, in one numpy pass,
    and are shared by every later query. ``edges`` is a derived view, one
    ``GraphEdge`` per edge, built when first read; the program itself reads
    the columns."""

    vertices: tuple[str, ...]
    sources: np.ndarray
    targets: np.ndarray
    kinds: np.ndarray
    weights: np.ndarray

    def __post_init__(self) -> None:
        for name, dtype in _COLUMNS.items():
            column = getattr(self, name)
            if (not isinstance(column, np.ndarray) or column.dtype != dtype
                    or column.flags.writeable):
                column = np.array(column, dtype=dtype)  # the graph's own copy
                column.flags.writeable = False
            object.__setattr__(self, name, column)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ApiGraph):
            return NotImplemented
        return self.vertices == other.vertices and all(
            np.array_equal(getattr(self, name), getattr(other, name)) for name in _COLUMNS)

    @cached_property
    def edges(self) -> tuple[GraphEdge, ...]:
        name = self.vertices.__getitem__
        return tuple(map(GraphEdge, map(name, self.sources.tolist()),
                         map(name, self.targets.tolist()),
                         map(EDGE_KINDS.__getitem__, self.kinds.tolist()),
                         self.weights.tolist()))

    @cached_property
    def _pp(self) -> _NeighbourLists:
        """Each P-P edge lists its source's entry, then its target's, except
        that a self-loop is its own neighbour once."""
        pp = self.kinds == PP
        sources, targets = self.sources[pp], self.targets[pp]
        owners = np.stack([sources, targets], axis=1).ravel()
        neighbours = np.stack([targets, sources], axis=1).ravel()
        keep = np.ones(owners.size, dtype=bool)
        keep[1::2] = sources != targets
        return _NeighbourLists(self.vertices, owners[keep], neighbours[keep],
                               np.repeat(self.weights[pp], 2)[keep])

    @cached_property
    def _pr(self) -> _NeighbourLists:
        pr = self.kinds == PR
        return _NeighbourLists(self.vertices, self.sources[pr], self.targets[pr],
                               self.weights[pr])

    def pp_neighbors(self, name: str) -> tuple[tuple[str, float], ...]:
        """P-P neighbours in edge order; edges are undirected."""
        return self._pp[name]

    def pr_successors(self, name: str) -> tuple[tuple[str, float], ...]:
        """Targets of P-R edges leaving ``name``, in edge order."""
        return self._pr[name]

    @cached_property
    def starts(self) -> tuple[str, ...]:
        """Vertices with at least one P-P neighbour or P-R successor, in vertex order."""
        return tuple(map(self.vertices.__getitem__,
                         np.flatnonzero(self._pp.counts + self._pr.counts).tolist()))

    def to_dict(self) -> dict[str, Any]:
        """The vertices as a list, and each column as base64 of its values
        packed as ``_PACKED`` says."""
        return {"vertices": list(self.vertices), **{
            name: base64.b64encode(getattr(self, name).astype(packed).tobytes()).decode("ascii")
            for name, packed in _PACKED.items()}}

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "ApiGraph":
        """The graph ``to_dict`` wrote, checked column by column; ModelError
        for any entry that graph could not have."""
        if "edges" in d:
            raise ModelError("graph edges are in the per-edge form of an older divgen;"
                             " re-run `divgen preprocess`")
        vertices = tuple(d["vertices"])
        texts = [d[name] for name in _PACKED]
        if list in map(type, texts):
            raise ModelError("graph columns are lists, the form of an older divgen;"
                             " re-run `divgen preprocess`")
        sources, targets, kinds, weights = map(_unpacked, _PACKED, texts)
        if len({sources.size, targets.size, kinds.size, weights.size}) > 1:
            raise ModelError("graph columns sources, targets, kinds and weights must be"
                             " of one length")
        # read as unsigned, a negative index or kind code is past every valid one
        if sources.size and max(sources.view("<u4").max(),
                                targets.view("<u4").max()) >= len(vertices):
            raise ModelError(f"graph edge vertex indexes must be integers from 0 to"
                             f" {len(vertices) - 1}")
        for code in kinds[kinds.view(np.uint8) > PR][:1].tolist():
            raise ModelError(f"graph edge kind code {code} is neither P-P ({PP}) nor"
                             f" P-R ({PR})")
        if not np.isfinite(weights).all():
            raise ModelError("graph edge weights must be finite floats")
        return cls(vertices, sources, targets, kinds, weights)


def _unpacked(name: str, text: Any) -> np.ndarray:
    """The read-only values of the artifact's graph column ``name``; ModelError
    unless ``text`` is base64 of whole ``_PACKED[name]`` values."""
    if type(text) is not str:
        raise ModelError(f"graph column {name} must be a base64 string")
    try:
        raw = base64.b64decode(text, validate=True)
    except ValueError:  # binascii.Error, or a character that is not ASCII
        raise ModelError(f"graph column {name} is not valid base64") from None
    width = _PACKED[name].itemsize
    if len(raw) % width:
        raise ModelError(f"graph column {name} holds {len(raw)} bytes, not a whole"
                         f" number of {width}-byte values")
    return np.frombuffer(raw, _PACKED[name])


def build_similarity_graph(
    library: Sequence[FunctionSchema], embedder, threshold: float
) -> ApiGraph:
    """P-P edge when two functions share a similar input parameter; P-R edge
    u -> v when a return field of u resembles an input parameter of v. Edge
    weight is the maximum similarity rounded to 12 decimals, kept if at least
    ``threshold``; edges come P-P first, then P-R, each in library order of
    (u, v). The cosines are taken ``GRAPH_BLOCK`` functions at a time, so the
    peak is O(block · sentences + edges), never sentences² or functions².
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
    unit = unit_rows(embedder.embed(texts), allow_zero=True) if texts else None

    def owners_and_rows(side: list[tuple[int, str]]) -> np.ndarray:  # owners ascend
        return np.array([(o, row_of[t]) for o, t in side], dtype=np.intp).reshape(-1, 2).T

    def run_starts(owners: np.ndarray) -> np.ndarray:
        return np.flatnonzero(owners != np.concatenate(([-1], owners[:-1])))

    p_owners, p_rows = owners_and_rows(params)
    vs = p_owners[p_starts := run_starts(p_owners)]
    columns: list[list[np.ndarray]] = [[np.empty(0, dtype)] for dtype in _COLUMNS.values()]
    for kind, side in (PP, params), (PR, returns):
        owners, rows = owners_and_rows(side)
        bounds = [*run_starts(owners // GRAPH_BLOCK), len(owners)]
        for i, j in zip(bounds[:-1], bounds[1:]):
            starts = run_starts(owners[i:j])
            # cosines with the distinct sentences, gathered to the parameter
            # rows; the clip commutes with the maxima, so it is taken after them
            best = np.clip(np.maximum.reduceat(np.maximum.reduceat(
                (unit[rows[i:j]] @ unit.T)[:, p_rows], starts, axis=0), p_starts, axis=1), -1, 1)
            us = owners[i + starts][:, None]
            # rounding moves a maximum by under 1e-12 and keeps the order, so
            # only maxima above that far below the threshold are rounded
            r, c = np.nonzero((best >= threshold - 1e-12) & (vs > us if kind == PP else vs != us))
            weights = round12(best[r, c])
            kinds = np.full(r.size, kind, np.int8)
            for column, values in zip(columns, (us[r, 0], vs[c], kinds, weights)):
                column.append(values[weights >= threshold])
    # each column's parts go before the next join: at most one is held twice
    joined = [np.concatenate(columns.pop(0)) for _ in range(len(columns))]
    for column in joined:  # so that the graph keeps them, not a copy
        column.flags.writeable = False
    return ApiGraph(tuple(fn.name for fn in library), *joined)


# ---------------------------------------------------------------------------
# Artifact persistence


def write_artifact(
    path: str | Path,
    library: Sequence[FunctionSchema],
    groups: GroupIndex,
    pools: ApiPools,
    graph: ApiGraph,
    config: dict[str, Any],
) -> None:
    """Persist everything `generate` needs so it can run without recomputation."""
    doc = {
        "library": [fn.to_dict() for fn in library],
        "groups": groups.to_dicts(),
        "pools": pools.to_dict(),
        "graph": graph.to_dict(),
        "config": config,
    }
    # compact, so the C encoder writes it (an indent takes the Python one);
    # encoded in full before a file is opened, then swapped in whole, so a
    # failed or interrupted write leaves the previous artifact as it was
    data = (json.dumps(doc, ensure_ascii=False, sort_keys=True) + "\n").encode("utf-8")
    tmp = Path(f"{path}.tmp")
    tmp.write_bytes(data)
    os.replace(tmp, path)


def _check_pools_and_groups(library: Sequence[FunctionSchema], groups: GroupIndex,
                            pools: ApiPools) -> None:
    """ModelError unless every pool entry is a library function and every
    library parameter is in exactly one group (GroupIndex refuses a second),
    one of its own category, every group member is a library parameter, the
    group ids, which key the checkpoint's trackers, are distinct strings, and
    each NUMERICAL or STRING tracker value is one its group can place."""
    names = {fn.name for fn in library}
    for pool, members in pools.to_dict().items():
        for name in filterfalse(names.__contains__, members):
            raise ModelError(f"the {pool} API pool names {name!r}, not a library function")
    categories = {(fn.name, p.name): p.category for fn in library for p in fn.parameters}
    ids: set[str] = set()
    admit = {ParamCategory.NUMERICAL: numeric_value, ParamCategory.STRING: text_value}
    for g in groups.groups:
        if not isinstance(g.id, str) or g.id in ids:
            raise ModelError(f"group ids must be distinct strings, not {g.id!r}")
        ids.add(g.id)
        for member in g.members:
            if member not in categories:
                raise ModelError(f"group {g.id} holds {member}, not a library parameter")
            if categories.pop(member) is not g.category:
                raise ModelError(f"group {g.id} is {g.category.value}, but its member"
                                 f" {member} is not")
        for value in g.tracker if g.category in admit else ():
            try:
                admit[g.category](value)
            except UnusableValue as exc:
                raise ModelError(f"group {g.id}'s tracker: {exc}") from None
    for member in categories:
        raise ModelError(f"no group holds the library parameter {member}")


def read_artifact(path: str | Path) -> tuple[list[FunctionSchema], GroupIndex, ApiPools, ApiGraph, dict]:
    """What ``write_artifact`` stored at ``path``. A file it could not have
    written (not JSON, an entry missing or malformed, graph edges in an older
    form, a graph vertex, pool entry or group member that is not the
    library's, a library parameter in no group or in a group of another
    category, a group id that is not a string or repeats) raises ModelError
    naming ``path``."""
    try:
        # read as bytes: a text-mode read, newline translation included, takes
        # about as long as the parse
        doc = json.loads(Path(path).read_bytes().decode("utf-8"))
        graph = ApiGraph.from_dict(doc["graph"])
        library = parse_function_library(doc["library"])
        if graph.vertices != tuple(fn.name for fn in library):
            raise ModelError("the graph's vertices are not the library's functions")
        groups, pools = GroupIndex.from_dicts(doc["groups"]), ApiPools.from_dict(doc["pools"])
        _check_pools_and_groups(library, groups, pools)
        return library, groups, pools, graph, doc.get("config", {})
    except KeyError as exc:
        raise ModelError(f"cannot read artifact {path}: no {exc} entry") from exc
    except (TypeError, ValueError, RecursionError) as exc:  # ModelError is a ValueError
        raise ModelError(f"cannot read artifact {path}: {exc}") from exc
