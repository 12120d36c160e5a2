"""Choosing the execution type and target function(s) for each example.

Single-function examples draw uniformly from one of the three API pools;
multi-function examples ride a biased random walk on the similarity graph whose
length is 2 plus a Poisson draw. All draws come from one caller-supplied RNG
stream in documented order, so runs replay exactly under a fixed seed.
"""

from __future__ import annotations

import json
import math
import random
from typing import Mapping, Sequence

import numpy as np

from divgen.metrics.semantic import cosine_matrix
from divgen.model import ExecutionType, FunctionSchema, ModelError, RunConfig
from divgen.preprocess import PR, ApiGraph, ApiPools, weighted_pick
from divgen.providers import catalog
from divgen.providers.base import SignatureClient
from divgen.providers.signature import SignatureParseError


WALK_LAMBDA = 0.75    # Poisson rate; walk length = draw + 2
WALK_EDGE_BIAS = 3.0  # weight multiplier for the edge kind a walk favors
WALK_RETRIES = 16     # starts per walk; draws per MISSING_PARAMS function


class SamplingFailure(RuntimeError):
    """The caller should re-draw: the current attempt cannot be completed."""


def sample_execution_type(config: RunConfig, rng: random.Random) -> ExecutionType:
    """Categorical draw from the configured mixture weights, which RunConfig
    keeps nonnegative with a positive sum."""
    weighted = [(ExecutionType(name), w) for name, w in config.type_weights.items() if w > 0]
    return weighted_pick([t for t, _ in weighted], [w for _, w in weighted], rng)


def check_reachable_types(config: RunConfig, graph: ApiGraph) -> None:
    """Raise ``ModelError`` when the type weights draw a multi-function type
    that no walk on ``graph`` can serve: PARALLEL or SEQUENTIAL with no walk
    start, or SEQUENTIAL with no P-R edge between two functions, since a
    SEQUENTIAL walk must take one."""
    drawn = {t for t, w in config.type_weights.items() if w > 0}
    if not graph.starts and drawn & {"PARALLEL", "SEQUENTIAL"}:
        raise ModelError("PARALLEL and SEQUENTIAL examples need a similarity graph edge,"
                         " and this artifact's graph has none; set their type_weights to 0")
    if "SEQUENTIAL" in drawn and not np.any(
            (graph.kinds == PR) & (graph.sources != graph.targets)):
        raise ModelError("SEQUENTIAL examples need a P-R edge (a return value that feeds"
                         " another function's parameter), and this artifact's graph has"
                         " none; set the SEQUENTIAL type weight to 0")


def sample_single_api(
    pools: ApiPools, by_name: Mapping[str, FunctionSchema], rng: random.Random
) -> FunctionSchema:
    """Uniformly pick one of the non-empty pools, then uniformly pick a function."""
    candidates = [p for p in (pools.general, pools.focused, pools.other) if p]
    if not candidates:
        raise SamplingFailure("all API pools are empty")
    pool = candidates[rng.randrange(len(candidates))]
    return by_name[pool[rng.randrange(len(pool))]]


def poisson_draw(lam: float, rng: random.Random) -> int:
    """Knuth inversion; consumes one rng.random() per increment."""
    limit = math.exp(-lam)
    k = 0
    p = 1.0
    while True:
        p *= rng.random()
        if p <= limit:
            return k
        k += 1


def sample_walk(graph: ApiGraph, exec_type: ExecutionType, rng: random.Random) -> list[str]:
    """Simple (no-repeat) biased walk; length = Poisson(WALK_LAMBDA) + 2.

    PARALLEL favors P-P edges, SEQUENTIAL favors P-R edges (multiplier
    ``WALK_EDGE_BIAS``); SEQUENTIAL walks respect P-R direction and must
    traverse at least one P-R edge. Raises SamplingFailure after
    ``WALK_RETRIES`` starts.
    """
    if exec_type not in (ExecutionType.PARALLEL, ExecutionType.SEQUENTIAL):
        raise ValueError("sample_walk serves PARALLEL and SEQUENTIAL only")
    favored = "P-P" if exec_type is ExecutionType.PARALLEL else "P-R"
    if not graph.weights.size:
        raise SamplingFailure("similarity graph has no usable edges")

    length = poisson_draw(WALK_LAMBDA, rng) + 2

    def neighbors(node: str, visited: set[str]) -> list[tuple[str, str, float]]:
        out: list[tuple[str, str, float]] = []
        for target, w in graph.pp_neighbors(node):
            if target not in visited:
                out.append((target, "P-P", w))
        for target, w in graph.pr_successors(node):
            if target not in visited:
                out.append((target, "P-R", w))
        return out

    starts = graph.starts
    if not starts:
        raise SamplingFailure("no vertex has outgoing edges")

    for _ in range(WALK_RETRIES):
        walk = [starts[rng.randrange(len(starts))]]
        kinds: list[str] = []
        while len(walk) < length:
            options = neighbors(walk[-1], set(walk))
            if not options:
                break
            weights = [WALK_EDGE_BIAS if kind == favored else 1.0 for _, kind, _ in options]
            picked = weighted_pick(options, weights, rng)
            walk.append(picked[0])
            kinds.append(picked[1])
        if len(walk) != length:
            continue
        if exec_type is ExecutionType.SEQUENTIAL and "P-R" not in kinds:
            continue
        return walk
    raise SamplingFailure(f"could not extend a {exec_type.value} walk to length {length}")


def check_pairwise_similarity(
    functions: Sequence[FunctionSchema], embedder, threshold: float
) -> bool:
    """Accept when the mean pairwise cosine of 'name: description' texts,
    rounded to 12 decimals, clears the threshold (a text that embeds to zero
    has cosine 0). A single function is accepted vacuously."""
    if len(functions) < 2:
        return True
    texts = [f"{fn.name}: {fn.description}" for fn in functions]
    sim = cosine_matrix(embedder.embed(texts), allow_zero=True)
    return round(float(np.mean(sim[np.triu_indices(len(texts), k=1)])), 12) >= threshold


def validate_sequential_schema_compatibility(
    schemas: Sequence[FunctionSchema], client: SignatureClient
) -> tuple[bool, str]:
    """Ask the compatibility judge whether the chain is feasible at schema level."""
    if len(schemas) < 2:
        raise ValueError("a sequential chain needs at least two schemas")
    sig = catalog.get("ValidateSequentialSchemaCompatibility")
    inputs = {"api_schemas": json.dumps([s.to_dict() for s in schemas], ensure_ascii=False)}
    try:
        out = client.call(sig, inputs)
    except SignatureParseError as exc:
        raise SamplingFailure(f"compatibility judge unparseable: {exc}") from exc
    verdict = out.get("is_compatible", "").strip().upper()
    return verdict == "YES", out.get("reasoning", "")
