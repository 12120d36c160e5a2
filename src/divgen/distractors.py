"""Hard-negative candidate selection: retrieve, rate, filter, cut at the elbow.

Distractors come from embedding retrieval over function descriptions (the
cosine of the query against them, a zero vector scoring 0, rounded to 12
decimals so exact ties break by library order; the run's embedding cache holds
their unit rows, and not their raw rows, from the first example on, under the
``FunctionLibrary``'s one description tuple, so an example normalises only its
query), survive only when an LLM rates them implausible as answers (<=2
generally, <=1 for MISSING_PARAMS), and are then cut at the point where
retrieval scores drop fastest. Targets are exempt from every filter; they can
shrink only when a validated alternative invocation shows some of them to be
redundant. The plausibility and alternative checks read the library's one
name map.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Mapping, Sequence

from divgen.metrics.battery import EmbeddingCache
from divgen.metrics.semantic import round12, unit_rows
from divgen.model import ExecutionType, FunctionLibrary, FunctionSchema
from divgen.providers import catalog
from divgen.providers.base import SignatureClient
from divgen.providers.signature import SignatureParseError


RETRIEVAL_K = 20  # functions retrieved per example before the plausibility filter


class DistractorFailure(RuntimeError):
    """The example cannot get a valid candidate set; caller regenerates."""


PLAUSIBILITY_THRESHOLDS = {
    ExecutionType.SINGLE: 2,
    ExecutionType.NONE: 2,
    ExecutionType.PARALLEL: 2,
    ExecutionType.SEQUENTIAL: 2,
    ExecutionType.MISSING_PARAMS: 1,
}


@dataclass(frozen=True)
class ScoredCandidate:
    name: str
    retrieval_score: float
    plausibility: int | None = None
    is_target: bool = False


def retrieve_candidates(
    query: str,
    library: FunctionLibrary,
    embed_cache: EmbeddingCache,
    targets: Sequence[str] = (),
) -> list[ScoredCandidate]:
    """The ``RETRIEVAL_K`` functions whose descriptions are closest to the
    query by cosine similarity.

    Scores are rounded to 12 decimals, so scores that are equal in exact
    arithmetic compare equal whatever the summation order, and ties break by
    library order. A text that embeds to zero scores 0. Target functions are
    appended with their scores when they miss the top ``RETRIEVAL_K`` (a NONE
    example has no targets, so nothing is appended for it).
    """
    units = embed_cache.unit_matrix(library.descriptions, also=[query])
    query_unit = unit_rows(embed_cache.matrix([query]), allow_zero=True)
    scores = round12((units @ query_unit.T).clip(-1.0, 1.0)[:, 0])
    top = (-scores).argsort(kind="stable")[:RETRIEVAL_K].tolist()
    target_set = set(targets)
    missing = target_set - {library[i].name for i in top}
    if missing:
        top += [i for i, fn in enumerate(library) if fn.name in missing]
    return [ScoredCandidate(library[i].name, float(scores[i]),
                            is_target=library[i].name in target_set) for i in top]


def score_plausibility(
    query: str,
    candidates: Sequence[ScoredCandidate],
    targets: Sequence[str],
    exec_type: ExecutionType,
    by_name: Mapping[str, FunctionSchema],
    client: SignatureClient,
) -> list[ScoredCandidate]:
    """One 1-5 rating call for all the candidates, order-aligned with them.

    A misaligned or non-integer reply is retried once, then abandons."""
    if not candidates:
        return []
    multi = exec_type in (ExecutionType.PARALLEL, ExecutionType.SEQUENTIAL)
    sig = catalog.get("ParallelAPIRelevanceScorer" if multi else "BatchAPIRelevanceScorer")
    # each scorer takes its own target field from this one context
    inputs = {"query": query,
              "apis": json.dumps([by_name[c.name].to_dict() for c in candidates],
                                 ensure_ascii=False),
              "target_apis": json.dumps(list(targets), ensure_ascii=False),
              "target_api": targets[0] if targets else ""}

    last_error = ""
    for _ in range(2):
        try:
            out = client.call(sig, inputs)
            rows = json.loads(out["scores"])
        except (SignatureParseError, json.JSONDecodeError) as exc:
            last_error = str(exc)
            continue
        if not (isinstance(rows, list) and len(rows) == len(candidates)
                and all(isinstance(r, dict) and "score" in r for r in rows)):
            last_error = "scores misaligned with candidates"
            continue
        try:
            scores = [int(r["score"]) for r in rows]
        except (TypeError, ValueError, OverflowError):
            last_error = "non-integer score"
            continue
        return [ScoredCandidate(c.name, c.retrieval_score, plausibility=score,
                                is_target=c.is_target)
                for c, score in zip(candidates, scores)]
    raise DistractorFailure(f"plausibility scoring failed: {last_error}")


def filter_by_plausibility(
    scored: Sequence[ScoredCandidate], exec_type: ExecutionType
) -> list[ScoredCandidate]:
    """Keep targets unconditionally and non-targets at or below the threshold."""
    threshold = PLAUSIBILITY_THRESHOLDS[exec_type]
    kept = []
    for c in scored:
        if c.is_target:
            kept.append(c)
        elif c.plausibility is not None and c.plausibility <= threshold:
            kept.append(c)
    return kept


def elbow_cutoff(sorted_scores: Sequence[float], min_keep: int = 1) -> int:
    """How many leading entries to keep from a descending score list.

    With d_i = s_i - s_{i+1} and dd_i = d_i - d_{i-1}, the elbow sits at the
    first argmax of dd (the sharpest acceleration of the drop); indices up to
    and including it survive, floored at max(min_keep, 1). Fewer than three
    scores keep everything.
    """
    n = len(sorted_scores)
    if any(sorted_scores[i] < sorted_scores[i + 1] for i in range(n - 1)):
        raise ValueError("scores must be sorted descending")
    if n < 3:
        return n
    d = [sorted_scores[i] - sorted_scores[i + 1] for i in range(n - 1)]
    dd = [d[i] - d[i - 1] for i in range(1, len(d))]
    elbow = 1 + max(range(len(dd)), key=lambda i: (dd[i], -i))
    keep = elbow + 1
    return min(n, max(keep, min_keep, 1))


def parse_invocation_names(raw: str, known: Sequence[str]) -> list[str]:
    """Function names from '[name(arg=v, ...), name2(...)]' or a single call.

    Names may contain spaces; known names are matched preferentially so exotic
    characters survive.
    """
    text = raw.strip()
    if text in ("", "[]", "''", '""'):
        return []
    if text.startswith("[") and text.endswith("]"):
        text = text[1:-1]
    names: list[str] = []
    depth = 0
    start = 0
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "(":
            if depth == 0:
                candidate = text[start:i].strip().strip(",").strip()
                if candidate:
                    names.append(candidate)
            depth += 1
        elif ch == ")":
            depth = max(0, depth - 1)
            if depth == 0:
                start = i + 1
        i += 1
    return [_match_known(name, known) for name in names]


def _match_known(name: str, known: Sequence[str]) -> str:
    """``name`` itself when known, else the longest known name in it (earliest on ties)."""
    if name in known:
        return name
    return max((k for k in known if k in name), key=len, default=name)


@dataclass
class AlternativeOutcome:
    candidates: list[ScoredCandidate]
    targets: list[str]
    exec_type: ExecutionType
    invalid: bool = False
    note: str = ""


def validate_invocation_alternatives(
    query: str,
    kept: Sequence[ScoredCandidate],
    targets: Sequence[str],
    exec_type: ExecutionType,
    by_name: Mapping[str, FunctionSchema],
    client: SignatureClient,
) -> AlternativeOutcome:
    """For multi-call examples: look for a validated alternative invocation.

    An alternative using non-target candidates removes them; one that is a
    strict subset of the targets shrinks the targets (one left -> SINGLE, none
    left -> invalid); one naming a function outside them changes nothing.
    """
    if exec_type not in (ExecutionType.PARALLEL, ExecutionType.SEQUENTIAL):
        return AlternativeOutcome(list(kept), list(targets), exec_type)
    available = sorted({c.name for c in kept} | set(targets))
    available_payload = json.dumps([by_name[n].to_dict() for n in available],
                                   ensure_ascii=False)
    try:
        if exec_type is ExecutionType.PARALLEL:
            out = client.call(catalog.get("ConstructParallelInvocation"),
                              {"query": query, "available_apis": available_payload})
            invocation_apis = out["invocation_apis"]
            invocations = parse_invocation_names(invocation_apis, available)
        else:
            calls: list[str] = []
            for _ in range(len(available)):
                step = client.call(catalog.get("ConstructSequentialInvocation"), {
                    "query": query,
                    "available_apis": available_payload,
                    "invocations_up_to_this_point": json.dumps(calls, ensure_ascii=False),
                    "return_values_up_to_this_point": "[]",
                })
                nxt = step["next_api"].strip()
                if not nxt:
                    break
                calls.append(nxt)
            # a step may be a bare name or a call: its name is the text before "("
            steps = [c.split("(", 1)[0].strip() for c in calls]
            invocations = [_match_known(name, available) for name in steps if name]
            invocation_apis = json.dumps(calls, ensure_ascii=False)
        if not invocations:
            return AlternativeOutcome(list(kept), list(targets), exec_type)
        unknown = sorted(set(invocations) - set(available))
        if unknown:  # the validator would see only the known schemas
            return AlternativeOutcome(list(kept), list(targets), exec_type,
                                      note=f"alternative names unknown {unknown}; unchanged")
        # the sequential validator alone declares return_values_list
        verdict = client.call(catalog.get(
            "ValidateParallelInvocation" if exec_type is ExecutionType.PARALLEL
            else "ValidateSequentialInvocation"), {
            "query": query,
            "invocation_apis": invocation_apis,
            "api_schemas": json.dumps(
                [by_name[n].to_dict() for n in invocations],
                ensure_ascii=False),
            "return_values_list": "[]",
        })
    except SignatureParseError:
        return AlternativeOutcome(list(kept), list(targets), exec_type,
                                  note="alternative check unparseable; unchanged")

    if verdict["is_valid"].strip().upper() != "YES":
        return AlternativeOutcome(list(kept), list(targets), exec_type)
    alt = set(invocations)
    target_set = set(targets)
    if alt == target_set:
        return AlternativeOutcome(list(kept), list(targets), exec_type)
    extra = alt - target_set
    if extra:
        new_kept = [c for c in kept if c.name not in extra]
        return AlternativeOutcome(new_kept, list(targets), exec_type,
                                  note=f"removed ambiguous candidates: {sorted(extra)}")
    # strict subset of targets: shrink
    new_targets = [t for t in targets if t in alt]
    if not new_targets:
        return AlternativeOutcome(list(kept), [], exec_type, invalid=True,
                                  note="alternative empty; query invalid")
    new_type = ExecutionType.SINGLE if len(new_targets) == 1 else exec_type
    return AlternativeOutcome(list(kept), new_targets, new_type,
                              note=f"targets shrunk to {new_targets}")


def finalize(
    distractors: Sequence[str], targets: Sequence[str], rng: random.Random
) -> list[str]:
    """Union the targets with the kept distractors and shuffle under the seed."""
    final = list(targets) + [d for d in distractors if d not in set(targets)]
    rng.shuffle(final)
    return final


def assemble_candidates(
    query: str,
    targets: Sequence[str],
    exec_type: ExecutionType,
    library: FunctionLibrary,
    embed_cache: EmbeddingCache,
    client: SignatureClient,
    rng: random.Random,
) -> AlternativeOutcome:
    """The full per-example pipeline; the finalized shuffled list is left to the
    caller so target updates can be applied first."""
    retrieved = retrieve_candidates(query, library, embed_cache, targets)
    scored = score_plausibility(query, retrieved, targets, exec_type, library.by_name, client)
    kept = filter_by_plausibility(scored, exec_type)
    survivors = [c for c in kept if not c.is_target]
    if exec_type in (ExecutionType.PARALLEL, ExecutionType.SEQUENTIAL):
        min_keep = 2 * len(targets)
        if len(survivors) < min_keep:
            raise DistractorFailure(
                f"only {len(survivors)} distractor candidates for {len(targets)} targets")
    else:
        min_keep = 1
    survivors.sort(key=lambda c: -c.retrieval_score)
    n_keep = elbow_cutoff([c.retrieval_score for c in survivors], min_keep) if survivors else 0
    cut = survivors[:n_keep]
    outcome = validate_invocation_alternatives(
        query, cut, targets, exec_type, library.by_name, client)
    return outcome
