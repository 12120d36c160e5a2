"""Iterative query generation: propose, judge, rank by marginal diversity.

Each example runs up to five rounds of five candidates. Candidates surviving
the execution-type judge pool up across rounds; the pool is re-ranked every
round by reciprocal rank fusion of its eight per-metric marginal-diversity
ranks, taken from one score matrix, and the global top is kept. The corpus
only grows, so the run keeps one ``MarginalScorer`` for it: built at the first
example, and grown at the start of each example by each query accepted since,
each recorded once, after which its Vendi kernel is decomposed once. The
corpus does not change during an example, so each distinct candidate is
scored once against it, however many rounds re-rank it; a round's new
candidates are scored together as one batch. Each candidate is read once:
the scorer's reading of it filters the pool, scores it, and, once it is
accepted, enters the corpus. Candidates without a single word token cannot
be scored and never enter the pool. Feedback between rounds foregrounds
judge failures when most candidates failed, diversity guidance otherwise.
The example's prompt fields are built once from its skeleton; each generator
and judge signature takes the fields it declares from that one context.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from typing import Any, Sequence

import numpy as np

from divgen.metrics.battery import (  # evaluate_battery: bench/spans.py wraps this name
    OPTIMIZED_METRICS,
    EmbeddingCache,
    MarginalScorer,
    evaluate_battery,
)
from divgen.metrics.fusion import rrf_fuse
from divgen.metrics.semantic import round12
from divgen.model import ExecutionType, FunctionSchema, RunConfig
from divgen.providers import catalog
from divgen.providers.base import SignatureClient
from divgen.providers.signature import SignatureParseError


@dataclass
class ExampleSkeleton:
    """Everything decided before the query exists."""

    execution_type: ExecutionType
    schemas: tuple[FunctionSchema, ...] = ()
    arguments: tuple[dict[str, Any], ...] = ()
    return_values: tuple[Any, ...] = ()
    omitted: tuple[str, ...] = ()
    none_kind: str = "vague"  # "vague" or "no-api"


@dataclass
class QueryResult:
    query: str
    round_found: int
    judge_reasoning: str
    per_metric_ranks: dict[str, int]
    rounds_run: int
    pool_size: int


@dataclass
class JudgeVerdict:
    valid: bool
    reasoning: str


_GENERATORS = {
    ExecutionType.SINGLE: "MultiQueryGenerator",
    ExecutionType.PARALLEL: "ParallelQueryGenerator",
    ExecutionType.SEQUENTIAL: "SequentialQueryGenerator",
    ExecutionType.MISSING_PARAMS: "MissingParamsQueryGenerator",
    ExecutionType.NONE: "NoAPIQueryGenerator",
}

_JUDGES = {
    ExecutionType.SINGLE: "APIQueryJudge",
    ExecutionType.PARALLEL: "ParallelQueryJudge",
    ExecutionType.SEQUENTIAL: "SequentialQueryJudge",
    ExecutionType.MISSING_PARAMS: "MissingParamsQueryJudge",
}


def _skeleton_fields(skeleton: ExampleSkeleton) -> dict[str, str]:
    """Every prompt field the skeleton can fill; each generator and judge
    signature takes the ones it declares."""
    schemas = [s.to_dict() for s in skeleton.schemas]
    argmaps = [dict(a) for a in skeleton.arguments]
    provided = {k: v for k, v in (argmaps[0] if argmaps else {}).items()
                if k not in skeleton.omitted}
    fields = {
        "api_schemas": json.dumps(schemas, ensure_ascii=False),
        "target_parameters_list": json.dumps(argmaps, ensure_ascii=False),
        "provided_parameters": json.dumps(provided, ensure_ascii=False),
        "missing_parameters": json.dumps(list(skeleton.omitted), ensure_ascii=False),
        "return_values_list": json.dumps(list(skeleton.return_values), ensure_ascii=False),
    }
    if schemas:
        fields["api_schema"] = json.dumps(schemas[0], ensure_ascii=False)
        fields["target_parameters"] = json.dumps(argmaps[0], ensure_ascii=False)
    return fields


def judge_queries(
    candidates: Sequence[str],
    skeleton: ExampleSkeleton,
    client: SignatureClient,
    fields: dict[str, str] | None = None,
) -> list[JudgeVerdict]:
    """Per-candidate validity verdicts; NONE examples need no judging at all.

    Several candidates go out as one JSON array in the ``query`` field, and a
    JSON array of YES/NO verdicts is expected back; any shape mismatch falls
    back to per-candidate calls. ``fields``: the skeleton's, if built already.
    """
    if skeleton.execution_type is ExecutionType.NONE:
        return [JudgeVerdict(True, "no verification required") for _ in candidates]
    if not candidates:
        return []
    sig = catalog.get(_JUDGES[skeleton.execution_type])
    fields = _skeleton_fields(skeleton) if fields is None else fields
    if len(candidates) > 1:
        try:
            out = client.call(sig, {
                **fields, "query": json.dumps(list(candidates), ensure_ascii=False)})
            verdicts = json.loads(out["is_reasonable"])
            if isinstance(verdicts, list) and len(verdicts) == len(candidates):
                reason = out.get("reasoning", "")
                return [JudgeVerdict(str(v).strip().upper() == "YES", reason)
                        for v in verdicts]
        except (SignatureParseError, json.JSONDecodeError):
            pass
    results = []
    for cand in candidates:
        try:
            out = client.call(sig, {**fields, "query": cand})
            verdict = out["is_reasonable"].strip().upper() == "YES"
            results.append(JudgeVerdict(verdict, out.get("reasoning", "")))
        except SignatureParseError:
            results.append(JudgeVerdict(False, "parse failure"))
    return results


def rank_candidates_by_diversity(
    scorer: MarginalScorer,
    candidates: Sequence[str],
) -> tuple[list[str], dict[str, dict[str, int]], dict[str, float]]:
    """Order candidates by fused marginal diversity.

    The scorer gives one matrix: a row per distinct candidate, in pool order,
    of the eight optimized metrics of its corpus plus that candidate. The
    matrix is rounded to 12 decimals once, so no rank hangs on the last bits
    of a score, and one stable argsort of its negation ranks every metric
    column best-first, ties broken by pool position. Reciprocal rank fusion
    of the resulting rank matrix gives the order.
    Returns (ordering, per-candidate per-metric ranks, fused scores).
    """
    pool = list(dict.fromkeys(candidates))
    if not pool:
        raise ValueError("no candidates to rank")
    order = np.argsort(-round12(scorer.score(pool)), axis=0, kind="stable")
    ranks = np.empty_like(order)
    ranks[order, np.arange(order.shape[1])] = np.arange(1, len(pool) + 1)[:, None]
    scores, fused = rrf_fuse(ranks)
    return ([pool[i] for i in fused],
            {c: dict(zip(OPTIMIZED_METRICS, row)) for c, row in zip(pool, ranks.tolist())},
            dict(zip(pool, scores)))


def build_feedback(
    judge_verdicts: Sequence[JudgeVerdict],
    ranked: Sequence[str],
    client: SignatureClient,
) -> str:
    """Strategic guidance for the next round, via the guidance signature.

    Judge reasonings lead when the failure rate is strictly above one half;
    otherwise the diversity ranking leads.
    """
    total = len(judge_verdicts)
    failures = sum(1 for v in judge_verdicts if not v.valid)
    failure_rate = failures / total if total else 0.0
    judge_lines = "\n".join(
        f"- {'FAIL' if not v.valid else 'pass'}: {v.reasoning}" for v in judge_verdicts)
    rank_lines = "\n".join(f"{i}. {q}" for i, q in enumerate(ranked, start=1))
    if failure_rate > 0.5:
        analysis = ("Validation problems dominate this round.\n"
                    f"Judge outcomes:\n{judge_lines}\n"
                    f"Diversity ranking (secondary):\n{rank_lines}")
    else:
        analysis = ("Most candidates validate; push diversity further.\n"
                    f"Diversity ranking (best first):\n{rank_lines}\n"
                    f"Judge outcomes (secondary):\n{judge_lines}")
    try:
        out = client.call(catalog.get("DiversityGuidanceGeneration"), {
            "dataset_sample": rank_lines or "(none)",
            "pattern_analysis": analysis,
        })
        return out["diversity_guidance"]
    except SignatureParseError:
        return analysis


def analyze_dataset_patterns(sample: Sequence[str], client: SignatureClient) -> str:
    """Periodic homogeneity analysis over a sample of accepted queries."""
    if not sample:
        return ""
    out = client.call(catalog.get("DatasetPatternAnalysis"), {
        "dataset_sample": "\n".join(sample),
        "diversity_context": f"{len(sample)} sampled queries from the growing dataset",
    })
    return out["pattern_analysis"]


def generate_diversity_guidance(sample: Sequence[str], patterns: str,
                                client: SignatureClient) -> str:
    if not sample or not patterns:
        return ""
    out = client.call(catalog.get("DiversityGuidanceGeneration"), {
        "dataset_sample": "\n".join(sample),
        "pattern_analysis": patterns,
    })
    return out["diversity_guidance"]


@dataclass
class QueryGenerator:
    client: SignatureClient
    embed_cache: EmbeddingCache
    rng: random.Random
    config: RunConfig
    guidance: str = ""
    _scorer: MarginalScorer | None = field(default=None, init=False, repr=False)

    def _dataset_guidance(self, dataset_queries: Sequence[str],
                          skeleton: ExampleSkeleton) -> str:
        refs = list(dataset_queries)
        sample = (self.rng.sample(refs, min(10, len(refs))) if refs else [])
        lines = ["Reference queries already in the dataset:"]
        lines += [f"- {q}" for q in sample] if sample else ["- (none yet)"]
        if self.guidance:
            lines += ["", "Diversity guidance:", self.guidance]
        if skeleton.execution_type is ExecutionType.NONE:
            if skeleton.none_kind == "vague":
                lines += ["", "Produce completely vague or chit-chat style requests"
                          " unrelated to any particular capability."]
            else:
                lines += ["", "Produce knowledge questions answerable directly,"
                          " with no external capability required."]
        return "\n".join(lines)

    def generate_query(
        self,
        skeleton: ExampleSkeleton,
        dataset_queries: Sequence[str],
    ) -> QueryResult | None:
        """Best judge-valid candidate across the configured rounds, or None."""
        sig = catalog.get(_GENERATORS[skeleton.execution_type])
        fields = _skeleton_fields(skeleton)
        guidance_text = self._dataset_guidance(dataset_queries, skeleton)
        if self._scorer is None:  # the run's one scorer, built here, not at set-up
            self._scorer = MarginalScorer((), self.embed_cache)
        self._scorer.sync(dataset_queries)
        attempts_log: list[str] = []
        pool_reasons: dict[str, str] = {}  # the judge-valid pool, in arrival order
        pool_round: dict[str, int] = {}
        best: str | None = None
        best_ranks: dict[str, int] = {}

        for round_no in range(1, self.config.rounds + 1):
            attempts = "\n".join(attempts_log) if attempts_log else "None"
            try:
                out = self.client.call(sig, {**fields, "dataset_guidance": guidance_text,
                                             "previous_attempts": attempts})
            except SignatureParseError as exc:
                attempts_log.append(f"[round {round_no}] generation failed: {exc}")
                continue
            candidates = [out[f"query_{i}"] for i in range(1, 6)
                          if out.get(f"query_{i}", "").strip()]
            scorable = [c for c in candidates if self._scorer.read(c).sentences]
            attempts_log.extend(f"[round {round_no}] {c} -- left out: no word tokens to score"
                                for c in candidates if c not in scorable)
            candidates = scorable
            verdicts = judge_queries(candidates, skeleton, self.client, fields)
            for cand, verdict in zip(candidates, verdicts):
                attempts_log.append(
                    f"[round {round_no}] {cand} -- judged"
                    f" {'valid' if verdict.valid else 'invalid'}: {verdict.reasoning}")
                if verdict.valid and cand not in pool_reasons:
                    pool_reasons[cand] = verdict.reasoning
                    pool_round[cand] = round_no

            if pool_reasons:
                fused, ranks, _ = rank_candidates_by_diversity(
                    self._scorer, list(pool_reasons))
                best = fused[0]
                best_ranks = ranks[best]
                attempts_log.append(
                    f"[round {round_no}] diversity ranking: " + " > ".join(fused))
            if round_no < self.config.rounds:
                feedback = build_feedback(verdicts, fused if pool_reasons else [], self.client)
                if feedback:
                    attempts_log.append(f"[round {round_no}] guidance: {feedback}")

        if best is None:
            return None
        return QueryResult(
            query=best,
            round_found=pool_round[best],
            judge_reasoning=pool_reasons[best],
            per_metric_ranks=best_ranks,
            rounds_run=self.config.rounds,
            pool_size=len(pool_reasons),
        )
