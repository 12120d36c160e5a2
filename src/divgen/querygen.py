"""Iterative query generation: propose, judge, rank by marginal diversity.

Each example runs up to five rounds of five candidates. Candidates surviving
the execution-type judge pool up across rounds; the pool is re-ranked every
round by fusing eight per-metric marginal-diversity orderings with reciprocal
rank fusion, and the global top is kept. The corpus does not change during an
example, so its metric state is built once per example and each distinct
candidate is scored once against it, however many rounds re-rank it.
Candidates without a single word token cannot be scored and never enter the
pool. Feedback between rounds foregrounds judge failures when most candidates
failed, diversity guidance otherwise.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from typing import Any, Sequence

from divgen.metrics.battery import (  # evaluate_battery: bench/spans.py wraps this name
    OPTIMIZED_METRICS,
    EmbeddingCache,
    MarginalScorer,
    evaluate_battery,
)
from divgen.metrics.fusion import rrf_fuse
from divgen.metrics.text import tokenize
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


def _provided_arguments(skeleton: ExampleSkeleton) -> dict[str, Any]:
    args = skeleton.arguments[0] if skeleton.arguments else {}
    return {k: v for k, v in args.items() if k not in skeleton.omitted}


def _generator_inputs(skeleton: ExampleSkeleton, guidance: str,
                      attempts: str) -> tuple[str, dict[str, str]]:
    et = skeleton.execution_type
    if et is ExecutionType.NONE:
        return "NoAPIQueryGenerator", {
            "dataset_guidance": guidance,
            "previous_attempts": attempts,
        }
    schemas = [s.to_dict() for s in skeleton.schemas]
    argmaps = [dict(a) for a in skeleton.arguments]
    if et is ExecutionType.SINGLE:
        return "MultiQueryGenerator", {
            "api_schema": json.dumps(schemas[0], ensure_ascii=False),
            "target_parameters": json.dumps(argmaps[0], ensure_ascii=False),
            "dataset_guidance": guidance,
            "previous_attempts": attempts,
        }
    if et is ExecutionType.MISSING_PARAMS:
        return "MissingParamsQueryGenerator", {
            "api_schema": json.dumps(schemas[0], ensure_ascii=False),
            "provided_parameters": json.dumps(_provided_arguments(skeleton),
                                              ensure_ascii=False),
            "missing_parameters": json.dumps(list(skeleton.omitted), ensure_ascii=False),
            "dataset_guidance": guidance,
            "previous_attempts": attempts,
        }
    if et is ExecutionType.PARALLEL:
        return "ParallelQueryGenerator", {
            "api_schemas": json.dumps(schemas, ensure_ascii=False),
            "target_parameters_list": json.dumps(argmaps, ensure_ascii=False),
            "dataset_guidance": guidance,
            "previous_attempts": attempts,
        }
    return "SequentialQueryGenerator", {
        "api_schemas": json.dumps(schemas, ensure_ascii=False),
        "target_parameters_list": json.dumps(argmaps, ensure_ascii=False),
        "return_values_list": json.dumps(list(skeleton.return_values), ensure_ascii=False),
        "dataset_guidance": guidance,
        "previous_attempts": attempts,
    }


def _judge_inputs(skeleton: ExampleSkeleton, query_payload: str) -> tuple[str, dict[str, str]]:
    et = skeleton.execution_type
    schemas = [s.to_dict() for s in skeleton.schemas]
    argmaps = [dict(a) for a in skeleton.arguments]
    if et is ExecutionType.SINGLE:
        return "APIQueryJudge", {
            "query": query_payload,
            "api_schema": json.dumps(schemas[0], ensure_ascii=False),
            "target_parameters": json.dumps(argmaps[0], ensure_ascii=False),
        }
    if et is ExecutionType.MISSING_PARAMS:
        return "MissingParamsQueryJudge", {
            "query": query_payload,
            "api_schema": json.dumps(schemas[0], ensure_ascii=False),
            "provided_parameters": json.dumps(_provided_arguments(skeleton),
                                              ensure_ascii=False),
            "missing_parameters": json.dumps(list(skeleton.omitted), ensure_ascii=False),
        }
    if et is ExecutionType.PARALLEL:
        return "ParallelQueryJudge", {
            "query": query_payload,
            "api_schemas": json.dumps(schemas, ensure_ascii=False),
            "target_parameters_list": json.dumps(argmaps, ensure_ascii=False),
        }
    return "SequentialQueryJudge", {
        "query": query_payload,
        "api_schemas": json.dumps(schemas, ensure_ascii=False),
        "target_parameters_list": json.dumps(argmaps, ensure_ascii=False),
        "return_values_list": json.dumps(list(skeleton.return_values), ensure_ascii=False),
    }


def judge_queries(
    candidates: Sequence[str],
    skeleton: ExampleSkeleton,
    client: SignatureClient,
    batched: bool = True,
) -> list[JudgeVerdict]:
    """Per-candidate validity verdicts; NONE examples need no judging at all.

    Batched mode sends all candidates as one JSON array in the ``query`` field
    and expects a JSON array of YES/NO verdicts back; any shape mismatch falls
    back to per-candidate calls.
    """
    if skeleton.execution_type is ExecutionType.NONE:
        return [JudgeVerdict(True, "no verification required") for _ in candidates]
    if not candidates:
        return []
    if batched and len(candidates) > 1:
        sig_name, inputs = _judge_inputs(
            skeleton, json.dumps(list(candidates), ensure_ascii=False))
        try:
            out = client.call(catalog.get(sig_name), inputs)
            verdicts = json.loads(out["is_reasonable"])
            if isinstance(verdicts, list) and len(verdicts) == len(candidates):
                reason = out.get("reasoning", "")
                return [JudgeVerdict(str(v).strip().upper() == "YES", reason)
                        for v in verdicts]
        except (SignatureParseError, json.JSONDecodeError):
            pass
    results = []
    for cand in candidates:
        sig_name, inputs = _judge_inputs(skeleton, cand)
        try:
            out = client.call(catalog.get(sig_name), inputs)
            verdict = out["is_reasonable"].strip().upper() == "YES"
            results.append(JudgeVerdict(verdict, out.get("reasoning", "")))
        except SignatureParseError:
            results.append(JudgeVerdict(False, "parse failure"))
    return results


def rank_candidates_by_diversity(
    scorer: MarginalScorer,
    candidates: Sequence[str],
    k: int = 60,
) -> tuple[list[str], dict[str, dict[str, int]], dict[str, float]]:
    """Order candidates by fused marginal diversity.

    Each candidate is scored by the eight optimized metrics of the scorer's
    corpus plus that candidate; per-metric descending orderings feed reciprocal
    rank fusion. Returns (ordering, per-candidate per-metric ranks, fused scores).
    """
    pool = list(dict.fromkeys(candidates))
    if not pool:
        raise ValueError("no candidates to rank")
    values = {cand: scorer.score(cand) for cand in pool}

    rankings: list[list[str]] = []
    per_metric_rank: dict[str, dict[str, int]] = {c: {} for c in pool}
    for metric in OPTIMIZED_METRICS:
        order = sorted(range(len(pool)),
                       key=lambda i: (-values[pool[i]][metric], i))
        ranking = [pool[i] for i in order]
        rankings.append(ranking)
        for rank, cand in enumerate(ranking, start=1):
            per_metric_rank[cand][metric] = rank
    scores, fused = rrf_fuse(pool, rankings, k=k)
    return fused, per_metric_rank, scores


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
    last_error: str = field(default="", init=False)

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
        sig_name, _ = _generator_inputs(skeleton, "", "")
        sig = catalog.get(sig_name)
        guidance_text = self._dataset_guidance(dataset_queries, skeleton)
        scorer = MarginalScorer(dataset_queries, self.embed_cache)
        attempts_log: list[str] = []
        pool: list[str] = []
        pool_reasons: dict[str, str] = {}
        pool_round: dict[str, int] = {}
        best: str | None = None
        best_ranks: dict[str, int] = {}
        rounds_run = 0

        for round_no in range(1, self.config.rounds + 1):
            rounds_run = round_no
            attempts = "\n".join(attempts_log) if attempts_log else "None"
            _, inputs = _generator_inputs(skeleton, guidance_text, attempts)
            try:
                out = self.client.call(sig, inputs)
            except SignatureParseError as exc:
                self.last_error = str(exc)
                attempts_log.append(f"[round {round_no}] generation failed: {exc}")
                continue
            candidates = [out[f"query_{i}"] for i in range(1, 6)
                          if out.get(f"query_{i}", "").strip()]
            candidates = candidates[: self.config.candidates_per_round]
            for cand in candidates:
                if not tokenize(cand):
                    attempts_log.append(
                        f"[round {round_no}] {cand} -- left out: no word tokens to score")
            candidates = [c for c in candidates if tokenize(c)]
            verdicts = judge_queries(candidates, skeleton, self.client,
                                     self.config.batch_judging)
            for cand, verdict in zip(candidates, verdicts):
                attempts_log.append(
                    f"[round {round_no}] {cand} -- judged"
                    f" {'valid' if verdict.valid else 'invalid'}: {verdict.reasoning}")
                if verdict.valid and cand not in pool_reasons:
                    pool.append(cand)
                    pool_reasons[cand] = verdict.reasoning
                    pool_round[cand] = round_no

            if pool:
                rank_input = pool if self.config.cumulative_ranking else [
                    c for c in candidates if c in pool_reasons]
                if rank_input:
                    fused, ranks, _ = rank_candidates_by_diversity(
                        scorer, rank_input, self.config.rrf_k)
                    best = fused[0]
                    best_ranks = ranks[best]
                    attempts_log.append(
                        f"[round {round_no}] diversity ranking: "
                        + " > ".join(fused))
            if round_no < self.config.rounds:
                feedback = build_feedback(verdicts, pool, self.client)
                if feedback:
                    attempts_log.append(f"[round {round_no}] guidance: {feedback}")

        if best is None:
            return None
        return QueryResult(
            query=best,
            round_found=pool_round.get(best, rounds_run),
            judge_reasoning=pool_reasons.get(best, ""),
            per_metric_ranks=best_ranks,
            rounds_run=rounds_run,
            pool_size=len(pool),
        )
