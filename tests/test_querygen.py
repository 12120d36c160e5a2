import json
import random

import pytest

from conftest import CountingEmbedder
from divgen.metrics.battery import (
    OPTIMIZED_METRICS,
    EmbeddingCache,
    MarginalScorer,
    evaluate_battery,
)
from divgen.metrics.fusion import rrf_fuse
from divgen.model import ExecutionType, RunConfig
from divgen.providers import catalog
from divgen.providers.base import SignatureClient
from divgen.providers.hash_embed import HashEmbedder
from divgen.providers.mock import ScriptedChat
from divgen.providers.signature import format_output
from divgen.querygen import (
    ExampleSkeleton,
    QueryGenerator,
    analyze_dataset_patterns,
    build_feedback,
    generate_diversity_guidance,
    judge_queries,
    JudgeVerdict,
    rank_candidates_by_diversity,
)
from test_fusion import rank_matrix
from test_preprocess import fn, param


DATASET = [
    "Look up tomorrow's forecast for Madrid before my flight.",
    "I want a short digest of sports news in French.",
    "Convert ninety dollars into yen for the trip.",
    "Sort my road trip playlist from newest to oldest.",
    "Which hotels near the old town have rooms tonight?",
]

CANDS = [
    "Could you check the weather in Reykjavik this weekend?",
    "Please fetch engagement numbers for that cooking clip.",
    "Plan a picnic menu around seasonal vegetables.",
    "What's the travel time for a two hundred kilometer drive?",
    "Summarize the quarterly earnings call in plain words.",
]


def single_skeleton():
    api = fn("demo_api", param("city", "names the city"),
             description="demo function")
    return ExampleSkeleton(
        execution_type=ExecutionType.SINGLE,
        schemas=(api,),
        arguments=({"city": "Reykjavik"},),
    )


def queries_reply(sig_name, queries):
    values = {"reasoning": "varied shapes"}
    values.update({f"query_{i + 1}": q for i, q in enumerate(queries)})
    return format_output(catalog.get(sig_name), values)


def judge_reply(valid=True, reasoning="fits the call"):
    return format_output(catalog.get("APIQueryJudge"),
                         {"reasoning": reasoning,
                          "is_reasonable": "YES" if valid else "NO"})


def guidance_reply(text="try terser phrasings"):
    return format_output(catalog.get("DiversityGuidanceGeneration"),
                         {"reasoning": "summarized", "diversity_guidance": text})


def batch_judge_reply(verdicts, reasoning="checked in one pass"):
    return format_output(catalog.get("APIQueryJudge"),
                         {"reasoning": reasoning,
                          "is_reasonable": json.dumps(verdicts)})


def make_qgen(chat, seed=0, **kw):
    config = RunConfig(rng_seed=seed, **kw)
    return QueryGenerator(SignatureClient(chat, 3, {}), EmbeddingCache(HashEmbedder()),
                          random.Random(seed), config)


def test_rank_single_candidate_is_rank_one():
    order, ranks, scores = rank_candidates_by_diversity(
        MarginalScorer(DATASET, EmbeddingCache(HashEmbedder())), [CANDS[0]])
    assert order == [CANDS[0]]
    assert all(r == 1 for r in ranks[CANDS[0]].values())
    assert scores[CANDS[0]] == pytest.approx(len(OPTIMIZED_METRICS) / 61)


def test_rank_novel_candidate_beats_duplicate():
    duplicate = DATASET[0]
    novel = "Assemble a bilingual glossary of nautical idioms, umlauts included."
    cache = EmbeddingCache(HashEmbedder())
    order, ranks, _ = rank_candidates_by_diversity(MarginalScorer(DATASET, cache),
                                                   [duplicate, novel])
    assert order[0] == novel
    # direct-oracle check on a few strictly-increasing metrics
    dup_scores = evaluate_battery(DATASET + [duplicate],
                                  cache.matrix(DATASET + [duplicate]))
    nov_scores = evaluate_battery(DATASET + [novel],
                                  cache.matrix(DATASET + [novel]))
    for metric in ("ttr", "chamfer", "vendi"):
        assert nov_scores[metric] > dup_scores[metric]


def test_rank_matches_direct_rrf_of_metric_orderings():
    cache = EmbeddingCache(HashEmbedder())
    order, _, scores = rank_candidates_by_diversity(MarginalScorer(DATASET, cache), CANDS)
    per_metric = {}
    for cand in CANDS:
        texts = DATASET + [cand]
        per_metric[cand] = evaluate_battery(texts, cache.matrix(texts))
    ranks = rank_matrix([[per_metric[c][metric] for c in CANDS] for metric in OPTIMIZED_METRICS])
    want_scores, want_order = rrf_fuse(ranks)
    assert order == [CANDS[i] for i in want_order]
    assert scores == dict(zip(CANDS, want_scores))


def test_generate_query_single_round_sufficient():
    chat = ScriptedChat()
    chat.script(queries_reply("MultiQueryGenerator", CANDS),
                signature="MultiQueryGenerator")
    chat.script(batch_judge_reply(["YES"] * 5), signature="APIQueryJudge")
    chat.script(guidance_reply(), signature="DiversityGuidanceGeneration")
    qgen = make_qgen(chat, rounds=1)
    result = qgen.generate_query(single_skeleton(), DATASET)
    assert result is not None
    order, _, _ = rank_candidates_by_diversity(
        MarginalScorer(DATASET, EmbeddingCache(HashEmbedder())), CANDS)
    assert result.query == order[0]
    assert result.pool_size == 5


def test_generate_query_all_rejected_returns_none():
    chat = ScriptedChat()
    chat.script(queries_reply("MultiQueryGenerator", CANDS),
                signature="MultiQueryGenerator")
    chat.script(batch_judge_reply(["NO"] * 5, "never matches"),
                signature="APIQueryJudge")
    chat.script(guidance_reply(), signature="DiversityGuidanceGeneration")
    qgen = make_qgen(chat)
    assert qgen.generate_query(single_skeleton(), DATASET) is None
    gen_calls = [c for c in chat.calls
                 if catalog.get("MultiQueryGenerator").objective in c]
    assert len(gen_calls) == 5  # all five rounds ran


def test_generate_query_deterministic():
    def run():
        chat = ScriptedChat()
        chat.script(queries_reply("MultiQueryGenerator", CANDS),
                    signature="MultiQueryGenerator")
        chat.script(batch_judge_reply(["YES", "NO", "YES", "NO", "YES"]),
                    signature="APIQueryJudge")
        chat.script(guidance_reply(), signature="DiversityGuidanceGeneration")
        qgen = make_qgen(chat, seed=4)
        return qgen.generate_query(single_skeleton(), DATASET)

    r1, r2 = run(), run()
    assert r1.query == r2.query
    assert r1.per_metric_ranks == r2.per_metric_ranks


def test_previous_attempts_accumulate_across_rounds():
    round_queries = {
        1: [f"first round query {i} alpha{i}" for i in range(5)],
        2: [f"second round query {i} beta{i}" for i in range(5)],
        3: [f"third round query {i} gamma{i}" for i in range(5)],
    }
    chat = ScriptedChat()
    chat.script([queries_reply("MultiQueryGenerator", round_queries[r])
                 for r in (1, 2, 3)], signature="MultiQueryGenerator")
    chat.script(batch_judge_reply(["YES"] * 5), signature="APIQueryJudge")
    chat.script(guidance_reply(), signature="DiversityGuidanceGeneration")
    qgen = make_qgen(chat, rounds=3)
    qgen.generate_query(single_skeleton(), DATASET)
    gen_calls = [c for c in chat.calls
                 if catalog.get("MultiQueryGenerator").objective in c]
    assert len(gen_calls) == 3
    # round 3's prompt carries both earlier candidate sets
    for q in round_queries[1] + round_queries[2]:
        assert q in gen_calls[2]
    assert "first round query 0 alpha0" not in gen_calls[0]


def test_judge_rounds_reuse_the_fields_built_once_per_example(monkeypatch):
    import divgen.querygen as querygen

    built = []
    real = querygen._skeleton_fields
    monkeypatch.setattr(querygen, "_skeleton_fields",
                        lambda skeleton: built.append(skeleton) or real(skeleton))
    extra = [f"Bonus request {w} for the archive." for w in
             ("alpha", "bravo", "charlie", "delta", "echo", "foxtrot")]
    rounds = [CANDS[:3], CANDS[2:5], [CANDS[0]] + extra[:2], extra[1:4], extra[3:] + [CANDS[4]]]
    chat = ScriptedChat()
    chat.script([queries_reply("MultiQueryGenerator", r) for r in rounds],
                signature="MultiQueryGenerator")
    chat.script([batch_judge_reply(["YES"] * len(r)) for r in rounds],
                signature="APIQueryJudge")
    chat.script(guidance_reply(), signature="DiversityGuidanceGeneration")
    make_qgen(chat, rounds=5).generate_query(single_skeleton(), DATASET)
    assert len(built) == 1
    judged = [c for c in chat.calls if catalog.get("APIQueryJudge").objective in c]
    assert len(judged) == len(rounds)
    for prompt, cands in zip(judged, rounds):
        fresh = ScriptedChat().script(batch_judge_reply(["YES"] * len(cands)),
                                      signature="APIQueryJudge")
        judge_queries(cands, single_skeleton(), SignatureClient(fresh, 3, {}))
        assert fresh.calls == [prompt]


def test_judge_none_type_needs_no_llm():
    chat = ScriptedChat()  # any call would raise
    skeleton = ExampleSkeleton(execution_type=ExecutionType.NONE)
    verdicts = judge_queries(CANDS, skeleton, SignatureClient(chat, 3, {}))
    assert all(v.valid for v in verdicts)
    assert chat.calls == []


def test_judge_batch_falls_back_per_candidate():
    chat = ScriptedChat()
    # batch reply misshapen (3 verdicts for 5 queries), then per-candidate YES
    chat.script([batch_judge_reply(["YES", "NO", "YES"]),
                 judge_reply(True), judge_reply(False, "off target"),
                 judge_reply(True), judge_reply(True), judge_reply(True)],
                signature="APIQueryJudge")
    verdicts = judge_queries(CANDS, single_skeleton(), SignatureClient(chat, 3, {}))
    assert [v.valid for v in verdicts] == [True, False, True, True, True]


def test_build_feedback_branches():
    ranked = ["a", "b"]

    def feedback_for(n_fail):
        chat = ScriptedChat()
        captured = {}

        def capture(prompt):
            captured["prompt"] = prompt
            return guidance_reply("guide")

        chat.script(capture, signature="DiversityGuidanceGeneration")
        verdicts = ([JudgeVerdict(False, "broken")] * n_fail
                    + [JudgeVerdict(True, "fine")] * (5 - n_fail))
        out = build_feedback(verdicts, ranked, SignatureClient(chat, 3, {}))
        return out, captured["prompt"]

    out, prompt = feedback_for(5)
    assert out == "guide"
    assert "Validation problems dominate" in prompt

    _, prompt = feedback_for(0)
    assert "push diversity further" in prompt

    # exactly half fails -> strict > 0.5 keeps the diversity branch
    chat = ScriptedChat()
    captured = {}
    chat.script(lambda p: captured.setdefault("prompt", p) and guidance_reply()
                or guidance_reply(), signature="DiversityGuidanceGeneration")
    verdicts = [JudgeVerdict(False, "x")] * 2 + [JudgeVerdict(True, "y")] * 2
    build_feedback(verdicts, ranked, SignatureClient(chat, 3, {}))
    assert "push diversity further" in captured["prompt"]


def test_pattern_analysis_plumbing():
    chat = ScriptedChat()
    chat.script_output("DatasetPatternAnalysis",
                       {"reasoning": "looked", "pattern_analysis": "too formal"})
    chat.script(guidance_reply("loosen the tone"),
                signature="DiversityGuidanceGeneration")
    client = SignatureClient(chat, 3, {})
    patterns = analyze_dataset_patterns(DATASET, client)
    assert patterns == "too formal"
    guidance = generate_diversity_guidance(DATASET, patterns, client)
    assert guidance == "loosen the tone"
    assert analyze_dataset_patterns([], client) == ""
    assert generate_diversity_guidance([], "x", client) == ""


def test_guidance_threaded_into_generator_prompt():
    chat = ScriptedChat()
    chat.script(queries_reply("MultiQueryGenerator", CANDS),
                signature="MultiQueryGenerator")
    chat.script(batch_judge_reply(["YES"] * 5), signature="APIQueryJudge")
    chat.script(guidance_reply(), signature="DiversityGuidanceGeneration")
    qgen = make_qgen(chat, rounds=1)
    qgen.guidance = "rotate personas often"
    qgen.generate_query(single_skeleton(), DATASET)
    gen_call = next(c for c in chat.calls
                    if catalog.get("MultiQueryGenerator").objective in c)
    assert "rotate personas often" in gen_call


def test_none_skeleton_uses_no_api_generator_and_ranks():
    chat = ScriptedChat()
    nones = ["What are the primary causes of climate change and their impact?",
             "How do tides work exactly?",
             "Why do cats purr at night?",
             "Explain inflation to a child.",
             "What makes sourdough rise?"]
    chat.script(queries_reply("NoAPIQueryGenerator", nones),
                signature="NoAPIQueryGenerator")
    chat.script(guidance_reply(), signature="DiversityGuidanceGeneration")
    skeleton = ExampleSkeleton(execution_type=ExecutionType.NONE, none_kind="no-api")
    qgen = make_qgen(chat, rounds=1)
    result = qgen.generate_query(skeleton, DATASET)
    assert result is not None
    assert result.query in nones
    order, _, _ = rank_candidates_by_diversity(
        MarginalScorer(DATASET, EmbeddingCache(HashEmbedder())), nones)
    assert result.query == order[0]


def test_cumulative_pool_lets_later_round_displace_earlier_best():
    dull = ["convert ninety dollars into yen for the trip today please",
            "convert eighty dollars into yen for the trip today please"]
    novel = ["Sketch a villanelle praising obsolete cartography instruments.",
             "Ju-jitsu brunch logistics: who carries the gong?"]
    chat = ScriptedChat()
    chat.script([queries_reply("MultiQueryGenerator", dull + [""] * 3),
                 queries_reply("MultiQueryGenerator", novel + [""] * 3)],
                signature="MultiQueryGenerator")
    chat.script(batch_judge_reply(["YES", "YES"]), signature="APIQueryJudge")
    chat.script(guidance_reply(), signature="DiversityGuidanceGeneration")
    qgen = make_qgen(chat, rounds=2)
    result = qgen.generate_query(single_skeleton(), DATASET)
    # the cumulative pool re-ranks rounds 1+2 together; a round-2 candidate wins
    assert result.query in novel
    assert result.round_found == 2
    assert result.pool_size == 4


def test_ranking_invariant_to_candidate_input_order():
    # tie-free triple: one shape-duplicate of a dataset query, one single
    # novel sentence, one two-sentence candidate
    cands = [
        "Fetch carrot prices into euros for the market",
        "Could you assemble a thorough comparison of overnight ferry routes,"
        " including prices?",
        "My grandmother's heirloom barometer needs recalibration. Walk me"
        " through the whole process slowly, please!",
    ]
    cache = EmbeddingCache(HashEmbedder())
    values = {c: evaluate_battery(DATASET + [c], cache.matrix(DATASET + [c]))
              for c in cands}
    for metric in OPTIMIZED_METRICS:
        col = sorted(values[c][metric] for c in cands)
        assert all(abs(col[i] - col[i - 1]) > 1e-12 for i in range(1, len(col)))
    forward, _, _ = rank_candidates_by_diversity(MarginalScorer(DATASET, cache), cands)
    backward, _, _ = rank_candidates_by_diversity(MarginalScorer(DATASET, cache),
                                                  list(reversed(cands)))
    assert forward == backward


def test_generate_query_scores_each_distinct_candidate_once(monkeypatch):
    scored = []
    evaluate = MarginalScorer._evaluate_batch

    def counting(self, candidates):
        scored.extend(candidates)
        return evaluate(self, candidates)

    monkeypatch.setattr(MarginalScorer, "_evaluate_batch", counting)
    extra = [f"Bonus request {w} for the archive." for w in
             ("alpha", "bravo", "charlie", "delta", "echo", "foxtrot")]
    rounds = [CANDS[:3], CANDS[2:5], [CANDS[0]] + extra[:2], extra[1:4], extra[3:] + [CANDS[4]]]
    chat = ScriptedChat()
    chat.script([queries_reply("MultiQueryGenerator", r) for r in rounds],
                signature="MultiQueryGenerator")
    chat.script([batch_judge_reply(["YES"] * len(r)) for r in rounds],
                signature="APIQueryJudge")
    chat.script(guidance_reply(), signature="DiversityGuidanceGeneration")
    embedder = CountingEmbedder()
    qgen = make_qgen(chat, rounds=5)
    qgen.embed_cache = EmbeddingCache(embedder)
    result = qgen.generate_query(single_skeleton(), DATASET)
    distinct = set(CANDS + extra)
    assert result.pool_size == len(distinct)
    assert sorted(scored) == sorted(distinct)
    # the corpus once, then one call per round, since every round brings new candidates
    seen = list(DATASET)
    expected = [DATASET]
    for r in rounds:
        expected.append([c for c in r if c not in seen])
        seen += r
    assert embedder.calls == expected


def test_tokenless_candidate_is_left_out_of_the_pool():
    tokenless = "你好吗？"
    chat = ScriptedChat()
    chat.script(queries_reply("MultiQueryGenerator", [tokenless, CANDS[0]]),
                signature="MultiQueryGenerator")
    chat.script(judge_reply(True), signature="APIQueryJudge")
    chat.script(guidance_reply(), signature="DiversityGuidanceGeneration")
    result = make_qgen(chat, rounds=2).generate_query(single_skeleton(), DATASET)
    assert result.query == CANDS[0]
    assert result.pool_size == 1
    later_prompt = [c for c in chat.calls
                    if catalog.get("MultiQueryGenerator").objective in c][1]
    assert f"{tokenless} -- left out: no word tokens to score" in later_prompt


def test_only_tokenless_candidates_abandon_the_attempt():
    chat = ScriptedChat()
    chat.script(queries_reply("MultiQueryGenerator", ["你好吗？", "¿¡…!?"]),
                signature="MultiQueryGenerator")
    chat.script(judge_reply(True), signature="APIQueryJudge")
    chat.script(guidance_reply(), signature="DiversityGuidanceGeneration")
    assert make_qgen(chat, rounds=2).generate_query(single_skeleton(), DATASET) is None
