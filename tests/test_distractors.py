import json
import random
from collections import Counter

import numpy as np
import pytest

from conftest import CountingEmbedder, templated_library
from divgen.distractors import (
    RETRIEVAL_K,
    DistractorFailure,
    ScoredCandidate,
    elbow_cutoff,
    filter_by_plausibility,
    finalize,
    parse_invocation_names,
    retrieve_candidates,
    score_plausibility,
    validate_invocation_alternatives,
)
from divgen.metrics.battery import EmbeddingCache
from divgen.metrics.semantic import cosine_matrix
from divgen.model import ExecutionType, FunctionLibrary
from divgen.providers import catalog
from divgen.providers.base import SignatureClient
from divgen.providers.mock import ScriptedChat
from divgen.providers.signature import format_output
from test_preprocess import fn, param


def tiny_library():
    return FunctionLibrary([
        fn("storm_watch", param("region", "name of the region to monitor"),
           description="track storms and heavy weather warnings for a region"),
        fn("picnic_plan", param("park", "name of the park"),
           description="plan an outdoor picnic with weather friendly timing"),
        fn("plant_care", param("species", "name of the house plant"),
           description="care reminders for potted house plants"),
    ])


def test_retrieve_small_library_returns_all(embedder):
    lib = tiny_library()
    got = retrieve_candidates("will the storm hit our region tomorrow",
                              lib, EmbeddingCache(embedder), targets=["storm_watch"])
    assert {c.name for c in got} == {f.name for f in lib}
    assert got[0].name == "storm_watch"  # most similar by shared tokens
    assert got[0].is_target


def test_retrieve_force_includes_missing_target(embedder):
    lib = FunctionLibrary(templated_library(3 * RETRIEVAL_K))
    cache = EmbeddingCache(embedder)
    query = f"{lib[0].description} tomorrow"
    top = [c.name for c in retrieve_candidates(query, lib, cache)]
    missing = next(f.name for f in lib if f.name not in top)
    got = retrieve_candidates(query, lib, cache, targets=[missing])
    assert [c.name for c in got] == top + [missing]
    assert [c.is_target for c in got] == [False] * RETRIEVAL_K + [True]


def test_retrieve_none_type_does_not_force(embedder):
    # a NONE example has no targets: retrieval stops at RETRIEVAL_K
    lib = FunctionLibrary(templated_library(3 * RETRIEVAL_K))
    got = retrieve_candidates("totally unrelated cosmic verse", lib, EmbeddingCache(embedder))
    assert len(got) == RETRIEVAL_K
    assert not any(c.is_target for c in got)


def test_retrieve_ties_break_by_library_order(embedder):
    # both descriptions add two words the query lacks, so the scores are equal in
    # exact arithmetic; unrounded, float noise put the second function first.
    # The tokenless functions all score 0, and the cut keeps the first of them.
    base = "look up the multi day weather forecast for a chosen destination city"
    zeros = [fn(f"zero_{i:02d}", param("x", "a value"), description="東京")
             for i in range(RETRIEVAL_K)]
    lib = FunctionLibrary([
        zeros[0],
        fn("first", param("city", "name of the city"), description=base + " seasonal coastal"),
        *zeros[1:],
        fn("second", param("city", "name of the city"), description=base + " curated shared")])
    query = ("Draft a polite junior about the noisy renovation upstairs. "
             "Calculate how many paint cans cover a spiral staircase wall.")
    got = retrieve_candidates(query, lib, EmbeddingCache(embedder))
    assert [c.name for c in got] == ["first", "second"] + [z.name for z in zeros[:-2]]
    assert got[0].retrieval_score == got[1].retrieval_score > 0.0


def test_retrieve_tokenless_texts_score_zero(embedder):
    lib = FunctionLibrary([*tiny_library(), fn("kanji", param("x", "東京"), description="東京")])
    cache = EmbeddingCache(embedder)
    got = retrieve_candidates("storm warnings for my region", lib, cache)
    assert next(c for c in got if c.name == "kanji").retrieval_score == 0.0
    assert {c.retrieval_score for c in retrieve_candidates("東京", lib, cache)} == {0.0}


def raw_retrieval(query, library, embedder):
    """Top ``RETRIEVAL_K`` (name, score) as retrieval computed it before the
    cache: every description and the query embedded afresh on each call."""
    texts = [f.description or f.name for f in library]
    vectors = np.asarray(embedder.embed(texts + [query]))
    sims = cosine_matrix(vectors[:-1], vectors[-1], allow_zero=True)[:, 0]
    scores = [(f.name, round(float(s), 12)) for f, s in zip(library, sims)]
    # stable: ties keep library order
    return sorted(scores, key=lambda t: -t[1])[:RETRIEVAL_K]


def test_cached_retrieval_matches_raw_and_embeds_each_text_once(embedder):
    lib = FunctionLibrary(templated_library(100))
    counting = CountingEmbedder(embedder)
    cache = EmbeddingCache(counting)
    queries = ([f"{f.description} tomorrow please" for f in lib[:30:3]]
               + ["will the storm hit our region", "東京", "", "convert 100 dollars"] * 2)
    for query in queries:
        got = retrieve_candidates(query, lib, cache)
        assert [(c.name, c.retrieval_score) for c in got] == raw_retrieval(
            query, lib, embedder), query
    assert set(counting.seen.values()) == {1}
    assert set(counting.seen) == {f.description for f in lib} | set(queries)


def formula_retrieval(query, library, cache, targets=()):
    """(name, score.hex(), is_target) as retrieval computed it per example
    before the library's unit rows were held: the cosine over a fresh stack of
    every description and the query, sorted on (-score, library index)."""
    texts = [f.description or f.name for f in library]
    vectors = cache.matrix(texts + [query])
    sims = cosine_matrix(vectors[:-1], vectors[-1], allow_zero=True)[:, 0]
    scores = [(f.name, round(float(s), 12)) for f, s in zip(library, sims)]
    order = sorted(range(len(scores)), key=lambda i: (-scores[i][1], i))
    top = [scores[i] for i in order[:RETRIEVAL_K]]
    present = {name for name, _ in top}
    top += [t for t in scores if t[0] in targets and t[0] not in present]
    return [(name, score.hex(), name in targets) for name, score in top]


def held_retrieval(query, library, cache, targets=()):
    return [(c.name, c.retrieval_score.hex(), c.is_target)
            for c in retrieve_candidates(query, library, cache, targets)]


@pytest.mark.parametrize("size", [3, 12, 57, 200, 1000])
def test_held_retrieval_is_bit_identical_to_the_per_example_formula(embedder, size):
    lib = FunctionLibrary(templated_library(size))
    cache = EmbeddingCache(embedder)
    targets = [lib[-1].name, lib[size // 2].name]
    queries = [f"{lib[0].description} for tomorrow", "will the storm hit our region",
               "東京", "", lib[-1].description]
    for query in queries:
        for wanted in (targets, ()):
            assert held_retrieval(query, lib, cache, wanted) == \
                formula_retrieval(query, lib, cache, wanted), (query, wanted)


def test_held_retrieval_keeps_ties_repeats_and_zero_rows_in_library_order(embedder):
    # repeated descriptions tie exactly; tokenless ones embed to zero and score 0;
    # three rounds of eight make the library longer than RETRIEVAL_K
    texts = ["hotel rooms tonight", "東京", "hotel rooms tonight", "weather for the weekend",
             "", "東京", "weather for the weekend", "hotel rooms tonight"] * 3
    lib = FunctionLibrary(fn(f"f{i}", param("x", "a value"), description=text)
                          for i, text in enumerate(texts))
    cache = EmbeddingCache(embedder)
    for query in ["hotel rooms", "weekend weather at the hotel", "東京", ""]:
        for targets in (["f21", "f1"], ["f23", "f4"], ()):
            assert held_retrieval(query, lib, cache, targets) == \
                formula_retrieval(query, lib, cache, targets), (query, targets)
    got = retrieve_candidates("hotel rooms", lib, cache)
    assert [c.name for c in got][:9] == ["f0", "f2", "f7", "f8", "f10", "f15", "f16",
                                         "f18", "f23"]
    zero = retrieve_candidates("東京", lib, cache)
    assert [c.name for c in zero] == [f"f{i}" for i in range(RETRIEVAL_K)]
    assert {c.retrieval_score for c in zero} == {0.0}


def test_retrievals_on_one_cache_embed_and_normalise_the_library_once(embedder, monkeypatch):
    import divgen.metrics.battery as battery

    lib = FunctionLibrary(templated_library(40))
    counting = CountingEmbedder(embedder)
    cache = EmbeddingCache(counting)
    normalised = []
    real_unit_rows = battery.unit_rows
    monkeypatch.setattr(battery, "unit_rows",
                        lambda rows, **kw: normalised.append(len(rows))
                        or real_unit_rows(rows, **kw))
    retrieve_candidates("storm warnings for my region", lib, cache)
    retrieve_candidates("convert dollars to yen", lib, cache)
    assert normalised == [len(lib)]
    assert set(counting.seen.values()) == {1}
    # the first retrieval embeds the descriptions and its query in one batch
    descriptions = list(dict.fromkeys(f.description for f in lib))
    assert counting.calls == [descriptions + ["storm warnings for my region"],
                              ["convert dollars to yen"]]


def scores_reply(sig_name, rows):
    return format_output(catalog.get(sig_name),
                         {"reasoning": "rated",
                          "scores": json.dumps(rows)})


def test_score_plausibility_order_aligned(embedder):
    lib = tiny_library()
    cands = [ScoredCandidate("storm_watch", 0.9, is_target=True),
             ScoredCandidate("picnic_plan", 0.5),
             ScoredCandidate("plant_care", 0.1)]
    rows = [
        {"api_name": "storm_watch", "score": 5, "reasoning": "direct match"},
        {"api_name": "picnic_plan", "score": 2, "reasoning": "adjacent"},
        {"api_name": "plant_care", "score": 1, "reasoning": "unrelated"},
    ]
    chat = ScriptedChat().script(scores_reply("BatchAPIRelevanceScorer", rows),
                                 signature="BatchAPIRelevanceScorer")
    scored = score_plausibility("storm question", cands, ["storm_watch"],
                                ExecutionType.SINGLE, lib.by_name, SignatureClient(chat, 3, {}))
    assert [c.plausibility for c in scored] == [5, 2, 1]


def test_score_plausibility_misalignment_retries_then_fails(embedder):
    lib = tiny_library()
    cands = [ScoredCandidate("storm_watch", 0.9), ScoredCandidate("plant_care", 0.1)]
    short = scores_reply("BatchAPIRelevanceScorer",
                         [{"api_name": "storm_watch", "score": 5, "reasoning": "x"}])
    chat = ScriptedChat().script(short, signature="BatchAPIRelevanceScorer")
    with pytest.raises(DistractorFailure, match="misaligned"):
        score_plausibility("q", cands, ["storm_watch"], ExecutionType.SINGLE,
                           lib.by_name, SignatureClient(chat, 3, {}))
    assert len(chat.calls) == 2  # one retry


@pytest.mark.parametrize("bad", ["high", None, [3]])
def test_score_plausibility_non_integer_score_retries_then_fails(bad):
    cands = [ScoredCandidate("storm_watch", 0.9), ScoredCandidate("plant_care", 0.1)]
    reply = scores_reply("BatchAPIRelevanceScorer",
                         [{"api_name": "storm_watch", "score": 5, "reasoning": "x"},
                          {"api_name": "plant_care", "score": bad, "reasoning": "y"}])
    chat = ScriptedChat().script(reply, signature="BatchAPIRelevanceScorer")
    with pytest.raises(DistractorFailure, match="non-integer score"):
        score_plausibility("q", cands, ["storm_watch"], ExecutionType.SINGLE,
                           tiny_library().by_name, SignatureClient(chat, 3, {}))
    assert len(chat.calls) == 2  # one retry


def test_score_plausibility_non_integer_score_then_valid_reply():
    cands = [ScoredCandidate("storm_watch", 0.9), ScoredCandidate("plant_care", 0.1)]
    bad = scores_reply("BatchAPIRelevanceScorer",
                       [{"score": "high"}, {"score": 1}])
    good = scores_reply("BatchAPIRelevanceScorer",
                        [{"score": 5}, {"score": 1}])
    chat = ScriptedChat().script([bad, good], signature="BatchAPIRelevanceScorer")
    scored = score_plausibility("q", cands, ["storm_watch"], ExecutionType.SINGLE,
                                tiny_library().by_name, SignatureClient(chat, 3, {}))
    assert [c.plausibility for c in scored] == [5, 1]


def test_score_plausibility_empty_candidates(embedder):
    assert score_plausibility("q", [], [], ExecutionType.SINGLE, tiny_library().by_name,
                              SignatureClient(ScriptedChat(), 3, {})) == []


def test_filter_thresholds_per_type():
    scored = [
        ScoredCandidate("t", 0.9, plausibility=5, is_target=True),
        ScoredCandidate("a", 0.8, plausibility=3),
        ScoredCandidate("b", 0.7, plausibility=2),
        ScoredCandidate("c", 0.6, plausibility=1),
    ]
    general = filter_by_plausibility(scored, ExecutionType.SINGLE)
    assert [c.name for c in general] == ["t", "b", "c"]
    strict = filter_by_plausibility(scored, ExecutionType.MISSING_PARAMS)
    assert [c.name for c in strict] == ["t", "c"]
    parallel = filter_by_plausibility(scored, ExecutionType.PARALLEL)
    assert [c.name for c in parallel] == ["t", "b", "c"]


def test_elbow_hand_trace_plateau_then_drop():
    # d = [0.02, 0.02, 0.36, 0.02]; dd = [0, 0.34, -0.34] -> elbow index 2, keep 3
    assert elbow_cutoff([0.9, 0.88, 0.86, 0.5, 0.48], min_keep=1) == 3


def test_elbow_hand_trace_monotone_linear():
    # binary-exact equal steps: dd all zero -> first argmax, keep 2, floored at min_keep
    assert elbow_cutoff([1.0, 0.75, 0.5, 0.25], min_keep=1) == 2
    assert elbow_cutoff([1.0, 0.75, 0.5, 0.25], min_keep=3) == 3


def test_elbow_small_inputs_keep_all():
    assert elbow_cutoff([0.5, 0.4], min_keep=1) == 2
    assert elbow_cutoff([0.5], min_keep=1) == 1


def test_elbow_bounds_property():
    rng = random.Random(0)
    for _ in range(200):
        n = rng.randrange(1, 12)
        scores = sorted((rng.random() for _ in range(n)), reverse=True)
        for min_keep in (1, 2, 3):
            keep = elbow_cutoff(scores, min_keep)
            assert max(1, min(min_keep, n)) <= keep <= n


def test_elbow_rejects_unsorted():
    with pytest.raises(ValueError):
        elbow_cutoff([0.1, 0.9])


def test_parse_invocation_names_handles_spaces_and_lists():
    known = ["Video Info by URL", "video_fetch"]
    raw = '[video_fetch(video_url=https://x), Video Info by URL(video_url=https://x)]'
    assert parse_invocation_names(raw, known) == ["video_fetch", "Video Info by URL"]
    assert parse_invocation_names("[]", known) == []
    assert parse_invocation_names("video_fetch(a=1)", known) == ["video_fetch"]
    # a qualified name matches the longest known name inside it, not the first
    known = ["search", "search_hotels", "weather"]
    raw = "[functions.search_hotels(city=1), functions.weather(day=1)]"
    assert parse_invocation_names(raw, known) == ["search_hotels", "weather"]


def alt_chat(parallel_invocation, valid="YES"):
    chat = ScriptedChat()
    chat.script_output("ConstructParallelInvocation",
                       {"reasoning": "combining", "invocation_apis": parallel_invocation})
    chat.script_output("ValidateParallelInvocation",
                       {"reasoning": "checked", "is_valid": valid})
    return chat


def multi_library():
    return FunctionLibrary([
        fn("alpha_api", param("x", "shared field one"), description="alpha service"),
        fn("beta_api", param("y", "shared field two"), description="beta service"),
        fn("gamma_api", param("z", "shared field three"), description="gamma service"),
    ])


def test_alternatives_none_found_keeps_everything():
    lib = multi_library()
    kept = [ScoredCandidate("gamma_api", 0.4, plausibility=2)]
    out = validate_invocation_alternatives(
        "q", kept, ["alpha_api", "beta_api"], ExecutionType.PARALLEL,
        lib.by_name, SignatureClient(alt_chat("[]"), 3, {}))
    assert [c.name for c in out.candidates] == ["gamma_api"]
    assert out.targets == ["alpha_api", "beta_api"]
    assert not out.invalid


def test_alternatives_subset_downgrades_to_single():
    lib = multi_library()
    out = validate_invocation_alternatives(
        "q", [ScoredCandidate("gamma_api", 0.4, plausibility=2)],
        ["alpha_api", "beta_api"], ExecutionType.PARALLEL,
        lib.by_name, SignatureClient(alt_chat("[alpha_api(x=1)]"), 3, {}))
    assert out.targets == ["alpha_api"]
    assert out.exec_type is ExecutionType.SINGLE
    assert not out.invalid


def test_alternatives_with_distractor_removes_it():
    lib = multi_library()
    out = validate_invocation_alternatives(
        "q", [ScoredCandidate("gamma_api", 0.4, plausibility=2)],
        ["alpha_api", "beta_api"], ExecutionType.PARALLEL,
        lib.by_name, SignatureClient(alt_chat("[alpha_api(x=1), gamma_api(z=3)]"), 3, {}))
    assert [c.name for c in out.candidates] == []
    assert out.targets == ["alpha_api", "beta_api"]


def test_alternatives_invalid_verdict_changes_nothing():
    lib = multi_library()
    out = validate_invocation_alternatives(
        "q", [ScoredCandidate("gamma_api", 0.4, plausibility=2)],
        ["alpha_api", "beta_api"], ExecutionType.PARALLEL,
        lib.by_name, SignatureClient(alt_chat("[alpha_api(x=1)]", valid="NO"), 3, {}))
    assert out.targets == ["alpha_api", "beta_api"]
    assert out.exec_type is ExecutionType.PARALLEL


def travel_library():
    return FunctionLibrary([
        fn("search", param("q", "free text to look up"), description="general search"),
        fn("search_hotels", param("city", "city to stay in"), description="hotel search"),
        fn("weather", param("day", "day of the forecast"), description="weather forecast"),
        fn("hotel_finder", param("city", "city to stay in"), description="find hotels"),
    ])


def test_alternative_with_qualified_target_names_keeps_the_distractor():
    chat = alt_chat("[functions.search_hotels(city=1), functions.weather(day=1)]")
    out = validate_invocation_alternatives(
        "q", [ScoredCandidate("search", 0.4, plausibility=2)],
        ["search_hotels", "weather"], ExecutionType.PARALLEL,
        travel_library().by_name, SignatureClient(chat, 3, {}))
    assert [c.name for c in out.candidates] == ["search"]
    assert out.targets == ["search_hotels", "weather"]
    assert out.note == ""


@pytest.mark.parametrize("reply", ["[weather(day=1), hotel_finder(city=1)]",
                                   "[weather(day=1), hotel_finder(city=1), search(q=1)]"])
def test_alternative_naming_a_function_outside_the_candidates_changes_nothing(reply):
    chat = alt_chat(reply)
    out = validate_invocation_alternatives(
        "q", [ScoredCandidate("search", 0.4, plausibility=2)],
        ["search_hotels", "weather"], ExecutionType.PARALLEL,
        travel_library().by_name, SignatureClient(chat, 3, {}))
    assert [c.name for c in out.candidates] == ["search"]
    assert out.targets == ["search_hotels", "weather"]
    assert out.exec_type is ExecutionType.PARALLEL and not out.invalid
    assert "hotel_finder" in out.note and "unchanged" in out.note
    assert "removed" not in out.note


def seq_alt_chat(steps, valid="YES"):
    chat = ScriptedChat()
    chat.script([format_output(catalog.get("ConstructSequentialInvocation"),
                               {"reasoning": "next step", "next_api": step})
                 for step in steps], signature="ConstructSequentialInvocation")
    chat.script_output("ValidateSequentialInvocation",
                       {"reasoning": "checked", "is_valid": valid})
    return chat


@pytest.mark.parametrize("steps", [["alpha_api", ""], [" alpha_api ", ""],
                                   ["alpha_api(x=1)", ""]])
def test_sequential_alternative_with_bare_names_shrinks_targets(steps):
    out = validate_invocation_alternatives(
        "q", [ScoredCandidate("gamma_api", 0.4, plausibility=2)],
        ["alpha_api", "beta_api"], ExecutionType.SEQUENTIAL,
        multi_library().by_name, SignatureClient(seq_alt_chat(steps), 3, {}))
    assert out.targets == ["alpha_api"]
    assert out.exec_type is ExecutionType.SINGLE


def test_sequential_alternative_bare_names_remove_a_distractor():
    out = validate_invocation_alternatives(
        "q", [ScoredCandidate("gamma_api", 0.4, plausibility=2)],
        ["alpha_api", "beta_api"], ExecutionType.SEQUENTIAL,
        multi_library().by_name,
        SignatureClient(seq_alt_chat(["alpha_api", "gamma_api", ""]), 3, {}))
    assert out.candidates == []
    assert out.targets == ["alpha_api", "beta_api"]
    assert out.exec_type is ExecutionType.SEQUENTIAL


def test_finalize_reproducible_and_complete():
    rng = random.Random(8)
    order1 = finalize(["d1", "d2"], ["t1"], random.Random(8))
    order2 = finalize(["d1", "d2"], ["t1"], random.Random(8))
    assert order1 == order2
    assert sorted(order1) == ["d1", "d2", "t1"]
    none_case = finalize(["d1", "d2"], [], rng)
    assert sorted(none_case) == ["d1", "d2"]  # NONE: distractors only


def test_finalize_first_position_roughly_uniform():
    hits = Counter()
    for seed in range(3000):
        order = finalize(["d1", "d2"], ["t1"], random.Random(seed))
        hits[order[0]] += 1
    assert abs(hits["t1"] / 3000 - 1 / 3) < 0.05


def test_assemble_requires_twice_the_targets_for_parallel(embedder):
    from divgen.distractors import assemble_candidates

    lib = multi_library()
    rows = [{"api_name": f.name, "score": 5, "reasoning": "all plausible"}
            for f in lib]  # every non-target filtered out
    chat = ScriptedChat().script(scores_reply("ParallelAPIRelevanceScorer", rows),
                                 signature="ParallelAPIRelevanceScorer")
    with pytest.raises(DistractorFailure, match="distractor candidates"):
        assemble_candidates("query words", ["alpha_api", "beta_api"],
                            ExecutionType.PARALLEL, lib, EmbeddingCache(embedder),
                            SignatureClient(chat, 3, {}), random.Random(0))


def test_sequential_alternative_naming_an_unknown_step_changes_nothing():
    out = validate_invocation_alternatives(
        "q", [ScoredCandidate("search", 0.4, plausibility=2)],
        ["search_hotels", "weather"], ExecutionType.SEQUENTIAL, travel_library().by_name,
        SignatureClient(seq_alt_chat(["weather(day=1)", "hotel_finder", "search", ""]), 3, {}))
    assert [c.name for c in out.candidates] == ["search"]
    assert out.targets == ["search_hotels", "weather"]
    assert out.exec_type is ExecutionType.SEQUENTIAL
    assert "hotel_finder" in out.note and "unchanged" in out.note
