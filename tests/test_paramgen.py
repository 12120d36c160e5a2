import json
import random

import pytest

from divgen.metrics.cluster_entropy import ValueIndex, value_cluster_entropy
from divgen.model import MISSING_SENTINEL, RunConfig
from divgen.paramgen import (
    ParamGenerator,
    ParamGenFailure,
    commit_to_trackers,
    select_diverse_value,
)
from divgen.preprocess import group_parameters
from divgen.providers.base import SignatureClient
from divgen.providers.hash_embed import HashEmbedder
from divgen.providers import catalog
from divgen.providers.mock import ScriptedChat
from divgen.providers.signature import format_output
from test_cluster_entropy import numeric_values, string_values
from test_preprocess import fn, param


def small_library():
    return [
        fn("city_weather", param("city", "names the destination city of interest"),
           description="weather by city"),
        fn("city_hotels", param("city", "names the destination city of interest"),
           description="hotels by city"),
        fn("enum_only", param("mode", "pick the operating mode", enum=("fast", "slow")),
           description="enum only"),
        fn("two_param",
           param("title", "short display title for the note"),
           param("priority", "importance level from one to ten", declared="integer"),
           description="two parameters"),
        fn("four_req",
           param("alpha", "first unique field aardvark"),
           param("beta", "second unique field banana"),
           param("gamma", "third unique field grapefruit"),
           param("delta", "fourth unique field dragonfly"),
           description="four required"),
        fn("no_required", param("note", "optional remark", required=False),
           description="no required params"),
    ]


def setup_gen(chat, seed=0, lib=None, **config_kw):
    lib = lib or small_library()
    embedder = HashEmbedder()
    groups = group_parameters(lib, embedder, 0.6)
    config = RunConfig(rng_seed=seed, **config_kw)
    gen = ParamGenerator(groups, SignatureClient(chat, config.retry_limit),
                         embedder, random.Random(seed), config)
    return lib, groups, gen


def values_json(values):
    return json.dumps(values)


def candidates_script(chat, values, param_name=None, numeric=False):
    sig = ("GenerateMultipleNumericalParameters" if numeric
           else "GenerateMultipleStringParameters")
    kw = {}
    if param_name:
        kw["contains"] = f"[[ ## parameter_name ## ]]\n{param_name}"
    chat.script_output(sig, {"reasoning": "spread",
                             "generated_values": values_json(values)}, **kw)
    return chat


def yes_validator(chat, sig="ParameterSetValidator"):
    chat.script_output(sig, {"reasoning": "coherent", "is_valid": "YES"})
    return chat


URLS = [f"https://example.video/watch/{i:04d}{chr(97 + i % 26)}" for i in range(25)]


def test_generate_value_candidates_exact_25():
    chat = candidates_script(ScriptedChat(), URLS)
    lib, groups, gen = setup_gen(chat)
    api = lib[3]
    p = api.parameters[0]
    group = groups.group_of(api.name, p.name)
    got = gen.generate_value_candidates(p, api, {}, group, [])
    assert got == URLS
    assert len(got) == 25


def test_generate_value_candidates_top_up_on_duplicates():
    dupes = URLS[:24] + [URLS[0]]  # 24 distinct
    chat = ScriptedChat()
    sig = "GenerateMultipleStringParameters"
    chat.script_output(sig, {"reasoning": "r", "generated_values": values_json(dupes)},
                       contains="[[ ## num_candidates ## ]]\n25")
    chat.script_output(sig, {"reasoning": "r",
                             "generated_values": values_json(["https://fresh.example/1"])},
                       contains="[[ ## num_candidates ## ]]\n1")
    lib, groups, gen = setup_gen(chat)
    api, p = lib[3], lib[3].parameters[0]
    got = gen.generate_value_candidates(p, api, {}, groups.group_of(api.name, p.name), [])
    assert len(got) == 25
    assert "https://fresh.example/1" in got


def test_generate_value_candidates_too_few_fails():
    few = URLS[:4]
    chat = candidates_script(ScriptedChat(), few)
    lib, groups, gen = setup_gen(chat)
    api, p = lib[3], lib[3].parameters[0]
    with pytest.raises(ParamGenFailure, match="distinct candidates"):
        gen.generate_value_candidates(p, api, {}, groups.group_of(api.name, p.name), [])


def test_generate_value_candidates_numeric_parsing():
    chat = candidates_script(ScriptedChat(), list(range(25)), numeric=True)
    lib, groups, gen = setup_gen(chat)
    api = lib[3]
    p = api.parameters[1]  # integer priority
    got = gen.generate_value_candidates(p, api, {}, groups.group_of(api.name, p.name), [])
    assert all(isinstance(v, (int, float)) for v in got)


def test_generate_value_candidates_non_numeric_fails():
    chat = candidates_script(ScriptedChat(), ["high", "low"], numeric=True)
    lib, groups, gen = setup_gen(chat)
    api, p = lib[3], lib[3].parameters[1]
    with pytest.raises(ParamGenFailure, match="non-numeric"):
        gen.generate_value_candidates(p, api, {}, groups.group_of(api.name, p.name), [])


# --- greedy selection ----------------------------------------------------------


def test_select_diverse_value_tie_keeps_first_sampled():
    # all candidates sit in one numeric cluster: every choice ties
    candidates = [round(0.001 * i, 4) for i in range(25)]
    rng = random.Random(9)
    chosen, _ = select_diverse_value(candidates, [], rng, "NUMERICAL", None)
    expected_first = random.Random(9).sample(candidates, 5)[0]
    assert chosen == expected_first


def test_select_diverse_value_prefers_new_region():
    tracker = [0.0, 0.1, 0.2, 0.05, 0.15]
    candidates = [0.12, 0.18, 0.22, 0.08, 500.0]  # exactly 5: all exposed
    chosen, augmented = select_diverse_value(
        candidates, tracker, random.Random(1), "NUMERICAL", None)
    assert chosen == 500.0
    # greedily maximal against the entropy oracle
    best = max(candidates,
               key=lambda c: value_cluster_entropy(augmented + [c], "NUMERICAL"))
    assert value_cluster_entropy(augmented + [chosen], "NUMERICAL") == pytest.approx(
        value_cluster_entropy(augmented + [best], "NUMERICAL"))


def test_select_diverse_value_reproducible():
    candidates = [float(i * 50) for i in range(25)]
    a, _ = select_diverse_value(candidates, [], random.Random(5), "NUMERICAL", None)
    b, _ = select_diverse_value(candidates, [], random.Random(5), "NUMERICAL", None)
    assert a == b


def test_select_diverse_value_greedy_invariant_property():
    rng_master = random.Random(123)
    for _ in range(20):
        tracker = [float(rng_master.randrange(5)) for _ in range(rng_master.randrange(1, 10))]
        candidates = list({float(rng_master.randrange(0, 2000, 7)) for _ in range(25)})
        rng = random.Random(rng_master.randrange(10_000))
        chosen, augmented = select_diverse_value(candidates, tracker, rng,
                                                 "NUMERICAL", None)
        chosen_score = value_cluster_entropy(augmented + [chosen], "NUMERICAL")
        for cand in candidates:
            if repr(cand) not in {repr(x) for x in augmented[len(tracker):]}:
                # cand was exposed; its score must not beat the chosen one
                score = value_cluster_entropy(augmented + [cand], "NUMERICAL")
                assert chosen_score >= score - 1e-12


def reference_select(candidates, tracker_snapshot, rng, category, embedder, select_size=5):
    """The per-candidate selection loop: one full DBSCAN per exposed candidate."""
    exposed = rng.sample(list(candidates), min(select_size, len(candidates)))
    shown = {repr(x) for x in exposed}
    augmented = list(tracker_snapshot) + [c for c in candidates if repr(c) not in shown]
    scores = [value_cluster_entropy(augmented + [c], category, embedder) for c in exposed]
    return exposed[scores.index(max(scores))], augmented


def test_select_with_and_without_an_index_matches_the_per_candidate_loop():
    embedder = HashEmbedder()
    for seed in range(200):
        rng = random.Random(seed)
        category = ("NUMERICAL", "STRING")[seed % 2]
        make = numeric_values if category == "NUMERICAL" else string_values
        tracker = make(rng, rng.randrange(0, 60))
        snapshot = tracker + make(rng, rng.randrange(0, 3))  # plus pending values
        candidates = list(dict.fromkeys(make(rng, 40)))[:25]
        index = ValueIndex(category, embedder)
        index.sync(tracker)
        rngs = [random.Random(seed) for _ in range(3)]
        want = reference_select(candidates, snapshot, rngs[0], category, embedder)
        assert select_diverse_value(candidates, snapshot, rngs[1], category, embedder,
                                    index=index) == want, seed
        assert select_diverse_value(candidates, snapshot, rngs[2], category,
                                    embedder) == want, seed
        assert rngs[0].getstate() == rngs[1].getstate() == rngs[2].getstate()
        assert index.values == tracker


def route_library():
    # both parameters land in one STRING group, so an attempt's first value is
    # pending when the second is selected
    return [fn("route", param("origin", "names the city where the trip starts"),
               param("destination", "names the city where the trip ends"),
               description="route planner")]


def assert_index_holds(index, tracker, embedder):
    assert index.values == list(tracker)
    fresh = ValueIndex("STRING", embedder)
    fresh.extend(tracker)
    assert index.as_sets() == fresh.as_sets()
    assert index.entropies(["Lisbon"], ["Paris", "Quito"]) == [
        value_cluster_entropy(list(tracker) + ["Lisbon", c], "STRING", embedder)
        for c in ("Paris", "Quito")]


def test_value_index_follows_the_tracker_through_abandon_restore_and_drop():
    chat = candidates_script(ScriptedChat(), [f"town{i} center" for i in range(25)])
    chat.script_output("ParameterSetValidator", {"reasoning": "never", "is_valid": "NO"})
    lib, groups, gen = setup_gen(chat, lib=route_library())
    group = groups.group_of("route", "origin")
    assert groups.group_of("route", "destination") is group
    group.tracker[:] = ["Paris", "Rome", "town3 center", "Oslo"]
    with pytest.raises(ParamGenFailure):
        gen.generate_single_params(lib[0])  # three attempts, each with a pending value
    index = gen._value_indexes[group.id]
    assert_index_holds(index, group.tracker, gen.embedder)

    commit_to_trackers([(group.id, "Lima")], groups)
    assert_index_holds(gen._value_index(group), group.tracker, gen.embedder)

    groups.restore({group.id: ["Paris", "Rome", "Bern"]})
    assert_index_holds(gen._value_index(group), group.tracker, gen.embedder)

    # dropping the token-less values leaves the indexed values as a prefix
    groups.restore({group.id: ["Paris", "東京", "Rome", "", "Bern", "Kyiv", "Oslo"]})
    groups.drop_tokenless_strings()
    assert_index_holds(gen._value_index(group), group.tracker, gen.embedder)


# --- single-function generation ---------------------------------------------------


def test_all_enum_api_uses_rng_only_for_values():
    chat = yes_validator(ScriptedChat())
    lib, groups, gen = setup_gen(chat)
    api = lib[2]  # enum_only
    result = gen.generate_single_params(api)
    assert result.arguments["mode"] in ("fast", "slow")
    assert len(chat.calls) == 1  # the validator; no value-generation calls


def test_two_param_api_deterministic():
    def build():
        chat = ScriptedChat()
        candidates_script(chat, [f"title {i} t{i}" for i in range(25)], "title")
        candidates_script(chat, list(range(0, 250, 10)), "priority", numeric=True)
        yes_validator(chat)
        return chat

    lib, groups, gen = setup_gen(build(), seed=42)
    r1 = gen.generate_single_params(lib[3])
    lib2, groups2, gen2 = setup_gen(build(), seed=42)
    r2 = gen2.generate_single_params(lib2[3])
    assert r1.arguments == r2.arguments
    assert set(r1.arguments) == {"title", "priority"}


def test_validator_rejection_exhausts_retries():
    chat = ScriptedChat()
    candidates_script(chat, [f"title {i} t{i}" for i in range(25)], "title")
    candidates_script(chat, list(range(0, 250, 10)), "priority", numeric=True)
    chat.script_output("ParameterSetValidator",
                       {"reasoning": "values conflict", "is_valid": "NO"})
    lib, groups, gen = setup_gen(chat)
    with pytest.raises(ParamGenFailure, match="after 3 attempts"):
        gen.generate_single_params(lib[3])
    validator_calls = [c for c in chat.calls if "conflict-free call" in c]
    assert len(validator_calls) == 3


def test_retry_carries_validator_reasoning():
    chat = ScriptedChat()
    candidates_script(chat, [f"title {i} t{i}" for i in range(25)], "title")
    candidates_script(chat, list(range(0, 250, 10)), "priority", numeric=True)
    sig = "ParameterSetValidator"
    from divgen.providers.signature import format_output
    from divgen.providers import catalog
    no = format_output(catalog.get(sig), {"reasoning": "priority clashes with title",
                                          "is_valid": "NO"})
    yes = format_output(catalog.get(sig), {"reasoning": "fine now", "is_valid": "YES"})
    chat.script([no, yes], signature=sig)
    lib, groups, gen = setup_gen(chat)
    result = gen.generate_single_params(lib[3])
    assert result.arguments
    retry_candidate_calls = [c for c in chat.calls
                             if "priority clashes with title" in c
                             and "[[ ## num_candidates ## ]]" in c]
    assert retry_candidate_calls  # failure context reached the regeneration


# --- values without a word token, non-numeric values ---------------------------------

TOKENLESS = ["東京", "!!!"]


def tokenless_candidates_chat():
    chat = ScriptedChat()
    sig = "GenerateMultipleStringParameters"
    first = [f"place {i} p{i}" for i in range(23)] + TOKENLESS
    chat.script_output(sig, {"reasoning": "r", "generated_values": values_json(first)},
                       contains="[[ ## num_candidates ## ]]\n25")
    chat.script_output(sig, {"reasoning": "r",
                             "generated_values": values_json(["Kyoto city", "Oslo town"])},
                       contains="[[ ## num_candidates ## ]]\n2")
    return yes_validator(chat)


def test_tokenless_string_candidates_are_left_out_and_replaced():
    chat = tokenless_candidates_chat()
    lib, groups, gen = setup_gen(chat, seed=3)
    api, p = lib[0], lib[0].parameters[0]
    got = gen.generate_value_candidates(p, api, {}, groups.group_of(api.name, p.name), [])
    assert len(got) == 25
    assert not set(TOKENLESS) & set(got)
    assert {"Kyoto city", "Oslo town"} <= set(got)
    top_up = next(c for c in chat.calls if "[[ ## num_candidates ## ]]\n2\n" in c)
    assert "without a word token" in top_up and "東京" in top_up


def test_tokenless_string_candidates_do_not_crash_selection():
    for seed in range(5):
        lib, groups, gen = setup_gen(tokenless_candidates_chat(), seed=seed)
        result = gen.generate_single_params(lib[0])
        assert result.arguments["city"] not in TOKENLESS


def cohesive_pair_chat(sig_name, replies, candidates, numeric=False):
    chat = ScriptedChat()
    candidates_script(chat, candidates, numeric=numeric)
    chat.script([format_output(catalog.get(sig_name), {"reasoning": "r", "generated_value": r})
                 for r in replies], signature=sig_name)
    return yes_validator(chat)


def test_tokenless_cohesive_string_value_fails_its_attempt():
    chat = cohesive_pair_chat("GenerateCohesiveStringParameter", ["東京", "Kyoto city"],
                              [f"place {i} p{i}" for i in range(25)])
    lib, groups, gen = setup_gen(chat, seed=1)
    results, diverse_idx = gen.generate_parallel_params([lib[0], lib[1]])
    assert results[1 - diverse_idx].arguments["city"] == "Kyoto city"
    retry = [c for c in chat.calls if "has no word token" in c]
    assert len(retry) == 1  # the retried cohesive request names the failure
    assert len([c for c in chat.calls if "conflict-free call" in c]) == 2


def test_only_tokenless_cohesive_values_abandon_without_commits():
    chat = cohesive_pair_chat("GenerateCohesiveStringParameter", ["東京"],
                              [f"place {i} p{i}" for i in range(25)])
    lib, groups, gen = setup_gen(chat, seed=1)
    with pytest.raises(ParamGenFailure, match="no word token"):
        gen.generate_parallel_params([lib[0], lib[1]])
    assert all(g.tracker == [] for g in groups.groups)


def guest_library():
    return [fn("party_a", param("guests", "number of guests attending", declared="integer"),
               description="plan a party"),
            fn("party_b", param("guests", "number of guests attending", declared="integer"),
               description="book a party room")]


def test_non_numeric_cohesive_value_fails_its_attempt():
    chat = cohesive_pair_chat("GenerateCohesiveNumericalParameter", ["about five", "5"],
                              list(range(25)), numeric=True)
    lib, groups, gen = setup_gen(chat, seed=1, lib=guest_library())
    results, diverse_idx = gen.generate_parallel_params(lib)
    assert results[1 - diverse_idx].arguments["guests"] == 5


def test_only_non_numeric_cohesive_values_abandon():
    chat = cohesive_pair_chat("GenerateCohesiveNumericalParameter", ["about five"],
                              list(range(25)), numeric=True)
    lib, groups, gen = setup_gen(chat, seed=1, lib=guest_library())
    with pytest.raises(ParamGenFailure, match="non-numeric"):
        gen.generate_parallel_params(lib)


# --- missing params -----------------------------------------------------------------


def test_missing_params_single_required_always_omitted():
    chat = ScriptedChat()
    yes_validator(chat, "PartialParameterSetValidator")
    lib, groups, gen = setup_gen(chat)
    result = gen.generate_missing_params(lib[0])  # city_weather: one required param
    assert result.omitted == ("city",)
    assert result.arguments["city"] == MISSING_SENTINEL


def test_missing_params_reproducible_subset():
    def run(seed):
        chat = ScriptedChat()
        for name in ("alpha", "beta", "gamma", "delta"):
            candidates_script(chat, [f"{name} value {i} v{i}" for i in range(25)], name)
        yes_validator(chat, "PartialParameterSetValidator")
        lib, groups, gen = setup_gen(chat, seed=seed)
        return gen.generate_missing_params(lib[4])

    r1, r2 = run(7), run(7)
    assert r1.omitted == r2.omitted
    assert r1.arguments == r2.arguments
    assert len(r1.omitted) >= 1


def test_missing_params_requires_required():
    chat = ScriptedChat()
    lib, groups, gen = setup_gen(chat)
    with pytest.raises(ValueError, match="required"):
        gen.generate_missing_params(lib[5])


def test_missing_params_validator_sees_only_provided():
    chat = ScriptedChat()
    for name in ("alpha", "beta", "gamma", "delta"):
        candidates_script(chat, [f"{name} value {i} v{i}" for i in range(25)], name)
    yes_validator(chat, "PartialParameterSetValidator")
    lib, groups, gen = setup_gen(chat, seed=3)
    result = gen.generate_missing_params(lib[4])
    validator_call = next(c for c in chat.calls if "partial set" in c)
    assert MISSING_SENTINEL not in validator_call
    for name in result.omitted:
        assert f'"{name}"' not in validator_call.split("[[ ## provided_parameters ## ]]")[1].split("[[")[0]


# --- parallel ------------------------------------------------------------------------


def parallel_echo_chat():
    """Cohesive generators echo the first value found in the parallel context."""
    chat = ScriptedChat()
    candidates_script(chat, [f"place {i} p{i}" for i in range(25)], "city")
    from divgen.providers import catalog
    from divgen.providers.signature import format_output

    def echo(prompt):
        block = prompt.split("[[ ## parallel_context_parameters ## ]]\n")[1]
        context = json.loads(block.split("\n\n[[ ##")[0])
        first_args = next(iter(context.values()))
        value = next(iter(first_args.values()))
        return format_output(catalog.get("GenerateCohesiveStringParameter"),
                             {"reasoning": "echoing shared value",
                              "generated_value": value})

    chat.script(echo, signature="GenerateCohesiveStringParameter")
    yes_validator(chat)
    return chat


def test_parallel_shares_values_through_context():
    chat = parallel_echo_chat()
    lib, groups, gen = setup_gen(chat, seed=1)
    results, diverse_idx = gen.generate_parallel_params([lib[0], lib[1]])
    assert len(results) == 2
    assert results[0].arguments["city"] == results[1].arguments["city"]


def test_parallel_abandonment_keeps_trackers_untouched():
    chat = ScriptedChat()
    candidates_script(chat, [f"place {i} p{i}" for i in range(25)], "city")
    chat.script_output("GenerateCohesiveStringParameter",
                       {"reasoning": "r", "generated_value": "anywhere"})
    chat.script_output("ParameterSetValidator",
                       {"reasoning": "never valid", "is_valid": "NO"})
    lib, groups, gen = setup_gen(chat, seed=1)
    with pytest.raises(ParamGenFailure):
        gen.generate_parallel_params([lib[0], lib[1]])
    assert all(g.tracker == [] for g in groups.groups)


def test_parallel_diverse_choice_reproducible():
    choices = []
    for _ in range(2):
        chat = parallel_echo_chat()
        lib, groups, gen = setup_gen(chat, seed=11)
        _, idx = gen.generate_parallel_params([lib[0], lib[1]])
        choices.append(idx)
    assert choices[0] == choices[1]


# --- sequential ----------------------------------------------------------------------


def chain_library():
    return [
        fn("fetch_clip",
           param("clip_url", "public address of the clip to process"),
           description="fetch a clip",
           returns=(__import__("divgen.model", fromlist=["ReturnField"]).ReturnField(
               "clip_url", "string", "address of the processed clip"),)),
        fn("clip_details",
           param("clip_url", "public address of the clip to inspect"),
           description="inspect a clip"),
    ]


def sequential_chat(chain_valid="YES"):
    chat = ScriptedChat()
    candidates_script(chat, [f"https://clips.example/{i:03d}" for i in range(25)],
                      "clip_url")
    chat.script_output("GenerateReturnValue", {
        "reasoning": "downstream needs the url",
        "return_value": json.dumps({"clip_url": "https://cdn.example/processed/777"})})
    chat.script_output("GenerateSequentialCohesiveStringParameter", {
        "reasoning": "match the produced url",
        "generated_value": "https://clips.example/original/777"})
    yes_validator(chat)
    chat.script_output("ValidateReturnValue",
                       {"reasoning": "url matches schema", "is_valid": "YES"})
    chat.script_output("ValidateSequentialChain",
                       {"reasoning": "second call needs the first call's output"
                        if chain_valid == "YES" else
                        "the second call can use the original address directly",
                        "is_valid": chain_valid})
    return chat


def test_sequential_chain_generates_n_minus_one_returns():
    lib = chain_library()
    embedder = HashEmbedder()
    groups = group_parameters(lib, embedder, 0.6)
    config = RunConfig(rng_seed=2)
    gen = ParamGenerator(groups, SignatureClient(sequential_chat()), embedder,
                         random.Random(2), config)
    results, returns = gen.generate_sequential_chain(lib)
    assert len(results) == 2
    assert len(returns) == 1
    assert returns[0] == {"clip_url": "https://cdn.example/processed/777"}
    assert results[0].arguments["clip_url"] == "https://clips.example/original/777"


def test_sequential_chain_rejected_after_retries():
    lib = chain_library()
    embedder = HashEmbedder()
    groups = group_parameters(lib, embedder, 0.6)
    chat = sequential_chat(chain_valid="NO")
    gen = ParamGenerator(groups, SignatureClient(chat), embedder,
                         random.Random(2), RunConfig(rng_seed=2))
    with pytest.raises(ParamGenFailure, match="chain rejected"):
        gen.generate_sequential_chain(lib)
    chain_calls = [c for c in chat.calls if "entire sequential execution chain" in c]
    assert len(chain_calls) == 3


def test_sequential_chain_needs_two_apis():
    lib = chain_library()
    embedder = HashEmbedder()
    groups = group_parameters(lib, embedder, 0.6)
    gen = ParamGenerator(groups, SignatureClient(ScriptedChat()), embedder,
                         random.Random(0), RunConfig())
    with pytest.raises(ValueError, match="at least two"):
        gen.generate_sequential_chain(lib[:1])


# --- trackers ---------------------------------------------------------------------------


def test_commit_appends_in_order():
    lib = small_library()
    groups = group_parameters(lib, HashEmbedder(), 0.6)
    g = groups.group_of("city_weather", "city")
    commit_to_trackers([(g.id, "Lagos"), (g.id, "Osaka")], groups)
    assert g.tracker == ["Lagos", "Osaka"]
    commit_to_trackers([(g.id, "Quito")], groups)
    assert g.tracker == ["Lagos", "Osaka", "Quito"]


def test_greedy_reaches_entropy_maximum_when_candidates_allow():
    """20 rounds over a 20-region candidate stream drive the tracker to log2(20)."""
    import math
    from divgen.providers import catalog
    from divgen.providers.signature import format_output

    regions = {r: " ".join(f"area{r:02d}w{j}" for j in range(11)) for r in range(20)}

    def respond(prompt):
        block = prompt.split("[[ ## existing_values ## ]]\n")[1]
        committed = json.loads(block.split("\n\n[[ ##")[0])
        region = len(committed)  # each round offers only the next unseen region
        values = [f"{regions[region]} v{region * 100 + i}" for i in range(25)]
        return format_output(
            catalog.get("GenerateMultipleStringParameters"),
            {"reasoning": "fresh region", "generated_values": json.dumps(values)})

    chat = ScriptedChat()
    chat.script(respond, signature="GenerateMultipleStringParameters")
    yes_validator(chat)
    lib, groups, gen = setup_gen(chat, seed=13)
    api = lib[0]  # city_weather
    group = groups.group_of(api.name, "city")
    for _ in range(20):
        result = gen.generate_single_params(api)
        commit_to_trackers(result.commits, groups)
    assert len(group.tracker) == 20
    bits = value_cluster_entropy(group.tracker, "STRING", HashEmbedder())
    assert bits == pytest.approx(math.log2(20), abs=1e-9)


def test_parallel_diverse_count_knob():
    chat = parallel_echo_chat()
    lib = small_library()
    embedder = HashEmbedder()
    groups = group_parameters(lib, embedder, 0.6)
    config = RunConfig(rng_seed=1, diverse_apis_per_example=2)
    gen = ParamGenerator(groups, SignatureClient(chat), embedder,
                         random.Random(1), config)
    results, _ = gen.generate_parallel_params([lib[0], lib[1]])
    # both functions took the diverse path: no cohesive-echo call happened
    cohesive_calls = [c for c in chat.calls
                      if "parallel_context_parameters" in c]
    assert cohesive_calls == []
    assert len(results) == 2


def test_validator_parse_failure_counts_as_rejection():
    chat = ScriptedChat().script("no structured fields at all",
                                 signature="ParameterSetValidator")
    lib, groups, gen = setup_gen(chat)
    ok, reason = gen.validate_parameter_set(lib[2], {"mode": "fast"})
    assert not ok
    assert reason == "parse failure"


def test_later_parameter_prompt_carries_earlier_choices():
    chat = ScriptedChat()
    candidates_script(chat, [f"title {i} t{i}" for i in range(25)], "title")
    candidates_script(chat, list(range(0, 250, 10)), "priority", numeric=True)
    yes_validator(chat)
    lib, groups, gen = setup_gen(chat, seed=42)
    result = gen.generate_single_params(lib[3])
    priority_call = next(c for c in chat.calls
                         if "[[ ## parameter_name ## ]]\npriority" in c)
    context = priority_call.split("[[ ## other_parameter_values ## ]]\n")[1]
    context = context.split("\n\n[[ ##")[0]
    assert json.loads(context) == {"title": result.arguments["title"]}
