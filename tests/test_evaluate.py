import json
import math
import random
import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from divgen.evaluate import (
    analyze_corpus,
    collect_group_values,
    compare_argument_diversity,
    compare_linguistic_diversity,
    judge_tool_call_equivalence,
    paired_model_comparison,
)
from divgen.fixtures import repetitive_corpus, varied_corpus
from divgen.metrics import battery, cluster_entropy, semantic, stats, text, trees
from divgen.metrics.battery import (
    METRICS,
    REPORT_METRICS,
    Corpus,
    EmbeddingCache,
    evaluate_full_battery,
)
from divgen.metrics.cluster_entropy import query_entropy_over_indices, value_entropy_over_indices
from divgen.metrics.dbscan import dbscan
from divgen.metrics.semantic import UnitRows
from divgen.metrics.stats import DRAW_MEMO_SIZE, bootstrap_std
from divgen.metrics.text import (
    fkgl_grade,
    ncd_over_indices,
    simpson_index,
    tokenize,
    type_token_ratio,
    variance,
)
from divgen.metrics.trees import avg_tree_edit_distance, chunks, parse_tree_entropy, sentences_of
from divgen.model import ExecutionType, GeneratedExample, Invocation, ModelError
from divgen.preprocess import group_parameters
from divgen.providers.base import SignatureClient
from divgen.providers.hash_embed import HashEmbedder
from divgen.providers.mock import ScriptedChat
from test_preprocess import fn, param
from test_text_metrics import reference_ncd_diversity


def test_corpus_vs_itself_never_significant(embedder):
    corpus = varied_corpus()[:12]
    report = compare_linguistic_diversity(corpus, corpus, embedder, seed=3)
    assert len(report.rows) == 12
    assert all(not r.significant for r in report.rows)


def test_fixture_pair_direction_check(embedder):
    report = compare_linguistic_diversity(
        varied_corpus(), repetitive_corpus(), embedder, seed=5,
        label_a="varied", label_b="repetitive")
    wins = [r.metric for r in report.rows
            if r.metric != "var_length" and r.score_a > r.score_b]
    assert len(wins) >= 11
    anomaly = report.row("var_length")
    assert anomaly.score_b > anomaly.score_a  # long outliers inflate the variance


def test_report_bytes_reproducible(embedder):
    corpus = varied_corpus()[:15]
    a = json.dumps(analyze_corpus(corpus, embedder, seed=7).to_dict())
    b = json.dumps(analyze_corpus(corpus, embedder, seed=7).to_dict())
    assert a == b


def test_report_internal_consistency(embedder):
    report = compare_linguistic_diversity(
        varied_corpus()[:20], repetitive_corpus()[:20], embedder, seed=1)
    from divgen.metrics.stats import significance
    for row in report.rows:
        sig, direction = significance(row.score_a, row.std_a, row.score_b, row.std_b)
        assert sig == row.significant
        assert direction == row.direction


def test_report_table_lists_every_metric(embedder):
    report = analyze_corpus(varied_corpus()[:10], embedder, seed=0)
    table = report.to_table()
    for metric in REPORT_METRICS:
        assert metric in table


# --- argument diversity ----------------------------------------------------------


def city_example(eid, city, function="city_weather"):
    return GeneratedExample(
        id=eid, execution_type=ExecutionType.SINGLE,
        query=f"check {city}",
        target_invocations=(Invocation(function, {"city": city}),),
        candidate_functions=(function,), metadata={})


def shared_library():
    return [fn("city_weather", param("city", "names the destination city"),
               description="weather by city")]


def test_collect_group_values_skips_sentinels(embedder):
    lib = shared_library()
    groups = group_parameters(lib, embedder, 0.6)
    examples = [city_example("e1", "Oslo"),
                GeneratedExample(
                    id="e2", execution_type=ExecutionType.MISSING_PARAMS,
                    query="q",
                    target_invocations=(Invocation("city_weather",
                                                   {"city": "__MISSING__"}),),
                    candidate_functions=("city_weather",), metadata={})]
    values = collect_group_values(examples, groups)
    assert list(values.values()) == [["Oslo"]]


def test_argument_diversity_distinct_values_hit_max(embedder):
    lib = shared_library()
    cities_a = [f"city{i} alpha{i} beta{i} gamma{i} delta{i}" for i in range(20)]
    cities_b = ["Same Place"] * 20
    ex_a = [city_example(f"a{i}", c) for i, c in enumerate(cities_a)]
    ex_b = [city_example(f"b{i}", c) for i, c in enumerate(cities_b)]
    result = compare_argument_diversity(ex_a, ex_b, lib, lib, embedder, seed=2)
    assert len(result["groups"]) == 1
    row = result["groups"][0]
    assert row["ce_a"] == pytest.approx(math.log2(20), abs=1e-9)
    assert row["ce_b"] == 0.0
    assert row["ce_significant"] and row["ce_direction"] == 1
    assert result["average"]["ce_a"] == pytest.approx(4.3219, abs=1e-4)


def test_argument_diversity_no_shared_groups_warns(embedder):
    lib = shared_library()
    examples = [city_example(f"a{i}", f"city {i}") for i in range(5)]  # < 20
    result = compare_argument_diversity(examples, examples, lib, lib, embedder)
    assert result["groups"] == []
    assert "warning" in result


def test_argument_diversity_reproducible(embedder):
    lib = shared_library()
    rng = random.Random(0)
    cities = [f"town{i} r{rng.randrange(99)}" for i in range(30)]
    examples = [city_example(f"a{i}", c) for i, c in enumerate(cities)]
    r1 = compare_argument_diversity(examples, examples, lib, lib, embedder, seed=4)
    r2 = compare_argument_diversity(examples, examples, lib, lib, embedder, seed=4)
    assert json.dumps(r1) == json.dumps(r2)


# --- model comparison ---------------------------------------------------------------


def test_equivalence_judge(embedder):
    schema = fn("get_restaurants", param("location", "city to search"),
                description="find restaurants")
    chat = ScriptedChat().script_output(
        "ToolCallEquivalence",
        {"reasoning": "the two location spellings name the same city and the"
                      " calls would return identical results",
         "equivalent": "YES"})
    ok, reasoning = judge_tool_call_equivalence(
        "find italian restaurants in new york", schema,
        {"name": "get_restaurants", "arguments": {"location": "New York"}},
        {"name": "get_restaurants", "arguments": {"location": "NYC"}},
        SignatureClient(chat, 3, {}))
    assert ok
    assert "same city" in reasoning

    chat = ScriptedChat().script_output(
        "ToolCallEquivalence",
        {"reasoning": "different tools entirely", "equivalent": "NO"})
    ok, _ = judge_tool_call_equivalence(
        "q", schema, {"name": "a"}, {"name": "b"}, SignatureClient(chat, 3, {}))
    assert not ok


def test_paired_comparison_identical_labels():
    labels = [True, False, True, True]
    result = paired_model_comparison(labels, labels)
    assert result["b"] == result["c"] == 0
    assert result["p_value"] == 1.0
    assert not result["significant"]


def test_paired_comparison_constructed_5_15():
    # 5 items only A correct, 15 items only B correct, plus agreements
    labels_a = [True] * 5 + [False] * 15 + [True] * 10
    labels_b = [False] * 5 + [True] * 15 + [True] * 10
    result = paired_model_comparison(labels_a, labels_b)
    assert (result["b"], result["c"]) == (5, 15)
    assert result["p_value"] == pytest.approx(0.0414, abs=5e-4)
    assert result["significant"]


def test_paired_comparison_categories_with_holm():
    # three categories engineered to give small p-values
    labels_a, labels_b, cats = [], [], []
    for cat, (b, c) in {"one": (0, 12), "two": (1, 12), "three": (2, 13)}.items():
        labels_a += [True] * b + [False] * c
        labels_b += [False] * b + [True] * c
        cats += [cat] * (b + c)
    result = paired_model_comparison(labels_a, labels_b, categories=cats)
    rows = {r["category"]: r for r in result["categories"]}
    assert set(rows) == {"one", "two", "three"}
    from divgen.metrics.stats import holm_bonferroni
    pvalues = [rows[c]["p_value"] for c in sorted(rows)]
    want = holm_bonferroni(pvalues, 0.05)
    assert [rows[c]["significant"] for c in sorted(rows)] == want


def test_paired_comparison_validates_input():
    with pytest.raises(ValueError):
        paired_model_comparison([True], [True, False])
    with pytest.raises(ValueError):
        paired_model_comparison([], [])


def test_group_value_frequencies_table(embedder):
    from divgen.evaluate import collect_group_values, value_frequencies
    from divgen.preprocess import group_parameters as gp
    lib = shared_library()
    groups = gp(lib, embedder, 0.6)
    examples = [city_example("e1", "Oslo"), city_example("e2", "Oslo"),
                city_example("e3", "Kyoto")]
    tables = value_frequencies(collect_group_values(examples, groups))
    (gid, table), = tables.items()
    assert table == {"Oslo": 2, "Kyoto": 1}
    assert list(table) == ["Oslo", "Kyoto"]  # most frequent first


def test_argument_comparison_carries_frequency_tables(embedder):
    lib = shared_library()
    ex_a = [city_example(f"a{i}", f"town{i} alpha{i}") for i in range(20)]
    ex_b = [city_example(f"b{i}", "Same Place") for i in range(20)]
    result = compare_argument_diversity(ex_a, ex_b, lib, lib, embedder, seed=1)
    row = result["groups"][0]
    assert row["frequencies_b"] == {"Same Place": 20}
    assert len(row["frequencies_a"]) == 20


def test_argument_comparison_collects_each_dataset_once(monkeypatch, embedder):
    import divgen.evaluate as evaluate
    collected = []

    def counting(examples, groups):
        collected.append(examples)
        return collect_group_values(examples, groups)

    monkeypatch.setattr(evaluate, "collect_group_values", counting)
    lib = shared_library()
    ex_a = [city_example(f"a{i}", f"town{i} alpha{i}") for i in range(20)]
    ex_b = [city_example(f"b{i}", "Same Place") for i in range(20)]
    result = compare_argument_diversity(ex_a, ex_b, lib, lib, embedder, seed=1)
    assert collected == [ex_a, ex_b]
    assert result["groups"][0]["frequencies_b"] == {"Same Place": 20}


def test_metric_table_looks_metrics_up_at_call_time(monkeypatch, embedder):
    # tracing rebinds battery's metric names; every battery path must see that
    import divgen.metrics.battery as battery
    texts = ["find a cheap hotel in rome", "what is the weather in oslo tomorrow"]
    emb = battery.EmbeddingCache(embedder).matrix(texts)
    monkeypatch.setattr(battery, "vendi_score", lambda embeddings: 42.0)
    monkeypatch.setattr(battery, "semantic_spread", lambda embeddings: -1.0)
    assert battery.evaluate_battery(texts, emb)["vendi"] == 42.0
    full = battery.evaluate_full_battery(texts, emb)
    assert list(full) == list(REPORT_METRICS)
    assert (full["vendi"], full["semantic_spread"]) == (42.0, -1.0)
    corpus = battery.Corpus(texts, emb)
    assert battery.METRICS["vendi"](corpus, [0, 1]) == 42.0
    monkeypatch.setattr(battery, "query_entropy_over_indices",
                        lambda embeddings: lambda indices: 7.0)
    assert battery.METRICS["cluster_entropy"](corpus, [1]) == 7.0


def report_corpus(size):
    """``size`` texts: the bundled corpora's queries, multi-sentence texts and,
    from two texts on, one text repeated."""
    texts = (varied_corpus() + repetitive_corpus())[:max(1, size - 8)]
    texts += [f"{a} {b}" for a, b in zip(varied_corpus(), repetitive_corpus()[3:])]
    texts = texts[:size]
    if size > 1:
        texts[-1] = texts[0]
    return texts


@pytest.mark.parametrize("size", [1, 2, 40])
def test_report_resamples_equal_the_metrics_on_gathered_rows(size, embedder):
    texts = report_corpus(size)
    assert len(texts) == size
    if size == 40:
        assert len(set(texts)) < size
        assert sum(text.count(".") + text.count("?") > 1 for text in texts) >= 5
    emb = EmbeddingCache(embedder).matrix(texts)
    rng = random.Random(size)
    # the full corpus, then resamples that repeat indices
    resamples = [list(range(size)), [0, 0]] + [
        rng.choices(range(size), k=max(2, size * 4 // 5)) for _ in range(6)]
    corpus = Corpus(texts, emb)
    for idx in resamples:
        want = evaluate_full_battery([texts[i] for i in idx], emb[np.array(idx)])
        for name in REPORT_METRICS:
            assert METRICS[name](corpus, idx) == want[name], (name, idx)


def test_a_report_normalises_its_rows_once_and_splits_each_text_once(monkeypatch, embedder):
    corpus = report_corpus(40)
    normalised = []
    unit_rows = semantic.unit_rows

    def counting_unit_rows(embeddings, allow_zero=False):
        if not isinstance(embeddings, UnitRows):
            normalised.append(len(semantic._stack(embeddings)))
        return unit_rows(embeddings, allow_zero)

    split = []
    pattern = text.SENTENCE_SPLIT_RE

    class CountingSplit:
        def split(self, text):
            split.append(text)
            return pattern.split(text)

    monkeypatch.setattr(semantic, "unit_rows", counting_unit_rows)
    monkeypatch.setattr(text, "SENTENCE_SPLIT_RE", CountingSplit())
    fkgl_grade.cache_clear()  # a cold FKGL memo splits nothing more
    analyze_corpus(corpus, embedder, seed=3)
    # the full corpus once; every other row normalised is semantic_spread's
    # centroid, one per score
    assert normalised.count(len(corpus)) == 1
    assert normalised.count(1) == 101 and len(normalised) == 102
    # each text once per Corpus, a repeated text as often as it occurs
    assert sorted(split) == sorted(corpus)


def test_a_report_chunks_each_sentence_once(monkeypatch, embedder):
    corpus = report_corpus(40)
    chunked = []
    chunker = trees.chunks

    def counting_chunks(tokens):
        chunked.append(tokens)
        return chunker(tokens)

    for module in (trees, battery):
        monkeypatch.setattr(module, "chunks", counting_chunks)
    analyze_corpus(corpus, embedder, seed=3)
    assert chunked == [s for q in corpus for s in sentences_of(q)]


# --- per-corpus tables ------------------------------------------------------------

_WORDS = ("find", "a", "cheap", "hotel", "in", "rome", "book", "the", "flight",
          "to", "oslo", "weather", "tomorrow", "42")
_sentences = st.lists(st.sampled_from(_WORDS), min_size=1, max_size=5).map(" ".join)
# single- and multi-sentence queries
_queries = st.lists(_sentences, min_size=1, max_size=3).map(lambda parts: ". ".join(parts) + "?")
_STRING_VALUES = ("downtown river plaza branch office north wing",
                  "downtown river plaza branch office north wing annex",
                  "downtown river plaza branch office south wing", "Oslo", "oslo", "42",
                  "a much longer value with several words in it")
_NUMERICAL_VALUES = (0, 0.3, 0.6, 1.7, 2, "2.4", 10, -3.5, 1.7e9, 1.7e9 + 0.4, "7")


def _samples(n, rng):
    """The whole sample, then subsets drawn as the bootstrap draws them."""
    return [list(range(n))] + [rng.sample(range(n), k) for k in (max(2, n * 4 // 5), 2, n)]


def _same(got, want):
    assert float(got).hex() == float(want).hex()


def _dbscan_entropy(points, eps, metric):
    """Cluster entropy by ``dbscan`` itself, not through a neighbourhood table."""
    return cluster_entropy.cluster_entropy_bits(
        dbscan(points, eps, cluster_entropy.MIN_SAMPLES, metric))


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_every_table_path_equals_the_metric_on_the_gathered_items(data):
    size = data.draw(st.sampled_from([2, 3, 40]))
    rng = random.Random(data.draw(st.integers(0, 10_000)))
    texts = data.draw(st.lists(_queries, min_size=size, max_size=size))
    texts[-1] = texts[0]  # a repeated text
    emb = EmbeddingCache(HashEmbedder()).matrix(texts)
    corpus = Corpus(texts, emb)
    queries = query_entropy_over_indices(corpus.rows)
    for idx in _samples(size, rng):
        gathered = [texts[i] for i in idx]
        _same(METRICS["ttr"](corpus, idx), type_token_ratio(gathered))
        _same(METRICS["simpson"](corpus, idx), simpson_index(gathered))
        _same(METRICS["parse_tree_entropy"](corpus, idx), parse_tree_entropy(gathered))
        _same(METRICS["tree_edit_distance"](corpus, idx), avg_tree_edit_distance(gathered))
        _same(METRICS["var_fkgl"](corpus, idx), variance([fkgl_grade(t) for t in gathered]))
        _same(METRICS["var_length"](corpus, idx),
              variance([float(len(tokenize(t))) for t in gathered]))
        _same(queries(idx), _dbscan_entropy(emb[np.array(idx)], cluster_entropy.QUERY_EPS,
                                            "cosine"))
    # the reference points are built here, not by the path under test
    for category, pool, points, eps, metric in (
            ("STRING", _STRING_VALUES, lambda vs: HashEmbedder().embed([str(v) for v in vs]),
             cluster_entropy.STRING_EPS, "cosine"),
            ("NUMERICAL", _NUMERICAL_VALUES, lambda vs: [float(v) for v in vs],
             cluster_entropy.NUMERIC_EPS, "euclidean")):
        values = data.draw(st.lists(st.sampled_from(pool), min_size=size, max_size=size))
        values[-1] = values[0]  # a repeated value
        entropies = value_entropy_over_indices(values, category, HashEmbedder())
        ncd = ncd_over_indices([str(v) for v in values])
        for idx in _samples(size, rng):
            gathered = [values[i] for i in idx]
            _same(entropies(idx), _dbscan_entropy(points(gathered), eps, metric))
            _same(ncd(idx), reference_ncd_diversity(gathered))


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(_queries, min_size=1, max_size=30), st.data())
def test_a_corpus_grown_by_appends_equals_one_built_at_once(texts, data):
    cuts = sorted(data.draw(st.lists(st.integers(0, len(texts)), max_size=4)))
    emb = EmbeddingCache(HashEmbedder()).matrix(texts)
    grown = Corpus()
    for start, stop in zip([0] + cuts, cuts + [len(texts)]):
        grown.append(texts[start:stop], emb[start:stop])
        if grown.texts:
            grown.tree_distances  # an append must drop the table of fewer shapes
    whole = Corpus(texts, emb)
    assert grown.texts == whole.texts == texts
    assert grown.rows.raw.tobytes() == whole.rows.raw.tobytes() == emb.tobytes()
    assert grown.rows.unit.tobytes() == whole.rows.unit.tobytes()
    assert (grown.n_tokens, grown.shape_counts) == (whole.n_tokens, whole.shape_counts)
    assert grown.n_tokens == sum(grown.lengths)
    assert grown.shape_counts == Counter(np.concatenate(whole.shape_ids).tolist())
    assert grown.vocabulary == whole.vocabulary
    # shape ids in order of first appearance, one per sentence
    assert grown.shapes == whole.shapes == {
        shape: k for k, shape in enumerate(dict.fromkeys(
            chunks(s) for t in texts for s in sentences_of(t)))}
    for ids in ("token_ids", "shape_ids"):
        assert ([a.tolist() for a in getattr(grown, ids)]
                == [a.tolist() for a in getattr(whole, ids)])
    assert (grown.lengths, grown.fkgls) == (whole.lengths, whole.fkgls)
    assert grown.tree_distances.tolist() == whole.tree_distances.tolist()
    text_metrics = ("ttr", "simpson", "compression_ratio", "parse_tree_entropy",
                    "var_fkgl", "var_length", "tree_edit_distance")
    for _ in range(3):
        idx = data.draw(st.lists(st.integers(0, len(texts) - 1), min_size=1, max_size=40))
        for name in text_metrics:
            _same(METRICS[name](grown, idx), METRICS[name](whole, idx))


def test_a_compare_draws_each_seeds_resamples_once(monkeypatch, embedder):
    calls = []
    sample = random.Random.sample

    def counting_sample(self, population, k, **kwargs):
        calls.append(k)
        return sample(self, population, k, **kwargs)

    monkeypatch.setattr(random.Random, "sample", counting_sample)
    stats._draws.cache_clear()
    corpus = report_corpus(40)
    compare_linguistic_diversity(corpus, corpus[::-1], embedder, seed=5)
    # 12 metrics x 100 resamples of 32, drawn for A and reused for B
    assert calls == [32] * 1200
    info = stats._draws.cache_info()
    assert (info.misses, info.hits, info.currsize) == (12, 12, 12)
    for seed in range(3 * DRAW_MEMO_SIZE):
        bootstrap_std(corpus, len, seed=seed)
    assert stats._draws.cache_info().currsize == DRAW_MEMO_SIZE


def test_each_table_is_built_once_per_corpus_and_value_sample(monkeypatch, embedder):
    built, scored = Counter(), Counter()

    def counting(owner, name):
        build = getattr(owner, name)

        def counting_build(*args):
            built[name] += 1
            table = build(*args)
            return lambda idx: scored.update([name]) or table(idx)

        monkeypatch.setattr(owner, name, counting_build)

    import divgen.evaluate as evaluate
    counting(battery, "query_entropy_over_indices")
    counting(evaluate, "value_entropy_over_indices")
    counting(evaluate, "ncd_over_indices")
    recorded = []
    append = Corpus.append
    monkeypatch.setattr(Corpus, "append",
                        lambda self, texts, rows=None:
                        recorded.append(list(texts)) or append(self, texts, rows))
    corpus = report_corpus(40)
    compare_linguistic_diversity(corpus, corpus[::-1], embedder, seed=5)
    # one neighbourhood table and one set of text records per corpus, each
    # read for the corpus's score and its 100 resamples
    assert built == {"query_entropy_over_indices": 2}
    assert scored == {"query_entropy_over_indices": 202}
    assert recorded == [corpus, corpus[::-1]]
    built.clear()
    scored.clear()
    lib = shared_library()
    ex_a = [city_example(f"a{i}", f"town{i} alpha{i}") for i in range(20)]
    ex_b = [city_example(f"b{i}", "Same Place") for i in range(20)]
    compare_argument_diversity(ex_a, ex_b, lib, lib, embedder, seed=1)
    # per value sample, one neighbourhood table and one NCD table, each read
    # for the sample's score and its 100 resamples
    assert built == {"value_entropy_over_indices": 2, "ncd_over_indices": 2}
    assert scored == {"value_entropy_over_indices": 202, "ncd_over_indices": 202}


def test_analyze_refuses_a_tokenless_query_before_embedding():
    class Unreachable:
        def embed(self, texts):
            raise AssertionError("embedded a corpus the report refuses")

    with pytest.raises(ModelError, match="^corpus: query 2 has no word token$"):
        analyze_corpus(["Find a hotel in Paris.", "你好吗？"], Unreachable())
    with pytest.raises(ValueError, match="^corpus: cannot analyze an empty corpus$"):
        analyze_corpus([], Unreachable())


def test_the_report_scores_come_from_the_registry_not_the_battery(monkeypatch, embedder):
    import divgen.evaluate as evaluate

    def unreachable(*args, **kwargs):
        raise AssertionError("the report scored outside the metric registry")

    monkeypatch.setattr(evaluate, "evaluate_full_battery", unreachable)
    monkeypatch.setattr(evaluate, "value_cluster_entropy", unreachable)
    report = analyze_corpus(report_corpus(12), embedder, seed=2)
    assert [row.metric for row in report.rows] == list(REPORT_METRICS)
    lib = shared_library()
    ex_a = [city_example(f"a{i}", f"town{i} alpha{i}") for i in range(20)]
    ex_b = [city_example(f"b{i}", "Same Place") for i in range(20)]
    result = compare_argument_diversity(ex_a, ex_b, lib, lib, embedder, seed=1)
    assert result["groups"][0]["ce_b"] == 0.0


@pytest.mark.parametrize("category, bad, problem", [
    ("STRING", "東京", "has no word token"),
    ("NUMERICAL", "soon", "is not a finite number"),
    ("NUMERICAL", float("inf"), "is not a finite number"),
])
def test_argument_comparison_refuses_a_value_it_cannot_place(embedder, category, bad, problem):
    kind = "string" if category == "STRING" else "number"
    lib = [fn("city_weather", param("city", "names the destination city", declared=kind),
              description="weather by city")]
    good = "Oslo" if category == "STRING" else 3
    ex_a = [city_example(f"a{i}", good) for i in range(25)]
    ex_b = [city_example(f"b{i}", good if i else bad) for i in range(25)]
    # the bad value is refused whichever values the seed samples
    for seed in range(3):
        with pytest.raises(ModelError,
                           match=f"^dataset B: group \\S+: {re.escape(repr(bad))} {problem}$"):
            compare_argument_diversity(ex_a, ex_b, lib, lib, embedder, seed=seed)
