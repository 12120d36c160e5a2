"""MarginalScorer must reproduce evaluate_battery on corpus + [candidate] within
1e-12, for every candidate of a batch, with the same per-metric orders under
the ranking's rounded sort key."""

import math
import random

import numpy as np

from divgen.fixtures import repetitive_corpus, varied_corpus
from divgen.metrics.battery import (
    OPTIMIZED_METRICS,
    EmbeddingCache,
    MarginalScorer,
    evaluate_battery,
)
from divgen.metrics.text import tokenize
from divgen.providers.hash_embed import HashEmbedder
from divgen.querygen import rank_candidates_by_diversity

SOURCES = {"varied": varied_corpus(), "repetitive": repetitive_corpus()}
UNSHARED = "Zephyr quokkas juggle xylophones. Gnarly yaks whizz by!"
TEXT_METRICS = ("ttr", "compression_ratio", "parse_tree_entropy", "var_fkgl", "var_length")


def assert_close(got, want, context):
    """Within 1e-12, and the text metrics exactly equal."""
    assert got.keys() == want.keys()
    for metric, value in want.items():
        assert math.isclose(got[metric], value, rel_tol=1e-12, abs_tol=1e-12), \
            (metric, got[metric], value, context)
    assert {m: got[m] for m in TEXT_METRICS} == {m: want[m] for m in TEXT_METRICS}, context


def rounded_orders(scores):
    """Each optimized metric's order of ``scores`` under the ranking's sort key."""
    return {metric: sorted(range(len(scores)),
                           key=lambda i: (-round(scores[i][metric], 12), i))
            for metric in OPTIMIZED_METRICS}


def test_unshared_candidate_shares_no_token_with_the_fixtures():
    fixture_tokens = {t for texts in SOURCES.values() for q in texts for t in tokenize(q)}
    assert tokenize(UNSHARED) and not set(tokenize(UNSHARED)) & fixture_tokens


def test_scorer_equals_evaluate_battery_within_1e_12():
    cache = EmbeddingCache(HashEmbedder())
    checked = 0
    for name, source in SOURCES.items():
        rng = random.Random(name)
        for size in range(61):
            corpus = [rng.choice(source) for _ in range(size)]
            candidates = [
                rng.choice(source),
                " ".join(rng.sample(source, 3)),  # several sentences
                UNSHARED,
            ]
            if corpus:
                candidates.append(rng.choice(corpus))  # duplicates a corpus query
            scorer = MarginalScorer(corpus, cache)
            for cand in candidates:
                texts = corpus + [cand]
                [got] = scorer.score([cand])
                assert_close(got, evaluate_battery(texts, cache.matrix(texts)),
                             (name, size, cand))
                checked += 1
    assert checked == 2 * (61 * 4 - 1)


BATCH_SIZES = (1, 2, 5, 6, 9)
CORPUS_SIZES = (0, 1, 2, 7, 34, 128, 129, 400, 700)
CANDIDATE_SOURCE = SOURCES["varied"] + SOURCES["repetitive"]


def new_candidates(rng, source, corpus, scored, count):
    """``count`` distinct candidates not scored yet; one equals a corpus query
    when the corpus has one that is still unscored."""
    batch = [q for q in dict.fromkeys(corpus) if q not in scored][:1]
    while len(batch) < count:
        cand = " ".join(rng.sample(source, rng.randint(1, 3)))
        if rng.random() < 0.2:
            cand = f"{cand} {UNSHARED}"
        if cand not in scored and cand not in batch:
            batch.append(cand)
    return batch[:count]


def test_batched_scores_equal_evaluate_battery():
    # The scorer's sums and products round differently from the oracle's in
    # the last bits; the rounded sort key must not see it. One scorer is grown
    # through the corpus sizes, then synced to a corpus it does not hold a
    # prefix of, which rebuilds it.
    cache = EmbeddingCache(HashEmbedder())
    checked = 0
    for name, source in SOURCES.items():
        rng = random.Random(f"batch-{name}")
        grown = [rng.choice(source) for _ in range(CORPUS_SIZES[-1])]
        other = [rng.choice(source) for _ in range(34)]
        assert other != grown[:34]
        scorer = MarginalScorer([], cache)
        for corpus in [grown[:size] for size in CORPUS_SIZES] + [other]:
            scorer.sync(corpus)
            scored: set[str] = set()
            for count in BATCH_SIZES:
                batch = new_candidates(rng, CANDIDATE_SOURCE, corpus, scored, count)
                assert len(set(batch)) == count and not scored & set(batch)
                if count > 1:
                    batch.insert(1, batch[-1])  # a duplicate inside the batch
                scores = scorer.score(batch)
                assert len(scores) == len(batch)
                oracle = []
                for cand, got in zip(batch, scores):
                    texts = corpus + [cand]
                    oracle.append(evaluate_battery(texts, cache.matrix(texts)))
                    assert_close(got, oracle[-1], (name, len(corpus), count, cand))
                    checked += 1
                assert rounded_orders(scores) == rounded_orders(oracle), (name, len(corpus))
                scored.update(batch)
    assert checked == 2 * (len(CORPUS_SIZES) + 1) * (sum(BATCH_SIZES) + len(BATCH_SIZES) - 1)


def test_sync_drops_the_scores_of_the_previous_corpus():
    cache = EmbeddingCache(HashEmbedder())
    corpus = SOURCES["varied"][:6]
    scorer = MarginalScorer(corpus[:3], cache)
    batch = [corpus[3], UNSHARED]
    before = scorer.score(batch)
    for size in (5, 6, 2):  # grown twice, then rebuilt
        scorer.sync(corpus[:size])
        got = scorer.score(batch)
        for scores, texts in zip(got, (corpus[:size] + [c] for c in batch)):
            assert_close(scores, evaluate_battery(texts, cache.matrix(texts)), size)
        assert got != before


def test_score_evaluates_each_distinct_new_candidate_once_per_call(monkeypatch):
    batches = []
    evaluate = MarginalScorer._evaluate_batch

    def counting(self, candidates):
        batches.append(list(candidates))
        return evaluate(self, candidates)

    monkeypatch.setattr(MarginalScorer, "_evaluate_batch", counting)
    scorer = MarginalScorer(SOURCES["varied"][:5], EmbeddingCache(HashEmbedder()))
    a, b, c = SOURCES["varied"][5:8]
    first = scorer.score([a, b, a])
    second = scorer.score([b, c, c, a])
    assert batches == [[a, b], [c]]
    assert first == [second[3], second[0], second[3]]
    assert scorer.score([a, c]) == [second[3], second[1]] and len(batches) == 2


class FixedScorer:
    """A stand-in scorer that returns fixed scores."""

    def __init__(self, scores):
        self.scores = scores

    def score(self, candidates):
        return [self.scores[c] for c in candidates]


def test_a_one_ulp_chamfer_gap_ties_and_breaks_by_index():
    low = 0.25
    high = math.nextafter(low, 1.0)  # one ulp above: 5.6e-17
    base = dict.fromkeys(OPTIMIZED_METRICS, 1.0)
    scorer = FixedScorer({"a": {**base, "chamfer": low}, "b": {**base, "chamfer": high}})
    for pool in (["a", "b"], ["b", "a"]):
        _, ranks, _ = rank_candidates_by_diversity(scorer, pool)
        assert (ranks[pool[0]]["chamfer"], ranks[pool[1]]["chamfer"]) == (1, 2)


def test_word_order_permutations_share_a_row_and_rank_by_index():
    cache = EmbeddingCache(HashEmbedder())
    first = "Find a cheap hotel in Paris for tonight."
    second = "Tonight find in Paris a hotel for cheap."
    other = "Convert ninety dollars into yen for the trip."
    assert sorted(tokenize(first)) == sorted(tokenize(second))
    assert np.array_equal(cache.matrix([first]), cache.matrix([second]))
    scorer = MarginalScorer(SOURCES["varied"][:30], cache)
    scores = dict(zip((first, other, second), scorer.score([first, other, second])))
    for pool in ([first, second, other], [second, first, other]):
        _, ranks, _ = rank_candidates_by_diversity(scorer, pool)
        for metric in ("paraphrase_variety", "chamfer", "vendi"):
            assert scores[first][metric] == scores[second][metric]
            assert ranks[pool[1]][metric] == ranks[pool[0]][metric] + 1
