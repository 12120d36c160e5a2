"""MarginalScorer must reproduce evaluate_battery on corpus + [candidate] exactly,
for every candidate of a batch."""

import random

from divgen.fixtures import repetitive_corpus, varied_corpus
from divgen.metrics.battery import EmbeddingCache, MarginalScorer, evaluate_battery
from divgen.metrics.text import tokenize
from divgen.providers.hash_embed import HashEmbedder

SOURCES = {"varied": varied_corpus(), "repetitive": repetitive_corpus()}
UNSHARED = "Zephyr quokkas juggle xylophones. Gnarly yaks whizz by!"


def test_unshared_candidate_shares_no_token_with_the_fixtures():
    fixture_tokens = {t for texts in SOURCES.values() for q in texts for t in tokenize(q)}
    assert tokenize(UNSHARED) and not set(tokenize(UNSHARED)) & fixture_tokens


def test_scorer_equals_evaluate_battery_bit_for_bit():
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
                assert scorer.score([cand]) == [evaluate_battery(texts, cache.matrix(texts))], \
                    (name, size, cand)
                checked += 1
    assert checked == 2 * (61 * 4 - 1)


BATCH_SIZES = (1, 2, 5, 6, 9)
CORPUS_SIZES = (0, 1, 2, 7, 34, 128, 129, 400)
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
    # 2-D reductions over the stack (a mean over axis 1, say) round differently
    # from the oracle's 1-D ones in the last bits, mostly at N >= 7. One scorer
    # is grown through the corpus sizes, then synced to a corpus it does not
    # hold a prefix of, which rebuilds it.
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
                for cand, got in zip(batch, scores):
                    texts = corpus + [cand]
                    assert got == evaluate_battery(texts, cache.matrix(texts)), \
                        (name, len(corpus), count, cand)
                    checked += 1
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
        assert got == [evaluate_battery(t, cache.matrix(t))
                       for t in (corpus[:size] + [c] for c in batch)]
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
