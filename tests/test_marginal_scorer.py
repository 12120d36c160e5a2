"""MarginalScorer must reproduce evaluate_battery on corpus + [candidate] exactly."""

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
                assert scorer.score(cand) == evaluate_battery(texts, cache.matrix(texts)), \
                    (name, size, cand)
                checked += 1
    assert checked == 2 * (61 * 4 - 1)

