"""MarginalScorer must reproduce evaluate_battery on corpus + [candidate] within
1e-12, for every candidate of a batch, with the same per-metric orders under
the ranking's rounded sort key."""

import math
import random

import numpy as np
import pytest

import divgen.metrics.battery as battery
import divgen.metrics.semantic as semantic
import divgen.metrics.text as text
from divgen.evaluate import analyze_corpus
from divgen.fixtures import repetitive_corpus, varied_corpus
from divgen.metrics.battery import (
    OPTIMIZED_METRICS,
    EmbeddingCache,
    MarginalScorer,
    evaluate_battery,
)
from divgen.metrics.semantic import unit_rows
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


def by_metric(rows):
    """Each score row as a dict keyed by metric."""
    return [dict(zip(OPTIMIZED_METRICS, row)) for row in rows]


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
                [got] = by_metric(scorer.score([cand]))
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
                scores = by_metric(scorer.score(batch))
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


class TableEmbedder:
    """Embeds each text as the row a test gave it."""

    def __init__(self, rows):
        self.rows = rows

    def embed(self, texts):
        return [self.rows[text] for text in texts]


def span_cases(seed, width, size):
    """A seeded corpus of ``size`` texts with ``width``-wide rows and its
    candidates, with their rows. The corpus repeats a text and gives two
    other texts one row direction, so N = d rows span less than the space.
    The candidates: a corpus text, a new text on a corpus row, two rows in
    the corpus's span, a random row, and one orthogonal to the span."""
    rng = np.random.default_rng([seed, width, size])
    corpus = [f"request {i} for seed {seed}" for i in range(size)]
    rows = {text: row for text, row in zip(corpus, rng.standard_normal((size, width)))}
    if size > 3:
        corpus[-1] = corpus[0]
        rows[corpus[2]] = 3.0 * rows[corpus[1]]
    held = np.array([rows[text] for text in corpus])
    outside = rng.standard_normal(width)
    _, singular, basis = np.linalg.svd(held)
    rank = int(np.sum(singular > 1e-9))
    candidates = {
        "a corpus row": held[size // 2],
        "inside the span": held[0] + 0.5 * held[-2],
        "inside it too": held[1] - 2.0 * held[size // 3],
        "a random row": outside,
    }
    if rank < width:
        candidates["orthogonal to the span"] = basis[rank:].T @ rng.standard_normal(width - rank)
    rows.update(candidates)
    return corpus, [corpus[1], *candidates], rows


def recorded_eigh_shapes(monkeypatch):
    """The list to which each later ``np.linalg.eigh`` call appends the shape
    of the matrix it reads."""
    shapes, eigh = [], np.linalg.eigh

    def recorded(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", recorded)
    return shapes


@pytest.mark.parametrize("width, size", [(6, 5), (6, 6), (6, 7), (16, 15), (16, 16),
                                         (16, 17), (6, 70), (16, 200)])
def test_vendi_is_within_1e_12_of_evaluate_battery_around_n_equals_d(width, size, monkeypatch):
    # the quadrature against the (N+1)² eigendecomposition; rounded scores
    # need not be equal
    shapes = recorded_eigh_shapes(monkeypatch)
    for seed in range(4):
        corpus, candidates, rows = span_cases(seed, width, size)
        cache = EmbeddingCache(TableEmbedder(rows))
        shapes.clear()
        scorer = MarginalScorer(corpus, cache)
        assert shapes == [(min(size, width),) * 2]
        got = dict(zip(OPTIMIZED_METRICS, scorer.score(candidates).T))["vendi"]
        for cand, vendi in zip(candidates, got):
            texts = corpus + [cand]
            want = evaluate_battery(texts, cache.matrix(texts))["vendi"]
            assert abs(vendi - want) <= 1e-12 * want, (seed, cand, vendi, want)


def test_hash_embedded_vendi_is_within_1e_12_of_evaluate_battery_around_n_equals_d():
    # fixture texts at d = 16: duplicate texts, shared tokens and collisions
    cache = EmbeddingCache(HashEmbedder(dimension=16))
    rng = random.Random("vendi-at-d")
    corpus = [rng.choice(CANDIDATE_SOURCE) for _ in range(17)]
    for size in (15, 16, 17):
        scorer = MarginalScorer(corpus[:size], cache)
        candidates = [corpus[0], UNSHARED, " ".join(corpus[1:3]), SOURCES["varied"][39]]
        got = dict(zip(OPTIMIZED_METRICS, scorer.score(candidates).T))["vendi"]
        for cand, vendi in zip(candidates, got):
            texts = corpus[:size] + [cand]
            want = evaluate_battery(texts, cache.matrix(texts))["vendi"]
            assert abs(vendi - want) <= 1e-12 * want, (size, cand, vendi, want)


def test_sync_drops_the_scores_of_the_previous_corpus():
    cache = EmbeddingCache(HashEmbedder())
    corpus = SOURCES["varied"][:6]
    scorer = MarginalScorer(corpus[:3], cache)
    batch = [corpus[3], UNSHARED]
    before = scorer.score(batch)
    for size in (5, 6, 2):  # grown twice, then rebuilt
        scorer.sync(corpus[:size])
        got = scorer.score(batch)
        for scores, texts in zip(by_metric(got), (corpus[:size] + [c] for c in batch)):
            assert_close(scores, evaluate_battery(texts, cache.matrix(texts)), size)
        assert not np.array_equal(got, before)


def bits(scorer):
    """The scorer's corpus state, as bytes: its distances, rows, the closed
    Gram blocks' sum and the spectrum its Vendi reads."""
    vendi = scorer._vendi
    return (scorer._nearest.tobytes(), scorer._pair_sum.hex(),
            unit_rows(scorer.corpus.rows).tobytes(), scorer.corpus.texts,
            np.asarray(scorer._gram).tobytes(), scorer._closed,
            vendi.eigenvalues.tobytes(), vendi.vectors.tobytes(), vendi.entropy_sum.hex(),
            vendi.resolvent.tobytes())


def test_a_scorer_grown_text_by_text_equals_one_synced_at_once(monkeypatch):
    # at d = 384 the corpus stays on the kernel side; at d = 16 it crosses
    # N = d and the 64-row Gram block boundary
    corpora = {384: SOURCES["varied"][:25] + SOURCES["repetitive"][:25],
               16: SOURCES["varied"] + SOURCES["repetitive"][:30]}
    chunks = {384: (1, 2, 9, 33, 50), 16: (1, 2, 9, 15, 16, 17, 33, 63, 64, 65, 70)}
    batch = [UNSHARED, SOURCES["varied"][30], SOURCES["varied"][3],
             " ".join(SOURCES["varied"][5:8])]
    shapes = recorded_eigh_shapes(monkeypatch)
    for width, corpus in corpora.items():
        cache = EmbeddingCache(HashEmbedder(dimension=width))
        grown, chunked = MarginalScorer([], cache), MarginalScorer([], cache)
        for size in range(len(corpus) + 1):
            grown.sync(corpus[:size])
        assert chunks[width][-1] == len(corpus)
        for size in chunks[width]:
            chunked.sync(corpus[:size])
        shapes.clear()
        whole = MarginalScorer(corpus, cache)
        assert shapes == [(min(len(corpus), width),) * 2]
        scores = [scorer.score(batch) for scorer in (grown, chunked, whole)]
        assert bits(grown) == bits(chunked) == bits(whole), width
        assert [run.tobytes() for run in scores[1:]] == [scores[0].tobytes()] * 2
        # a corpus the scorer holds no prefix of rebuilds it
        other = SOURCES["repetitive"][:20]
        grown.sync(other)
        fresh = MarginalScorer(other, cache)
        assert grown.score(batch).tobytes() == fresh.score(batch).tobytes()
        assert bits(grown) == bits(fresh)
        assert grown.corpus.n_tokens == sum(len(tokenize(text)) for text in other)


def test_every_vendi_kernel_is_exactly_symmetric(monkeypatch):
    # so kernel_eigenvalues needs no symmetrised copy: on every kernel of the
    # report pass (ranking forms K from the rows only when it decomposes, and
    # calls eigh on it), it equals eigvalsh((K + K^T) / 2n) bit for bit
    kernels = []
    eigenvalues = semantic.kernel_eigenvalues

    def recording(sim):
        kernels.append(sim.copy())
        return eigenvalues(sim)

    monkeypatch.setattr(semantic, "kernel_eigenvalues", recording)
    analyze_corpus(SOURCES["varied"][:40], HashEmbedder(), seed=3)
    assert len(kernels) == 101
    for kernel in kernels:
        assert kernel.tobytes() == np.ascontiguousarray(kernel.T).tobytes()
        symmetrised = np.linalg.eigvalsh((kernel + kernel.T) / (2.0 * len(kernel)))
        assert eigenvalues(kernel).tobytes() == symmetrised.tobytes()


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
    assert np.array_equal(first, second[[3, 0, 3]])
    assert np.array_equal(scorer.score([a, c]), second[[3, 1]]) and len(batches) == 2


def test_scoring_splits_each_distinct_new_candidate_once(monkeypatch):
    # its tokens, FKGL grade and sentence shapes come from one reading
    scorer = MarginalScorer(SOURCES["varied"][:20], EmbeddingCache(HashEmbedder()))
    split, pattern = [], text.SENTENCE_SPLIT_RE

    class CountingSplit:
        def split(self, string):
            split.append(string)
            return pattern.split(string)

    monkeypatch.setattr(text, "SENTENCE_SPLIT_RE", CountingSplit())
    text.fkgl_grade.cache_clear()  # a cold FKGL memo splits nothing more
    batch = [UNSHARED, *SOURCES["varied"][20:24], SOURCES["varied"][3]]
    scorer.score(batch + batch[:2])
    scorer.score(batch[::-1])
    assert sorted(split) == sorted(batch)


class FixedScorer:
    """A stand-in scorer that returns fixed score rows, in ``OPTIMIZED_METRICS``
    order, from a dict of candidate to row."""

    def __init__(self, rows):
        self.rows = rows

    def score(self, candidates):
        return np.array([self.rows[c] for c in candidates], dtype=np.float64)


def test_a_one_ulp_chamfer_gap_ties_and_breaks_by_index():
    low = 0.25
    high = math.nextafter(low, 1.0)  # one ulp above: 5.6e-17
    base = dict.fromkeys(OPTIMIZED_METRICS, 1.0)
    scorer = FixedScorer({"a": list({**base, "chamfer": low}.values()),
                          "b": list({**base, "chamfer": high}.values())})
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
    scores = dict(zip((first, other, second), by_metric(scorer.score([first, other, second]))))
    for pool in ([first, second, other], [second, first, other]):
        _, ranks, _ = rank_candidates_by_diversity(scorer, pool)
        for metric in ("paraphrase_variety", "chamfer", "vendi"):
            assert scores[first][metric] == scores[second][metric]
            assert ranks[pool[1]][metric] == ranks[pool[0]][metric] + 1


EIGENSOLVERS = tuple(name for name in ("eigvalsh", "eigh", "eigvals", "eig", "svdvals", "svd")
                     if hasattr(np.linalg, name))


def test_a_sync_solves_at_most_one_eigenproblem_and_scoring_none(monkeypatch):
    # a sync that adds texts decomposes at most one matrix of side at most
    # min(N, d); a new candidate costs no eigensolve. d = 16 reaches N > d
    # and the 64-row Gram blocks cheaply.
    calls = []

    def recording(name, solve):
        def recorded(a, *args, **kwargs):
            calls.append((name, np.shape(a)))
            return solve(a, *args, **kwargs)
        return recorded

    for name in EIGENSOLVERS:
        monkeypatch.setattr(np.linalg, name, recording(name, getattr(np.linalg, name)))
    width = 16
    rng = random.Random("eigensolves")
    corpus = [" ".join(rng.sample(CANDIDATE_SOURCE, rng.randint(1, 2))) for _ in range(150)]
    scorer = MarginalScorer([], EmbeddingCache(HashEmbedder(dimension=width)))
    for size in (1, 2, 15, 16, 17, 40, 64, 65, 130, 150):
        scorer.sync(corpus[:size])
        assert len(calls) <= 1, (size, calls)
        assert all(max(shape) <= min(size, width) for _, shape in calls), (size, calls)
        calls.clear()
        scorer.sync(corpus[:size])
        assert calls == []
        batch = new_candidates(rng, CANDIDATE_SOURCE, corpus[:size], set(), 5)
        scorer.score(batch)
        scorer.score(batch[:2] + [UNSHARED])
        assert calls == [], size


def test_the_scorer_holds_no_n_by_n_array():
    # its state grows as N·d and d², never N²: N = 65 passes d = 16 and the
    # first Gram block, and 150 leaves an open block
    scorer = MarginalScorer([], EmbeddingCache(HashEmbedder(dimension=16)))
    rng = random.Random("n-by-n")
    corpus = [" ".join(rng.sample(CANDIDATE_SOURCE, rng.randint(1, 2))) for _ in range(150)]
    for size in (65, 130, 150):
        scorer.sync(corpus[:size])
        scorer.score([UNSHARED])
        held = [value for owner in (scorer, scorer.corpus, scorer._vendi)
                for value in vars(owner).values() if isinstance(value, np.ndarray)]
        assert held
        for array in held:
            assert sum(side >= size for side in array.shape) < 2, (size, array.shape)
