import math
import random
import string
import zlib
from collections import Counter
from fractions import Fraction
from itertools import chain, repeat

import pytest
from hypothesis import example, given, settings, strategies as st

from divgen.fixtures import repetitive_corpus, varied_corpus
from divgen.metrics.text import (
    ValueCounts,
    compression_ratio_diversity,
    count_syllables,
    counted_fsum,
    deflater,
    fkgl_grade,
    ncd_diversity,
    sentences_of,
    simpson_index,
    tokenize,
    type_token_ratio,
    variance,
)


def test_ttr_examples():
    assert type_token_ratio(["a b c"]) == 1.0
    assert type_token_ratio(["a a a a"]) == 0.25
    assert type_token_ratio(["the cat sat on the mat"]) == pytest.approx(5 / 6)


def test_ttr_concatenates_corpus():
    assert type_token_ratio(["a b", "b c"]) == 0.75


def test_simpson_examples():
    assert simpson_index(["word word word"]) == 0.0
    assert simpson_index(["a a b b"]) == pytest.approx(0.5)
    n = 12
    distinct = " ".join(f"w{i}" for i in range(n))
    assert simpson_index([distinct]) == pytest.approx(1 - 1 / n)


def test_compression_ratio_repetitive_vs_random():
    repeated = ["the same exact sentence again and again"] * 200
    assert compression_ratio_diversity(repeated) < 0.1
    rng = random.Random(0)
    noisy = ["".join(rng.choices(string.ascii_lowercase + " ", k=40))
             for _ in range(200)]
    assert compression_ratio_diversity(noisy) > 0.5


def test_compression_ratio_duplicate_append_bound():
    for corpus in (repetitive_corpus(), varied_corpus()):
        base = compression_ratio_diversity(corpus)
        for k in (0, len(corpus) // 2, len(corpus) - 1):
            extended = compression_ratio_diversity(corpus + [corpus[k]])
            assert extended <= base + 0.01


MULTIBYTE = ["Größere Käse für Übermorgen?", "東京の天気を教えて。", "Café ↔ naïve résumé — ok 🚀!"]


def test_deflater_fed_text_by_text_compresses_like_one_shot():
    # the ranking feeds its corpus one accepted query at a time into one stream
    source = varied_corpus() + repetitive_corpus() + MULTIBYTE
    rng = random.Random("deflate-chunks")
    for size in (0, 1, 2, 3, 17, 128, 129, 400, 1000):
        corpus = [rng.choice(source) for _ in range(size)]
        stream = deflater()
        chunks = [stream.compress(f"\n{t}".encode("utf-8") if i else t.encode("utf-8"))
                  for i, t in enumerate(corpus)]
        for candidate in (rng.choice(source), rng.choice(MULTIBYTE)):
            tail = stream.copy()
            extra = f"\n{candidate}" if corpus else candidate
            out = b"".join(chunks) + tail.compress(extra.encode("utf-8")) + tail.flush()
            joined = "\n".join(corpus + [candidate]).encode("utf-8")
            assert out == zlib.compress(joined, 6), (size, candidate)


def test_compression_ratio_empty_errors():
    with pytest.raises(ValueError):
        compression_ratio_diversity([])


def test_ncd_identical_vs_random():
    text = "an identical block of text spelled out the very same way twice over"
    assert ncd_diversity([text, text]) < 0.2
    rng = random.Random(1)
    a = "".join(rng.choices(string.ascii_lowercase, k=4000))
    b = "".join(rng.choices(string.ascii_lowercase, k=4000))
    assert ncd_diversity([a, b]) > 0.8


def reference_ncd_diversity(values):
    """The pair loop without a memo: every pair compressed in place."""
    encoded = [str(v).encode("utf-8") for v in values]
    sizes = [len(zlib.compress(e, 6)) for e in encoded]
    total = 0.0
    pairs = 0
    for i in range(len(encoded)):
        for j in range(i + 1, len(encoded)):
            joint = len(zlib.compress(encoded[i] + encoded[j], 6))
            lo, hi = sorted((sizes[i], sizes[j]))
            total += (joint - lo) / hi
            pairs += 1
    return total / pairs


def test_ncd_memo_matches_the_unmemoised_loop():
    rng = random.Random(4)
    # C(xy) != C(yx) for "oslo" and "Oslo Oslo Oslo", among other pairs here
    pool = ["Oslo", "oslo", "Kyoto city centre", "42", "42.5", "東京", "",
            "a much longer value with several words in it", "Oslo Oslo Oslo"]
    for size in (2, 3, 20, 40):
        values = [rng.choice(pool) for _ in range(size)]
        # the bootstrap's subsamples revisit the same pairs in other orders
        for sample in (values, values[::-1], rng.sample(values, size)):
            assert ncd_diversity(sample) == reference_ncd_diversity(sample)


def test_ncd_single_value_errors():
    with pytest.raises(ValueError, match="at least two"):
        ncd_diversity(["only one"])


def test_syllable_counter_basics():
    assert count_syllables("cat") == 1
    assert count_syllables("tiger") == 2
    assert count_syllables("yellow") == 2
    assert count_syllables("make") == 1   # silent e
    assert count_syllables("idea") == 2   # i, ea
    assert count_syllables("rhythm") == 1


def test_fkgl_ten_words_twelve_syllables():
    text = "the tiger sat on the mat with a yellow hat."
    words = tokenize(text)
    assert len(words) == 10
    assert sum(count_syllables(w) for w in words) == 12
    assert fkgl_grade(text) == pytest.approx(
        0.39 * 10 + 11.8 * 1.2 - 15.59, abs=1e-9)
    assert fkgl_grade(text) == pytest.approx(2.47, abs=1e-9)


def test_fkgl_monosyllabic_five_words():
    text = "the cat sat on mat"
    assert fkgl_grade(text) == pytest.approx(0.39 * 5 + 11.8 - 15.59, abs=1e-9)
    assert fkgl_grade(text) == pytest.approx(-1.84, abs=1e-9)


def test_fkgl_counts_the_sentences_the_chunker_reads():
    # a part without a word token is no sentence, to FKGL as to the chunker
    assert fkgl_grade("Weather in Rome? :)") == fkgl_grade("Weather in Rome?")


# punctuation runs, and characters whose lowercase differs in length or by
# context: dotted capital I, the Kelvin sign, sharp s, capital sigma
TRICKY = st.text(alphabet=st.sampled_from(list("ab Z9.!?,;:'\n\u0130\u212a\u00df\u03a3\u03c2")))


@given(st.one_of(st.text(), TRICKY))
@settings(max_examples=500, deadline=None)
def test_the_sentences_of_a_text_join_to_its_tokens_and_give_its_grade(value):
    # what keeps every TTR, length and FKGL bit of one reading per text
    sentences = sentences_of(value)
    words = tokenize.__wrapped__(value)
    assert [w for sentence in sentences for w in sentence] == list(words)
    assert all(sentences)
    if not words:
        with pytest.raises(ValueError):
            fkgl_grade.__wrapped__(value)
        return
    syllables = sum(count_syllables(w) for w in words)
    assert fkgl_grade.__wrapped__(value) == (
        0.39 * (len(words) / len(sentences)) + 11.8 * (syllables / len(words)) - 15.59)


def test_fkgl_empty_errors():
    with pytest.raises(ValueError):
        fkgl_grade("...")


def test_variance():
    assert variance([4.0, 4.0, 4.0]) == 0.0
    assert variance([1.0, 3.0]) == 1.0
    assert variance([9.0]) == 0.0
    with pytest.raises(ValueError):
        variance([])


@settings(max_examples=60, deadline=None)
@given(st.lists(st.text(alphabet=string.ascii_lowercase + " ", min_size=1),
                min_size=1, max_size=12))
def test_corpus_metrics_permutation_invariant(corpus):
    if not any(tokenize(t) for t in corpus):
        return
    shuffled = list(reversed(corpus))
    assert type_token_ratio(corpus) == type_token_ratio(shuffled)
    assert simpson_index(corpus) == simpson_index(shuffled)
    assert 0.0 <= type_token_ratio(corpus) <= 1.0
    assert 0.0 <= simpson_index(corpus) <= 1.0


# floats whose sums a careless product would round: signed zeros, subnormals,
# values near the ends of the range, and any other finite float
_terms = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1e-300,
                     1e300, -1e300, 0.1, 1.7976931348623157e308]),
    st.floats(allow_nan=False, allow_infinity=False))
_small_counts = st.integers(0, 40)
_counts = st.one_of(_small_counts, st.integers(0, 2 ** 26 - 1), st.just(2 ** 26 - 1))


def sum_or_error(total):
    """``total()``, or the type of the error it raises."""
    try:
        return total().hex()
    except (OverflowError, ValueError) as exc:
        return type(exc)


@settings(max_examples=500, deadline=None)
@given(st.lists(st.tuples(st.one_of(_terms, st.sampled_from([math.inf, -math.inf])),
                          _small_counts), max_size=6))
def test_a_counted_sum_is_fsum_of_the_expanded_multiset(pairs):
    expanded = chain.from_iterable(repeat(v, c) for v, c in pairs)
    assert sum_or_error(lambda: counted_fsum(pairs)) == sum_or_error(lambda: math.fsum(expanded))


@settings(max_examples=500, deadline=None)
@given(st.lists(st.tuples(_terms, _counts), max_size=4))
def test_a_counted_sum_up_to_2_26_copies_is_the_correctly_rounded_total(pairs):
    # fsum rounds the exact total correctly, as a Fraction's float does; where
    # the total overflows, fsum raises
    exact = sum((Fraction(v) * c for v, c in pairs), Fraction(0))
    want = sum_or_error(lambda: float(exact))
    got = sum_or_error(lambda: counted_fsum(pairs))
    if want is OverflowError:
        assert got is OverflowError
    elif got is OverflowError:  # near the top of the range a sum may overflow midway
        assert max(abs(Fraction(v)) * c for v, c in pairs) > 2 ** 1000
    else:
        assert got == want


def test_counts_past_2_26_repeat_their_value():
    pairs = [(0.1, 2 ** 26 + 1), (-3.0, 5)]
    want = math.fsum(chain.from_iterable(repeat(v, c) for v, c in pairs))
    assert counted_fsum(pairs).hex() == want.hex()


_values = st.one_of(
    st.lists(st.sampled_from([1.0, 2.0, 3.0, 5.0, 8.0, 13.0, 21.0]), min_size=1, max_size=60),
    st.lists(st.floats(-20.0, 40.0), min_size=1, max_size=12).flatmap(
        lambda pool: st.lists(st.sampled_from(pool), min_size=1, max_size=60)),
    st.lists(_terms, min_size=1, max_size=12).flatmap(
        lambda pool: st.lists(st.sampled_from(pool), min_size=1, max_size=30)))


@settings(max_examples=300, deadline=None)
@given(_values)
@example([math.inf, math.inf, 1.0, 7.0])  # values past _SPLIT_MAX are repeated, not split
@example([-math.inf, -math.inf, 1.0, 7.0])
@example([math.nan, math.nan, 1.0, 7.0])
def test_the_grouped_variance_is_variance_bit_for_bit(values):
    *held, extra = values
    counts = ValueCounts()
    for size in range(len(values)):  # each prefix, as values arrive one by one
        for x in (extra, -extra):  # a second call sums every value again
            assert sum_or_error(lambda: counts.variance_with(x)) == \
                sum_or_error(lambda: variance([*held[:size], x]))
        if size < len(held):
            counts.add(held[size])


# deviations whose square by Python's ** (glibc's pow) is one ulp from d * d,
# so a variance that squared by multiplying would differ
POW_IS_NOT_PRODUCT = [float.fromhex(h) for h in
                      ("-0x1.0db07b8dd0d73p+3", "-0x1.3ace394be80f0p+2", "0x1.ec11a0a7e0480p-3")]


@pytest.mark.parametrize("deviation", POW_IS_NOT_PRODUCT)
@pytest.mark.parametrize("copies", [1, 2, 5])
def test_the_grouped_variance_squares_as_variance_does(deviation, copies):
    held = [deviation, -deviation] * copies  # mean 0: the deviations are these values
    counts = ValueCounts()
    for value in held:
        counts.add(value)
    assert counts.variance_with(0.0).hex() == variance([*held, 0.0]).hex()
