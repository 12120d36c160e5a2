"""Lexical and compression-based diversity metrics, plus readability.

``sentences_of`` is the one reading of a text into words, which every word
metric and the chunker take: sentences split on terminal punctuation runs, each
tokenized (lowercase, split on non-alphanumeric runs). The canonical compressor
for both compression-ratio and NCD is DEFLATE at level 6. All corpus metrics
are permutation-invariant; higher always means more diverse.
"""

from __future__ import annotations

import functools
import math
import re
import zlib
from collections import Counter
from itertools import chain, repeat
from typing import Callable, Iterable, Sequence

_TOKEN_RE = re.compile(r"[a-z0-9]+")
SENTENCE_SPLIT_RE = re.compile(r"[.!?]+")
_COMPRESSION_LEVEL = 6


@functools.lru_cache(maxsize=65536)  # the memo is kept for bench/, which reads it
def tokenize(text: str) -> tuple[str, ...]:
    """Lowercase alphanumeric tokens."""
    return tuple(_TOKEN_RE.findall(text.lower()))


def sentences_of(text: str) -> list[tuple[str, ...]]:
    """The tokens of each part of ``text`` between terminal punctuation runs
    that has any; joined, they are ``tokenize(text)``. Its callers keep this
    reading per text, so it skips tokenize's memo."""
    return [tokens for part in SENTENCE_SPLIT_RE.split(text)
            if (tokens := tokenize.__wrapped__(part))]


def _corpus_tokens(corpus: Iterable[str]) -> list[str]:
    return [token for text in corpus for sentence in sentences_of(text) for token in sentence]


def type_token_ratio(corpus: Sequence[str]) -> float:
    """Distinct-token count over total-token count of the concatenated corpus."""
    tokens = _corpus_tokens(corpus)
    return ratio_of_types(len(set(tokens)), len(tokens))


def ratio_of_types(types: int, tokens: int) -> float:
    """Type-token ratio from its two counts."""
    if not tokens:
        raise ValueError("type_token_ratio requires at least one token")
    return types / tokens


def simpson_index(corpus: Sequence[str]) -> float:
    """1 - sum(p_i^2) over word-frequency fractions; 0 = one repeated word."""
    return simpson_of_counts(list(Counter(_corpus_tokens(corpus)).values()))


def simpson_of_counts(counts: Sequence[int]) -> float:
    """Simpson's index from the word counts of a corpus. ``fsum`` is correctly
    rounded, so the order of the counts does not matter."""
    total = sum(counts)
    if not total:
        raise ValueError("simpson_index requires at least one token")
    return 1.0 - math.fsum((c / total) ** 2 for c in counts)


def _compressed_size(data: bytes) -> int:
    return len(zlib.compress(data, _COMPRESSION_LEVEL))


def deflater():
    """A streaming compressor; fed data then flushed, it emits the same bytes
    as one-shot compression of that data at the canonical level."""
    return zlib.compressobj(_COMPRESSION_LEVEL)


def compression_ratio_diversity(corpus: Sequence[str]) -> float:
    """Compressed size / raw size of the newline-joined corpus; near 1 = diverse."""
    if not corpus:
        raise ValueError("compression ratio of an empty corpus is undefined")
    raw = "\n".join(corpus).encode("utf-8")
    return compression_ratio(_compressed_size(raw), len(raw))


def compression_ratio(compressed: int, raw: int) -> float:
    """Compressed byte count over raw byte count."""
    if not raw:
        raise ValueError("compression ratio of empty text is undefined")
    return compressed / raw


def ncd_diversity(values: Sequence[str]) -> float:
    """Mean normalized compression distance over unordered pairs.

    NCD(x, y) = (C(xy) - min(C(x), C(y))) / max(C(x), C(y)) with C the DEFLATE
    byte length. Requires at least two values.
    """
    return ncd_over_indices(values)(range(len(values)))


def ncd_over_indices(values: Sequence[str]) -> Callable[[Sequence[int]], float]:
    """``ncd_diversity`` of the values at each index subset, from one table of
    the NCD of every ordered pair of distinct values (C(xy) depends on the
    order), each value and pair compressed once. A subset sums its pairs'
    entries in ``ncd_diversity``'s pair order, left to right, so its score is
    the same bits as the pair loop's over the gathered values."""
    encoded = [str(v).encode("utf-8") for v in values]
    distinct = list(dict.fromkeys(encoded))
    sizes = [_compressed_size(x) for x in distinct]
    table = [[(_compressed_size(x + y) - min(cx, cy)) / max(cx, cy)
              for y, cy in zip(distinct, sizes)] for x, cx in zip(distinct, sizes)]
    position = {x: i for i, x in enumerate(distinct)}
    ids = [position[x] for x in encoded]

    def ncd(indices: Sequence[int]) -> float:
        keys = [ids[i] for i in indices]
        if len(keys) < 2:
            raise ValueError("ncd_diversity requires at least two values (no pairs otherwise)")
        total = 0.0
        for i, a in enumerate(keys):
            row = table[a]
            for b in keys[i + 1:]:
                total += row[b]
        return total / (len(keys) * (len(keys) - 1) // 2)

    return ncd


# ---------------------------------------------------------------------------
# Readability


_VOWELS = set("aeiouy")


@functools.lru_cache(maxsize=1 << 16)
def count_syllables(word: str) -> int:
    """Deterministic heuristic: vowel groups, minus a silent trailing 'e', min 1."""
    word = word.lower()
    groups = 0
    prev_vowel = False
    for ch in word:
        is_vowel = ch in _VOWELS
        if is_vowel and not prev_vowel:
            groups += 1
        prev_vowel = is_vowel
    if word.endswith("e") and not word.endswith(("le", "ee")) and groups > 1:
        groups -= 1
    return max(1, groups)


def fkgl_of(sentences: Sequence[Sequence[str]]) -> float:
    """0.39*(words/sentences) + 11.8*(syllables/word) - 15.59 over one text's
    ``sentences_of``, the sentences the chunker reads."""
    words = [word for sentence in sentences for word in sentence]
    if not words:
        raise ValueError("fkgl_grade requires non-empty text")
    syllables = sum(map(count_syllables, words))
    return 0.39 * (len(words) / len(sentences)) + 11.8 * (syllables / len(words)) - 15.59


@functools.lru_cache(maxsize=65536)  # the memo is kept for bench/, which reads it
def fkgl_grade(text: str) -> float:
    """The FKGL grade of one text."""
    return fkgl_of(sentences_of(text))


def variance(values: Sequence[float]) -> float:
    """Population variance (divide by n); 0 for a single value."""
    if not values:
        raise ValueError("variance of an empty sequence is undefined")
    n = len(values)
    mean = math.fsum(values) / n
    return math.fsum((v - mean) ** 2 for v in values) / n


#: Veltkamp's splitting constant for 53-bit doubles: the high part of x is
#: s·x − (s·x − x), with at most 26 significant bits, and the low part the
#: rest, with at most 26 too (Dekker, Numer. Math. 18, 1971).
_SPLITTER = 2.0 ** 27 + 1.0
_SPLIT_COUNTS = 2 ** 26
_SPLIT_MAX = math.ldexp(1.0 - 2.0 ** -26, 997)  # below it in size, no split product overflows


def _split(pairs: Iterable[tuple[float, int]]) -> tuple[list[float], list[tuple[float, int]]]:
    """Floats whose exact sum is that of the multiset holding each value as
    often as its count (a count of 0 or less adds nothing), and the (value,
    count) pairs it could not split. A count of 1 adds its value, and a zero
    is added once, since copies of a zero sum to it. A count below 2**26 of a
    value smaller in size than ``_SPLIT_MAX``, whose split products are
    finite, adds count·high and count·low: each has at most 52 significant
    bits, and both are whole multiples of the smallest subnormal, as the
    value is, so each product is exact, gradual underflow included."""
    terms: list[float] = []
    unsplit: list[tuple[float, int]] = []
    for value, count in pairs:
        if count == 1 or (count > 0 and value == 0):
            terms.append(value)
        elif 0 < count < _SPLIT_COUNTS and -_SPLIT_MAX < value < _SPLIT_MAX:
            scaled = _SPLITTER * value
            high = scaled - (scaled - value)
            terms.append(count * high)
            terms.append(count * (value - high))
        elif count > 0:
            unsplit.append((value, count))
    return terms, unsplit


def _fsum_split(terms: Iterable[float], unsplit: Iterable[tuple[float, int]]) -> float:
    """``fsum`` of ``terms`` and of each unsplit value repeated ``count`` times."""
    return math.fsum(chain(terms, *(repeat(value, count) for value, count in unsplit)))


def counted_fsum(pairs: Iterable[tuple[float, int]]) -> float:
    """``math.fsum`` of the multiset that holds each value as often as its
    count, bit for bit, from at most two terms per distinct value that
    ``_split`` can split: ``fsum`` rounds the exact sum of its terms
    correctly (Shewchuk, Discrete Comput. Geom. 18, 1997), so any terms with
    that exact sum give its bits."""
    return _fsum_split(*_split(pairs))


class ValueCounts:
    """A multiset of floats as each distinct value's count, whose variance
    with one more value costs a term or two per distinct value, not one per
    value: ``variance_with(x)`` is ``variance`` of the values plus ``x``, bit
    for bit. Its mean sums ``_split``'s terms of the values, kept until the
    next ``add``, and ``x``; each distinct value's deviation from it is
    squared once, by Python's ``**`` as ``variance`` squares it, and the
    squares are summed as ``counted_fsum`` sums them, those of values that
    occur once directly. Each ``x``'s variance is kept until the next
    ``add``: ranked candidates share their token counts."""

    def __init__(self):
        self.counts: Counter[float] = Counter()
        self.size = 0
        self._held: tuple | None = None  # lists and pairs only: each call reads them anew
        self._variances: dict[float, float] = {}

    def add(self, value: float) -> None:
        self.counts[value] += 1
        self.size += 1
        self._held = None
        self._variances = {}

    def variance_with(self, extra: float) -> float:
        variance = self._variances.get(extra)
        if variance is None:
            variance = self._variances[extra] = self._variance_with(extra)
        return variance

    def _variance_with(self, extra: float) -> float:
        if self._held is None:
            pairs = list(self.counts.items())
            self._held = ([v for v, count in pairs if count == 1],
                          [(v, count) for v, count in pairs if count != 1],
                          *_split(pairs))
        singles, others, terms, unsplit = self._held
        n = self.size + 1
        mean = _fsum_split([*terms, extra], unsplit) / n
        squares = [(v - mean) ** 2 for v in singles]
        squares.append((extra - mean) ** 2)
        more, unsplit = _split([((v - mean) ** 2, count) for v, count in others])
        return _fsum_split(squares + more, unsplit) / n
