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
    syllables = sum(count_syllables(w) for w in words)
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
