"""Lexical and compression-based diversity metrics, plus readability.

Tokenization everywhere: lowercase, split on non-alphanumeric runs. The
canonical compressor for both compression-ratio and NCD is DEFLATE at level 6.
All corpus metrics are permutation-invariant; higher always means more diverse.
"""

from __future__ import annotations

import functools
import math
import re
import zlib
from collections import Counter
from typing import Iterable, Sequence

_TOKEN_RE = re.compile(r"[a-z0-9]+")
SENTENCE_SPLIT_RE = re.compile(r"[.!?]+")
_COMPRESSION_LEVEL = 6


@functools.lru_cache(maxsize=65536)
def tokenize(text: str) -> tuple[str, ...]:
    """Lowercase alphanumeric tokens."""
    return tuple(_TOKEN_RE.findall(text.lower()))


def _corpus_tokens(corpus: Iterable[str]) -> list[str]:
    tokens: list[str] = []
    for text in corpus:
        tokens.extend(tokenize(text))
    return tokens


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
    tokens = _corpus_tokens(corpus)
    if not tokens:
        raise ValueError("simpson_index requires at least one token")
    total = len(tokens)
    counts = sorted(Counter(tokens).values())
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
    if len(values) < 2:
        raise ValueError("ncd_diversity requires at least two values (no pairs otherwise)")
    encoded = [str(v).encode("utf-8") for v in values]
    total = 0.0
    pairs = 0
    for i in range(len(encoded)):
        for j in range(i + 1, len(encoded)):
            total += _ncd(encoded[i], encoded[j])
            pairs += 1
    return total / pairs


@functools.lru_cache(maxsize=4096)
def _ncd(x: bytes, y: bytes) -> float:
    """NCD of one ordered pair (C(xy) depends on the order), memoised so the
    bootstrap resamples of one value sample compress each pair once."""
    lo, hi = sorted((_compressed_size(x), _compressed_size(y)))
    return (_compressed_size(x + y) - lo) / hi


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


def sentence_count(text: str) -> int:
    return sum(1 for part in SENTENCE_SPLIT_RE.split(text) if part.strip())


@functools.lru_cache(maxsize=65536)
def fkgl_grade(text: str) -> float:
    """0.39*(words/sentences) + 11.8*(syllables/word) - 15.59."""
    words = tokenize(text)
    if not words:
        raise ValueError("fkgl_grade requires non-empty text")
    sentences = max(1, sentence_count(text))
    syllables = sum(count_syllables(w) for w in words)
    return 0.39 * (len(words) / sentences) + 11.8 * (syllables / len(words)) - 15.59


def variance(values: Sequence[float]) -> float:
    """Population variance (divide by n); 0 for a single value."""
    if not values:
        raise ValueError("variance of an empty sequence is undefined")
    n = len(values)
    mean = math.fsum(values) / n
    return math.fsum((v - mean) ** 2 for v in values) / n
