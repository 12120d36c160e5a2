"""Seeded benchmark inputs, built in-process from the bundled fixtures.

Every builder is a pure function of its seed and sizes, so one seed always
gives the same library, checkpoint and corpora, and nothing is downloaded.
"""

from __future__ import annotations

import random
import re
from dataclasses import replace
from pathlib import Path

from divgen.engine import GenerationEngine
from divgen.fixtures import fixture_library, repetitive_corpus, varied_corpus
from divgen.model import (
    ExecutionType,
    FunctionSchema,
    GeneratedExample,
    Invocation,
    ParamCategory,
    write_dataset,
)
from divgen.preprocess import GroupIndex

# Words mixed into templated descriptions and synthetic queries. Each word is a
# fresh hash-embedding token, so it shifts cosine geometry a little without
# breaking the template's similarity structure.
_VOCAB = (
    "regional", "weekly", "premium", "archived", "nearby", "seasonal", "local",
    "detailed", "summary", "historic", "express", "budget", "family", "business",
    "coastal", "urban", "rural", "nightly", "quarterly", "annual", "public",
    "private", "shared", "mobile", "classic", "modern", "compact", "extended",
    "verified", "trending", "curated", "default", "backup", "primary", "partner",
    "student", "senior", "junior", "global", "domestic",
)


def wide_library(size: int, seed: int) -> list[FunctionSchema]:
    """``size`` functions templated round-robin from the 12-function fixture.

    Copies keep their template's parameters and returns, so the similarity
    graph gets dense clusters of near-duplicate functions, as a real library
    with many variants of one API does. The seed picks the extra description
    words, never the template mix, so edge counts stay close across seeds.
    """
    rng = random.Random(seed)
    templates = fixture_library()
    out: list[FunctionSchema] = []
    for i in range(size):
        t = templates[i % len(templates)]
        extra = " ".join(rng.sample(_VOCAB, 2))
        params = tuple(replace(p, description=f"{p.description} ({rng.choice(_VOCAB)})")
                       for p in t.parameters)
        out.append(replace(t, name=f"{t.name}_{i:04d}", description=f"{t.description} {extra}",
                           parameters=params))
    return out


def string_library() -> list[FunctionSchema]:
    """The fixture functions that take a STRING parameter, so that every
    SINGLE example runs cluster-entropy selection over embedded values.

    With NUMERICAL functions mixed in, the seeded focused pool decides how
    many examples embed their tracker and how many never embed, and texts
    embedded per example differed by 30% between seeds.
    """
    return [fn for fn in fixture_library()
            if any(p.category is ParamCategory.STRING for p in fn.parameters)]


def _values(rng: random.Random, category: ParamCategory, name: str, count: int) -> list:
    # drawing from 2*count keys leaves duplicates, so DBSCAN finds clusters
    if category is ParamCategory.NUMERICAL:
        return [rng.randrange(2 * count) for _ in range(count)]
    return [f"{name} item {rng.randrange(2 * count):05d}" for _ in range(count)]


def synthetic_queries(count: int, seed: int, repetitive: bool = False) -> list[str]:
    """Human-style queries from the bundled contrast corpora, one word swapped.

    Queries are made of single sentences dealt from seeded shuffles of every
    sentence in the source; two in five queries join two. Every seed thus has
    the same number of sentences and uses each source sentence about equally
    often, so report cost stays close across seeds.
    """
    rng = random.Random(seed)
    source = [s.strip() + "." for text in (repetitive_corpus() if repetitive else varied_corpus())
              for s in re.split(r"[.!?]+", text) if s.strip()]
    deck: list[str] = []

    def deal() -> str:
        if not deck:
            deck.extend(rng.sample(source, len(source)))
        return deck.pop()

    out = []
    for i in range(count):
        words = " ".join(deal() for _ in range(1 + (i % 5 < 2))).split(" ")
        k = rng.randrange(len(words))
        words[k] = rng.choice(_VOCAB) + words[k][len(words[k].rstrip(".")):]
        out.append(" ".join(words))
    return out


def synthetic_examples(queries: list[str], seed: int) -> list[GeneratedExample]:
    """PARALLEL city + year examples over the fixture library, one per query.

    Every example feeds one value to the city group and one to the year group,
    so ``count`` examples give both groups ``count`` values for the argument
    comparison.
    """
    rng = random.Random(seed)
    pairs = (("weather_forecast", "city", "flight_price", "year"),
             ("hotel_search", "city", "event_lookup", "year"))
    names = [fn.name for fn in fixture_library()]
    out = []
    for i, query in enumerate(queries):
        fa, pa, fb, pb = pairs[i % 2]
        city = f"{rng.choice(_VOCAB)} city {rng.randrange(200):03d}"
        year = 1990 + rng.randrange(40)
        candidates = [fa, fb] + rng.sample([n for n in names if n not in (fa, fb)], 3)
        rng.shuffle(candidates)
        out.append(GeneratedExample(
            id=f"ex-{i + 1:06d}",
            execution_type=ExecutionType.PARALLEL,
            query=query,
            target_invocations=(Invocation(fa, {pa: city}), Invocation(fb, {pb: year})),
            candidate_functions=tuple(candidates),
            metadata={"source": "synthetic"},
        ))
    return out


def warm_checkpoint(engine: GenerationEngine, groups: GroupIndex, values_per_group: int,
                    prior_examples: int, seed: int) -> None:
    """Put a resumable run next to ``engine.out_path``.

    Every NUMERICAL/STRING group tracker holds ``values_per_group`` committed
    values and the dataset already holds ``prior_examples`` rows. The
    checkpoint is written by the engine itself, so its format and config digest
    are the engine's own.
    """
    rng = random.Random(seed)
    for g in groups.groups:
        if g.category in (ParamCategory.NUMERICAL, ParamCategory.STRING):
            g.tracker[:] = _values(rng, g.category, g.members[0][1], values_per_group)
    queries = synthetic_queries(prior_examples, seed)
    write_dataset(synthetic_examples(queries, seed), engine.out_path)
    engine.queries = list(queries)
    engine.state.accepted = engine.state.attempts = prior_examples
    engine.rng.seed(seed)
    engine._write_checkpoint()


def write_corpus(path: Path, count: int, seed: int, repetitive: bool) -> None:
    write_dataset(synthetic_examples(synthetic_queries(count, seed, repetitive), seed), path)
