"""Shared fixtures: deterministic providers and the bundled function library."""

from __future__ import annotations

import base64
import contextlib
import gc
import random
import signal
import string
import tracemalloc
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from divgen.fixtures import fixture_library
from divgen.preprocess import EDGE_KINDS, ApiGraph
from divgen.providers.base import ProviderError, TransportError
from divgen.providers.hash_embed import HashEmbedder


class PresetEmbedder:
    """Maps exact texts to preset vectors; anything else is an error."""

    def __init__(self, mapping: dict[str, list[float]], dimension: int | None = None):
        self.mapping = {k: np.asarray(v, dtype=np.float64) for k, v in mapping.items()}
        self.dimension = dimension or len(next(iter(self.mapping.values())))

    def embed(self, texts):
        if len(texts) == 0:
            raise ValueError("embed requires at least one text")
        return [self.mapping[t] for t in texts]


class CountingEmbedder:
    """Wraps an embedder (a ``HashEmbedder`` by default) and records the texts
    of each ``embed`` call: ``calls`` in order, ``seen`` as a count per text."""

    def __init__(self, inner=None):
        self.inner = inner or HashEmbedder()
        self.calls: list[list[str]] = []
        self.seen: Counter[str] = Counter()

    def embed(self, texts):
        self.calls.append(list(texts))
        self.seen.update(texts)
        return self.inner.embed(texts)


class FaultyChat:
    """Wraps a chat provider and spoils a share ``rate`` of its calls, drawn
    from a stream seeded with ``seed``: it truncates the reply, shuffles its
    lines, deletes some of its characters or replaces it with junk, or it
    raises a retryable (``TransportError``) or a non-retryable
    ``ProviderError``. ``faults`` counts the spoiled calls by kind."""

    KINDS = ("truncate", "shuffle", "delete", "junk", "retryable", "fatal")

    def __init__(self, inner, rate: float, seed: int, kinds=KINDS):
        self.inner, self.rate, self.kinds = inner, rate, kinds
        self.rng = random.Random(seed)
        self.faults: Counter[str] = Counter()

    def complete(self, prompt, params=None):
        if self.rng.random() >= self.rate:
            return self.inner.complete(prompt, params)
        kind = self.rng.choice(self.kinds)
        self.faults[kind] += 1
        if kind == "retryable":
            raise TransportError("injected transport fault")
        if kind == "fatal":
            raise ProviderError("injected provider fault")
        reply = self.inner.complete(prompt, params)
        if kind == "truncate":
            return reply[:self.rng.randrange(len(reply) + 1)]
        if kind == "shuffle":
            lines = reply.splitlines()
            self.rng.shuffle(lines)
            return "\n".join(lines)
        if kind == "delete":
            drop = set(self.rng.sample(range(len(reply)), min(len(reply), self.rng.randint(1, 20))))
            return "".join(ch for i, ch in enumerate(reply) if i not in drop)
        return "".join(self.rng.choices(string.printable, k=self.rng.randrange(200)))


class PromptFaultyChat(FaultyChat):
    """A ``FaultyChat`` whose fault for a call is drawn from a stream seeded
    with its seed and the prompt alone, so a resumed run meets the faults of
    the run it continues. It spoils replies only: a transport fault keyed on
    the prompt would recur at every retry of that prompt and end the run, as
    a ``fatal`` one does."""

    KINDS = FaultyChat.KINDS[:4]

    def __init__(self, inner, rate: float, seed: int):
        super().__init__(inner, rate, seed, self.KINDS)
        self.seed = seed

    def complete(self, prompt, params=None):
        self.rng = random.Random(f"{self.seed}\n{prompt}")
        return super().complete(prompt, params)


def index_sets(index):
    """A ``ValueIndex``'s clusters and noise, as ``ClusterPartition.as_sets``
    gives a partition's."""
    members: dict[int, set[int]] = {}
    for i, label in enumerate(index._labels.tolist()):
        members.setdefault(label, set()).add(i)
    clusters = frozenset(frozenset(m) for m in members.values() if len(m) > 1)
    noise = frozenset(i for m in members.values() if len(m) == 1 for i in m)
    return clusters, noise


def templated_library(size: int):
    """``size`` renamed copies of the fixture functions, dealt round-robin, each
    description tagged with one of a few words. Copies of one template share
    their parameters and returns, so the similarity graph is dense."""
    words = ("regional", "weekly", "premium", "archived", "nearby", "seasonal", "local")
    templates = fixture_library()
    return [replace(t, name=f"{t.name}_{i:03d}",
                    description=f"{t.description} {words[i % len(words)]}")
            for i, t in ((i, templates[i % len(templates)]) for i in range(size))]


def traced_peak(run):
    """``run()``'s result and the traced peak, in bytes, of what it allocated,
    after a collection so earlier garbage is not counted."""
    gc.collect()
    tracemalloc.start()
    try:
        result = run()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def graph_of(vertices, edges, cls=ApiGraph):
    """The graph (of class ``cls``) of ``GraphEdge`` records over ``vertices``."""
    index = {v: i for i, v in enumerate(vertices)}
    return cls(tuple(vertices), [index[e.source] for e in edges],
               [index[e.target] for e in edges], [EDGE_KINDS.index(e.kind) for e in edges],
               [e.weight for e in edges])


# the artifact's form of each graph column: base64 of these little-endian values
PACKED = {"sources": "<i4", "targets": "<i4", "kinds": "i1", "weights": "<f8"}


def packed_column(graph, name, edit=None):
    """The values of column ``name`` of an artifact's graph entry, decoded.
    With ``edit``, the entry's column becomes ``edit(values)`` (given a
    writable copy), encoded the same way, and that is returned."""
    values = np.frombuffer(base64.b64decode(graph[name]), PACKED[name]).copy()
    if edit is not None:
        values = np.asarray(edit(values), PACKED[name])
        graph[name] = base64.b64encode(values.tobytes()).decode("ascii")
    return values


@pytest.fixture
def embedder():
    return HashEmbedder()


@pytest.fixture
def library():
    return fixture_library()


class Hung(BaseException):
    """Raised by ``alarm``: a BaseException, so that no ``except Exception``
    in the code under test can swallow it."""


@contextlib.contextmanager
def alarm(seconds: int):
    """Fail a block that would otherwise run forever, after ``seconds``."""
    def expire(signum, frame):
        raise Hung(f"still running after {seconds} s")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
