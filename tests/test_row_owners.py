"""Each embedding row of a run has one owner, the component that reads it
later: the run's cache keeps a row only while some later step may still ask it
for that row, and sends a distinct text to the embedder again only after its
owner let it go."""

import os
import random
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings, strategies as st

from conftest import CountingEmbedder, PresetEmbedder, traced_peak
from divgen.engine import GenerationEngine
from divgen.fixtures import fixture_library
import divgen.metrics.battery as battery
from divgen.metrics import text, trees
from divgen.metrics.battery import EmbeddingCache, MarginalScorer, RowStore
from divgen.metrics.cluster_entropy import ValueIndex, value_cluster_entropy
from divgen.metrics.semantic import unit_rows
from divgen.model import RunConfig
from divgen.preprocess import build_api_pools, build_similarity_graph, group_parameters
from divgen.providers.hash_embed import HashEmbedder
from divgen.providers.mock import StubChat

# Traced peak growth allowed from 15 to 60 fixture examples. Measured with
# Python 3.11: 3.5-3.6 MiB when each row has one owner, 7.1-7.2 MiB when the
# cache kept every candidate's and value's row for the whole run.
BOUND = 5 * 2**20

# Process-wide memos that a run fills; each traced run starts with them empty.
MEMOS = (text.tokenize, text.count_syllables, text.fkgl_grade,
         trees.tag_token, trees.chunk_sentence, trees._interned)


def fixture_engine(path, embedder):
    library = fixture_library()
    config = RunConfig(rng_seed=7)
    groups = group_parameters(library, HashEmbedder(), config.group_threshold)
    pools = build_api_pools(library, groups, random.Random(config.rng_seed))
    graph = build_similarity_graph(library, HashEmbedder(), config.graph_threshold)
    return GenerationEngine(library, groups, pools, graph, config, StubChat(), embedder,
                            path / "ds.jsonl")


def test_a_run_embeds_each_text_once_and_keeps_only_rows_still_asked_for(tmp_path,
                                                                         monkeypatch):
    scored: list[tuple[int, list[str]]] = []  # (corpus size, candidates) per batch
    evaluate = MarginalScorer._evaluate_batch

    def recording(self, candidates):
        scored.append((len(self.corpus.texts), list(candidates)))
        return evaluate(self, candidates)

    monkeypatch.setattr(MarginalScorer, "_evaluate_batch", recording)
    counting = CountingEmbedder()
    engine = fixture_engine(tmp_path, counting)
    engine.generate(60)
    held = engine.embed_cache._memo
    assert set(counting.seen.values()) == {1}

    # the ranking corpus holds every accepted query but the last, which ended the run
    synced = len(engine.queries) - 1
    assert engine.querygen._scorer.corpus.texts == engine.queries[:synced]
    live = {c for size, batch in scored if size == synced for c in batch}
    released = {c for size, batch in scored if size < synced for c in batch} - live
    assert len(released) > 20 * synced
    assert not [c for c in released if c in held]
    assert not [q for q in engine.queries[:synced] if q in held]

    indexes = [i for i in engine.paramgen._value_indexes.values() if i.category == "STRING"]
    assert sum(len(i) for i in indexes) > 20
    assert not [v for i in indexes for v in i.values if str(v) in held]
    assert not [d for d in engine.library.descriptions if d in held]


def test_an_indexed_value_asked_for_again_is_served_from_the_index():
    values = ["amber birch grove", "cobalt river delta", "amber birch grove",
              "quiet harbour town", "cobalt river delta", "misty alpine meadow"]
    counting = CountingEmbedder()
    cache = EmbeddingCache(counting)
    index = ValueIndex("STRING", cache)
    index.extend(values[:4])
    assert not [v for v in values[:4] if v in cache._memo]
    before = len(counting.calls)
    extra, candidates = values[4:], values[:3] + ["amber birch lane"]
    scores = index.entropies(extra, candidates)
    # only the values the index does not hold reach the embedder
    assert counting.calls[before:] == [["misty alpine meadow", "amber birch lane"]]
    assert scores == [value_cluster_entropy(values[:4] + extra + [c], "STRING", HashEmbedder())
                      for c in candidates]
    rows = index._points(values[:4])
    assert rows.tobytes() == unit_rows(HashEmbedder().embed(values[:4])).tobytes()
    assert len(counting.calls) == before + 1


def test_an_index_over_a_bare_embedder_embeds_an_indexed_value_once():
    counting = CountingEmbedder()
    index = ValueIndex("STRING", counting)
    index.extend(["amber birch grove", "cobalt river delta"])
    index.entropies([], ["cobalt river delta", "quiet harbour town"])
    assert counting.seen == {"amber birch grove": 1, "cobalt river delta": 1,
                             "quiet harbour town": 1}


def test_a_run_holds_only_walk_labels_last_offers_and_its_last_attempts_rows(tmp_path,
                                                                           monkeypatch):
    # each STRING index's last offer, by index, and the texts each attempt
    # asked the cache for, by attempt
    offers: dict[int, set[str]] = {}
    asked: list[set[str]] = []
    entropies, build = ValueIndex.entropies, GenerationEngine._build_skeleton

    def offering(self, extra, candidates):
        if self.category == "STRING":
            offers[id(self)] = {str(v) for v in [*extra, *candidates]}
        return entropies(self, extra, candidates)

    def attempt(self, etype):
        asked.append(set())
        return build(self, etype)

    monkeypatch.setattr(ValueIndex, "entropies", offering)
    monkeypatch.setattr(GenerationEngine, "_build_skeleton", attempt)
    engine = fixture_engine(tmp_path, HashEmbedder())
    matrix = engine.embed_cache.matrix

    def asking(texts):
        asked[-1].update(texts)
        return matrix(texts)

    monkeypatch.setattr(engine.embed_cache, "matrix", asking)
    engine.generate(60)
    labels = {f"{fn.name}: {fn.description}" for fn in engine.library}
    owned = labels.union(asked[-1], *offers.values())
    assert len(offers) > 1 and len(asked) > 60
    assert [t for t in engine.embed_cache._memo if t not in owned] == []


def test_an_index_holds_the_rows_of_its_last_offer_only():
    counting = CountingEmbedder()
    cache = EmbeddingCache(counting)
    index = ValueIndex("STRING", cache)
    bare = ValueIndex("STRING", HashEmbedder())
    committed = ["amber birch grove", "cobalt river delta"]
    calls = [(["quiet harbour town"], ["misty alpine meadow", "amber birch lane"]),
             (["quiet harbour town", "copper canyon trail"],
              ["misty alpine meadow", "amber birch grove", "silver lake road"])]
    for each in (index, bare):
        each.extend(committed)
    for extra, candidates in calls:
        scores = index.entropies(extra, candidates)
        # a bare embedder has no ``release``, and an index over it scores as before
        assert bare.entropies(extra, candidates) == scores == [
            value_cluster_entropy(committed + extra + [c], "STRING", HashEmbedder())
            for c in candidates]
    # the first offer's own value is released; the latest offer stays held,
    # its pending value included, but for the indexed value the index serves
    assert set(cache._memo) == {"quiet harbour town", "copper canyon trail",
                                "misty alpine meadow", "silver lake road"}
    # values in both offers reached the embedder once
    assert counting.seen["quiet harbour town"] == counting.seen["misty alpine meadow"] == 1
    assert set(counting.seen.values()) == {1}


def run_peak(path, n: int) -> int:
    """The traced peak, in bytes, of a fixture run to ``n`` examples, started
    with the process-wide memos empty."""
    for memo in MEMOS:
        memo.cache_clear()
    return traced_peak(lambda: fixture_engine(path, HashEmbedder()).generate(n))[1]


def test_traced_peak_grows_little_from_15_to_60_examples(tmp_path):
    (tmp_path / "15").mkdir()
    (tmp_path / "60").mkdir()
    small = run_peak(tmp_path / "15", 15)
    large = run_peak(tmp_path / "60", 60)
    assert large - small < BOUND, (small, large)


class Refusing:
    """An embedder that must not be asked."""

    def embed(self, texts):
        raise AssertionError(f"embedded {texts!r}")


# floats whose bits a decimal or float32 round trip would lose: signed zeros,
# subnormals, values near the ends of the range, and any other float
_floats = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1e-300,
                     1e300, -1e300, 1.7976931348623157e308, -1.7976931348623157e308]),
    st.floats(allow_nan=False, allow_infinity=False))


@settings(max_examples=60, deadline=None)
@given(st.dictionaries(st.text(max_size=12), st.lists(_floats, min_size=3, max_size=3),
                       min_size=1, max_size=6))
def test_a_stored_row_reads_back_with_the_embedders_bits(rows):
    with tempfile.TemporaryDirectory() as work:
        path = Path(work) / "ds.jsonl.rows"
        writer = EmbeddingCache(PresetEmbedder(rows), RowStore(path, 3))
        writer.store_rows(rows)
        reader = EmbeddingCache(Refusing(), RowStore(path, 3))
        texts = list(rows)
        assert reader.matrix(texts).tobytes() == np.array([rows[t] for t in texts]).tobytes()


def test_a_torn_last_record_is_dropped_and_cut_off(tmp_path):
    path, texts = tmp_path / "ds.jsonl.rows", ["amber birch grove", "cobalt", "quiet harbour"]
    rows = HashEmbedder(16).embed(texts)
    whole = RowStore(path, 16)
    whole.append(zip(texts[:2], rows))
    kept = path.stat().st_size
    whole.append([(texts[2], rows[2])])
    data = path.read_bytes()
    for size in range(kept, len(data)):  # every cut inside the last record
        path.write_bytes(data[:size])
        store = RowStore(path, 16)
        assert list(store.offsets) == texts[:2] and path.stat().st_size == kept
        assert store.read(texts)["cobalt"].tobytes() == rows[1].tobytes()


def test_a_row_of_another_width_is_passed_over(tmp_path):
    path = tmp_path / "ds.jsonl.rows"
    RowStore(path, 8).append([("amber birch grove", HashEmbedder(8).embed(["amber"])[0])])
    store = RowStore(path, 16)
    assert store.read(["amber birch grove"]) == {}
    row = HashEmbedder(16).embed(["amber birch grove"])[0]
    store.append([("amber birch grove", row), ("cobalt", np.zeros(8))])  # the second: not written
    again = RowStore(path, 16)
    assert list(again.offsets) == ["amber birch grove"]
    assert again.read(["amber birch grove", "cobalt"])["amber birch grove"].tobytes() == row.tobytes()


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.text(max_size=300), st.sampled_from([3, 5])), min_size=1,
                max_size=30, unique=True),
       st.integers(0, 200), st.randoms())
def test_scanned_records_read_back_the_bits_of_the_file(records, torn, rnd):
    # interleaved row widths, a torn tail, and texts longer than the scan's
    # first read of a record
    with tempfile.TemporaryDirectory() as work:
        path = Path(work) / "ds.jsonl.rows"
        for text_, width in records:
            RowStore(path, width).append([(text_, np.frombuffer(rnd.randbytes(8 * width), "<f8"))])
        kept, end, whole = {3: {}, 5: {}}, 0, max(0, path.stat().st_size - torn)
        for text_, width in records:  # the records left whole, by the layout
            row = end + RowStore.HEADER.size + len(text_.encode("utf-8"))
            end = row + 8 * width
            if end <= whole:
                kept[width][text_] = row
        os.truncate(path, whole)
        for width in (3, 5):
            store = RowStore(path, width)
            offsets = store.offsets
            assert offsets == kept[width]
            data = path.read_bytes()
            asked = [t for t, w in records if w == width] + ["not stored"]
            rnd.shuffle(asked)
            got = store.read(asked)
            assert list(got) == [t for t in asked if t in offsets]
            with open(path, "rb") as fh:  # one read per row
                for t, row in got.items():
                    assert row.tobytes() == os.pread(fh.fileno(), 8 * width, offsets[t])
                    assert row.tobytes() == data[offsets[t]:offsets[t] + 8 * width]


def test_a_checkpoint_with_nothing_new_opens_no_store_for_writing(tmp_path, monkeypatch):
    engine = fixture_engine(tmp_path, HashEmbedder())
    engine.generate(3)
    opened = []

    def recording(file, mode="r", *args, **kwargs):
        opened.append((Path(file), mode))
        return open(file, mode, *args, **kwargs)

    monkeypatch.setattr(battery, "open", recording, raising=False)
    engine._write_checkpoint()
    assert engine.state.accepted == 3
    assert [mode for file, mode in opened
            if file == engine.embed_cache.store.path and set(mode) & set("wa+")] == []
