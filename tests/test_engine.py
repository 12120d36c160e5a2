import base64
import hashlib
import json
import os
import random
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from conftest import CountingEmbedder, FaultyChat, PromptFaultyChat, alarm, templated_library
import divgen.cli as cli
import divgen.engine
import divgen.metrics.battery as battery
import divgen.metrics.cluster_entropy as cluster_entropy
import divgen.querygen as querygen
from divgen.engine import GenerationEngine, GenerationStalled
from divgen.fixtures import fixture_library, fixture_library_path
from divgen.metrics import text, trees
from divgen.metrics.battery import RowStore
from divgen.metrics.cluster_entropy import ValueIndex
from divgen.metrics.semantic import unit_rows
from divgen.model import ExecutionType, ParamCategory, RunConfig, read_dataset
from divgen.preprocess import build_api_pools, build_similarity_graph, group_parameters
from divgen.providers import catalog
from divgen.providers.base import ProviderError, TransportError
from divgen.providers.hash_embed import HashEmbedder
from divgen.providers.mock import StubChat
from divgen.providers.signature import format_output
from divgen.querygen import ExampleSkeleton


def build_engine(tmp_path, config=None, chat=None, log_stream=None, embedder=None):
    library = fixture_library()
    config = config or RunConfig(rng_seed=7)
    groups = group_parameters(library, HashEmbedder(), config.group_threshold)
    pools = build_api_pools(library, groups, random.Random(config.rng_seed))
    graph = build_similarity_graph(library, HashEmbedder(), config.graph_threshold)
    return GenerationEngine(
        library, groups, pools, graph, config,
        chat or StubChat(), embedder or HashEmbedder(), tmp_path / "ds.jsonl", log_stream)


def test_engine_examples_satisfy_invariants(tmp_path):
    engine = build_engine(tmp_path)
    engine.generate(8)
    examples = read_dataset(tmp_path / "ds.jsonl")
    assert len(examples) == 8
    for ex in examples:
        ex.validate()
        targets = {inv.function_name for inv in ex.target_invocations}
        assert targets <= set(ex.candidate_functions)
        if ex.execution_type is ExecutionType.MISSING_PARAMS:
            omitted = ex.metadata["omitted_parameters"]
            assert omitted
            args = ex.target_invocations[0].arguments
            assert all(args[name] == "__MISSING__" for name in omitted)
        if ex.execution_type is ExecutionType.SEQUENTIAL:
            assert len(ex.return_values) == len(ex.target_invocations) - 1
        assert ex.metadata["rng_seed"] == 7
        assert "diversity_ranks" in ex.metadata


def test_each_accepted_query_reaches_the_ranking_corpus_once(tmp_path, monkeypatch):
    read, appended = Counter(), Counter()
    sentences_of, append = battery.sentences_of, battery.Corpus.append

    def counting_reading(text):
        read[text] += 1
        return sentences_of(text)

    def counting_append(self, texts, rows=None, readings=None):
        appended.update(texts)
        # each text arrives with the reading its ranking took of it
        assert all(t in (readings or {}) for t in texts)
        return append(self, texts, rows, readings)

    monkeypatch.setattr(battery, "sentences_of", counting_reading)
    monkeypatch.setattr(battery.Corpus, "append", counting_append)
    engine = build_engine(tmp_path)
    engine.generate(20)
    # the last acceptance ends the run before another example ranks
    assert appended == Counter(engine.queries[:-1])
    # one reading per text, candidate or corpus text alike
    assert set(read.values()) == {1} and set(appended) <= set(read)


def test_a_run_splits_each_query_text_once(tmp_path, monkeypatch):
    split, pattern = Counter(), text.SENTENCE_SPLIT_RE

    class CountingSplit:
        def split(self, string):
            split[string] += 1
            return pattern.split(string)

    monkeypatch.setattr(text, "SENTENCE_SPLIT_RE", CountingSplit())
    engine = build_engine(tmp_path)
    proposed, call = set(), engine.querygen.client.call

    def recording(sig, fields):
        out = call(sig, fields)
        if sig.name in querygen._GENERATORS.values():
            proposed.update(q for i in range(1, 6) if (q := out.get(f"query_{i}", "")).strip())
        return out

    monkeypatch.setattr(engine.querygen.client, "call", recording)
    engine.generate(60)
    assert set(engine.queries) <= proposed and len(proposed) > 1000
    # the pool filter's reading is the one scoring and the ranking corpus use
    assert {q: split[q] for q in proposed} == dict.fromkeys(proposed, 1)


def test_ranking_builds_no_chunk_tree(tmp_path, monkeypatch):
    art, out = tmp_path / "art.json", tmp_path / "ds.jsonl"
    assert cli.main(["preprocess", fixture_library_path(), "--seed", "7",
                     "--out", str(art)]) == 0
    chunked = []
    chunker = battery.chunks
    monkeypatch.setattr(battery, "chunks",
                        lambda sentence: chunked.append(sentence) or chunker(sentence))
    trees.chunk_sentence.cache_clear()
    trees._interned.cache_clear()
    assert cli.main(["generate", str(art), "--n", "25", "--seed", "7",
                     "--out", str(out)]) == 0
    # the candidates' shapes were taken, from their chunks alone
    assert len(set(chunked)) > 25
    assert trees.chunk_sentence.cache_info().currsize == 0
    assert trees._interned.cache_info().currsize == 0


def test_engine_trackers_grow_only_on_acceptance(tmp_path):
    engine = build_engine(tmp_path)
    engine.generate(5)
    committed = sum(len(g.tracker) for g in engine.groups.groups)
    examples = read_dataset(tmp_path / "ds.jsonl")
    expected = sum(len([v for v in inv.arguments.values() if v != "__MISSING__"])
                   for ex in examples for inv in ex.target_invocations)
    assert committed == expected


def test_engine_checkpoint_rejects_other_config(tmp_path):
    engine = build_engine(tmp_path)
    engine.generate(2)
    other = build_engine(tmp_path, config=RunConfig(rng_seed=8))
    with pytest.raises(ValueError, match="different configuration"):
        other.resume()


def test_pattern_analysis_period(tmp_path):
    log_path = tmp_path / "run.log"
    with open(log_path, "w", encoding="utf-8") as log_stream:
        config = RunConfig(rng_seed=7, pattern_period=3)
        engine = build_engine(tmp_path, config=config, log_stream=log_stream)
        engine.generate(4)
        assert engine.querygen.guidance  # refreshed at the third acceptance
    events = [json.loads(l) for l in log_path.read_text().splitlines()]
    assert any(e["event"] == "pattern_analysis" and e["at"] == 3 for e in events)


def test_pattern_analysis_skipped_before_period(tmp_path):
    config = RunConfig(rng_seed=7, pattern_period=50)
    engine = build_engine(tmp_path, config=config)
    engine.generate(3)
    assert engine.querygen.guidance == ""


class RewritingChat(StubChat):
    """StubChat that answers ``signature`` prompts containing ``contains``
    with ``reply`` instead."""

    def __init__(self, signature, reply, contains=""):
        self.signature = signature
        self.reply = reply
        self.contains = contains

    def complete(self, prompt, params=None):
        if catalog.identify(prompt) == self.signature and self.contains in prompt:
            return self.reply
        return super().complete(prompt, params)


def run_with_log(run_dir, config, chat, n, resume=False, embedder=None):
    """Generate into ``run_dir`` with a run log; returns the log's events."""
    log_path = run_dir / "run.log"
    engine = build_engine(run_dir, config=config, chat=chat, embedder=embedder)
    if resume:
        engine.cut_log(log_path)
    with open(log_path, "a" if resume else "w", encoding="utf-8") as stream:
        engine.log_stream = stream
        engine.generate(n, resume=resume)
    return engine, [json.loads(l) for l in log_path.read_text(encoding="utf-8").splitlines()]


@pytest.mark.parametrize("signature, contains", [
    ("DatasetPatternAnalysis", ""),
    # the refresh's guidance call, not the per-round feedback call
    ("DiversityGuidanceGeneration", "Requests lean on a formal"),
])
def test_unparseable_pattern_analysis_keeps_the_guidance(tmp_path, signature, contains):
    config = RunConfig(rng_seed=7, rounds=2, pattern_period=2)
    (tmp_path / "ref").mkdir()
    (tmp_path / "run").mkdir()
    # reference: an analysis that yields no guidance draws the same sample
    empty = format_output(catalog.get("DatasetPatternAnalysis"),
                          {"reasoning": "nothing stands out", "pattern_analysis": ""})
    _, ref_events = run_with_log(
        tmp_path / "ref", config, RewritingChat("DatasetPatternAnalysis", empty), 4)
    engine, events = run_with_log(
        tmp_path / "run", config, RewritingChat(signature, "no fields", contains), 4)
    assert engine.querygen.guidance == ""
    failed = [e for e in events if e["event"] == "pattern_analysis_failed"]
    assert [e["at"] for e in failed] == [2, 4]
    assert all(f"signature {signature!r}" in e["reason"] for e in failed)
    assert [e for e in events if e not in failed] == ref_events
    assert (tmp_path / "run" / "ds.jsonl").read_bytes() == (
        tmp_path / "ref" / "ds.jsonl").read_bytes()


def test_unparseable_return_value_abandons_the_attempt(tmp_path):
    # SEQUENTIAL attempts all fail, so SINGLE ones must fill the run
    config = RunConfig(rng_seed=7, rounds=2, type_weights={
        "SINGLE": 1.0, "PARALLEL": 0.0, "SEQUENTIAL": 1.0, "MISSING_PARAMS": 0.0, "NONE": 0.0})
    _, events = run_with_log(
        tmp_path, config, RewritingChat("GenerateReturnValue", "no fields"), 4)
    reasons = [e["reason"] for e in events if e["event"] == "abandoned"]
    assert any(r.startswith("sequential chain abandoned: return value rejected") for r in reasons)
    examples = read_dataset(tmp_path / "ds.jsonl")
    assert [ex.execution_type for ex in examples] == [ExecutionType.SINGLE] * 4


def test_run_whose_every_attempt_fails_stops_and_resumes(tmp_path):
    # every SEQUENTIAL chain fails on an unparseable return value
    config = RunConfig(rng_seed=7, rounds=2, type_weights={
        "SINGLE": 0.0, "PARALLEL": 0.0, "SEQUENTIAL": 1.0, "MISSING_PARAMS": 0.0, "NONE": 0.0})
    (tmp_path / "ref").mkdir()
    (tmp_path / "run").mkdir()
    with alarm(60), pytest.raises(RuntimeError) as stalled:
        run_with_log(tmp_path / "run", config,
                     RewritingChat("GenerateReturnValue", "no fields"), 2)
    cap = divgen.engine.MAX_CONSECUTIVE_ABANDONS
    assert isinstance(stalled.value, divgen.engine.GenerationStalled)
    message = str(stalled.value)
    assert message.startswith(f"{cap} consecutive attempts abandoned")
    assert f"SEQUENTIAL {cap} (" in message
    assert "sequential chain abandoned: return value rejected" in message
    events = [json.loads(l) for l in (tmp_path / "run" / "run.log").read_text().splitlines()]
    assert [e["event"] for e in events] == ["abandoned"] * cap
    # the checkpoint is the one written at the start: once the chat answers,
    # a resumed run ends with the bytes of a run that never stalled
    run_with_log(tmp_path / "run", config, StubChat(), 2, resume=True)
    run_with_log(tmp_path / "ref", config, StubChat(), 2)
    for name in ("ds.jsonl", "run.log"):
        assert (tmp_path / "run" / name).read_bytes() == (tmp_path / "ref" / name).read_bytes()


class NaySayingChat(StubChat):
    """StubChat whose validators and compatibility judge always say NO."""

    def _respond(self, name, f):
        values = super()._respond(name, f)
        return {k: "NO" if k in ("is_valid", "is_compatible") else v for k, v in values.items()}


def test_always_no_validator_stops_the_run(tmp_path):
    config = RunConfig(rng_seed=7, rounds=2, type_weights={
        "SINGLE": 1.0, "PARALLEL": 1.0, "SEQUENTIAL": 1.0, "MISSING_PARAMS": 1.0, "NONE": 0.0})
    engine = build_engine(tmp_path, config=config, chat=NaySayingChat())
    with alarm(60), pytest.raises(RuntimeError) as stalled:
        engine.generate(1)
    assert isinstance(stalled.value, divgen.engine.GenerationStalled)
    for etype in ("SINGLE", "PARALLEL", "SEQUENTIAL", "MISSING_PARAMS"):
        assert f" {etype} " in str(stalled.value)
    assert engine.state.accepted == 0
    assert (tmp_path / "ds.jsonl").read_bytes() == b""


class OutageChat(StubChat):
    """StubChat that counts the calls it answers and, once ``budget`` is
    spent, fails every call with an ``error``."""

    def __init__(self, budget=None, error=TransportError):
        self.budget = budget
        self.error = error
        self.calls = 0

    def complete(self, prompt, params=None):
        if self.calls == self.budget:
            raise self.error("endpoint unreachable")
        self.calls += 1
        return super().complete(prompt, params)


def test_provider_outage_preserves_checkpoint(tmp_path):
    engine = build_engine(tmp_path, chat=OutageChat(budget=40))
    with pytest.raises(TransportError):
        engine.generate(25)
    assert engine.checkpoint_path.exists()
    accepted = json.loads(engine.checkpoint_path.read_text())["accepted"]
    assert accepted >= 1
    assert len(read_dataset(tmp_path / "ds.jsonl")) == accepted


def test_cli_outage_exit_code(tmp_path, monkeypatch):
    art = tmp_path / "art.json"
    assert cli.main(["preprocess", fixture_library_path(), "--seed", "7",
                     "--out", str(art)]) == 0
    monkeypatch.setattr("divgen.cli.make_chat", lambda cfg: OutageChat(budget=40))
    code = cli.main(["generate", str(art), "--n", "25", "--seed", "7",
                     "--out", str(tmp_path / "d.jsonl")])
    assert code == 1
    assert (tmp_path / "d.jsonl.checkpoint").exists()


@pytest.mark.parametrize("kinds", [FaultyChat.KINDS[:4], FaultyChat.KINDS[:5], FaultyChat.KINDS])
def test_faulty_provider_completes_or_stops_cleanly(tmp_path, kinds):
    # each run completes or stops with one of the two errors a run may end in,
    # and its dataset holds exactly the examples it accepted, all valid
    outcomes, faults = Counter(), Counter()
    for seed in range(6):
        chat, run_dir = FaultyChat(StubChat(), 0.3, seed, kinds), tmp_path / str(seed)
        run_dir.mkdir()
        engine = build_engine(run_dir, chat=chat)
        try:
            engine.generate(6)
            outcome = "completed"
        except (GenerationStalled, ProviderError) as exc:
            outcome = type(exc).__name__
        outcomes[outcome] += 1
        faults.update(chat.faults)
        examples = read_dataset(run_dir / "ds.jsonl")
        assert len(examples) == engine.state.accepted
        assert (len(examples) == 6) == (outcome == "completed"), seed
        for example in examples:
            example.validate()
    assert set(faults) == set(kinds)
    # a non-retryable error ends a run at once; without it, spoiled replies
    # cost re-prompts and abandoned attempts, not the run
    assert outcomes["completed"] or "fatal" in kinds, outcomes


def test_run_log_is_deterministic(tmp_path):
    logs = []
    for name in ("l1", "l2"):
        log_path = tmp_path / name
        with open(log_path, "w", encoding="utf-8") as stream:
            engine = build_engine(tmp_path, log_stream=stream)
            engine.generate(5)
        logs.append(log_path.read_bytes())
        (tmp_path / "ds.jsonl").unlink()
        engine.checkpoint_path.unlink()
    assert logs[0] == logs[1]


def test_walk_heavy_run_golden_digest(tmp_path):
    # Pins the bytes of a PARALLEL + SEQUENTIAL run on a 60-function library,
    # where every example walks a dense similarity graph and retrieves
    # distractors over the whole library.
    library = templated_library(60)
    embedder = HashEmbedder()
    config = RunConfig(rng_seed=7, type_weights={
        "SINGLE": 0.0, "PARALLEL": 1.0, "SEQUENTIAL": 1.0, "MISSING_PARAMS": 0.0, "NONE": 0.0})
    groups = group_parameters(library, embedder, config.group_threshold)
    pools = build_api_pools(library, groups, random.Random(config.rng_seed))
    graph = build_similarity_graph(library, embedder, config.graph_threshold)
    out = tmp_path / "ds.jsonl"
    engine = GenerationEngine(library, groups, pools, graph, config, StubChat(), embedder, out)
    engine.generate(20)
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "2225fff40f5be4c780c8dc9eb2304cd35de21670db8aeff8a61c855466c9a987")


def narrow_number(key):
    # keys 2k and 2k + 1 sit exactly DBSCAN's eps (0.5) apart, other pairs 1.5 or more
    return (key // 2) * 2.0 + (key % 2) * 0.5


class NarrowStub(StubChat):
    """StubChat whose candidate values come from few keys: 150 strings and 200
    numbers. Most candidates then fall into a tracker's clusters, and which
    one wins depends on the cluster sizes, not only on the order the selector
    saw them in."""

    def _candidate_values(self, name, f):
        count = int(f.get("num_candidates", "25"))
        pname = f.get("parameter_name", "value")
        key = "|".join((name, pname, f.get("existing_values", ""),
                        f.get("other_parameter_values", "")))
        base = int(hashlib.md5(key.encode("utf-8")).hexdigest()[:12], 16)
        if name.endswith("NumericalParameters"):
            return json.dumps([narrow_number((base + 7919 * i) % 200) for i in range(count)])
        return json.dumps([f"{pname} item {(base + 7919 * i) % 150:03d}" for i in range(count)])


def test_warm_single_run_golden_digest(tmp_path):
    # Pins the bytes of a SINGLE-only run resumed from a checkpoint whose
    # groups hold 300 values each, drawn from NarrowStub's keys: every example
    # selects values against large, clustered trackers.
    config = RunConfig(rng_seed=11, type_weights={
        "SINGLE": 1.0, "PARALLEL": 0.0, "SEQUENTIAL": 0.0, "MISSING_PARAMS": 0.0, "NONE": 0.0})
    engine = build_engine(tmp_path, config=config, chat=NarrowStub())
    engine.generate(0)
    doc = json.loads(engine.checkpoint_path.read_text())
    rng = random.Random(5)
    for g in engine.groups.groups:
        if g.category is ParamCategory.STRING:
            name = g.members[0][1]
            doc["trackers"][g.id] = [f"{name} item {rng.randrange(150):03d}" for _ in range(300)]
        elif g.category is ParamCategory.NUMERICAL:
            doc["trackers"][g.id] = [narrow_number(rng.randrange(200)) for _ in range(300)]
    engine.checkpoint_path.write_text(json.dumps(doc))
    build_engine(tmp_path, config=config, chat=NarrowStub()).generate(12, resume=True)
    assert hashlib.sha256((tmp_path / "ds.jsonl").read_bytes()).hexdigest() == (
        "c11e13b96b737a2304acaceade958da2a3e8af3a8f4400be3012c8759223f4a3")


def crash_once(monkeypatch, after_acceptance, torn, stored=False):
    """Make the checkpoint write that follows acceptance ``after_acceptance``
    fail: before anything is written, (``torn``) after writing the first
    half of the document, or (``stored``) after the rows store's append and
    before the document is written."""
    original_write = GenerationEngine._write_checkpoint
    original_text = Path.write_text
    fired = []

    def torn_write_text(self, data, *args, **kwargs):
        original_text(self, data[: len(data) // 2], *args, **kwargs)
        raise OSError("disk full")

    def killed_write_text(self, data, *args, **kwargs):
        raise OSError("killed")

    def failing(self):
        if fired or self.state.accepted != after_acceptance:
            return original_write(self)
        fired.append(True)
        if not (torn or stored):
            raise OSError("killed")
        with monkeypatch.context() as m:
            m.setattr(Path, "write_text", torn_write_text if torn else killed_write_text)
            original_write(self)

    monkeypatch.setattr(GenerationEngine, "_write_checkpoint", failing)


def components_of(run_dir):
    return json.loads((run_dir / "ds.jsonl.checkpoint").read_text(encoding="utf-8"))["components"]


@pytest.mark.parametrize("torn", [False, True])
def test_resume_after_checkpoint_crash_matches_uninterrupted_run(tmp_path, monkeypatch, torn):
    # the resumed run ends with the uninterrupted run's bytes and component records
    n = 5
    (tmp_path / "ref").mkdir()
    build_engine(tmp_path / "ref").generate(n)
    expected = (tmp_path / "ref" / "ds.jsonl").read_bytes()
    components = components_of(tmp_path / "ref")
    assert any(record["count"] for record in components.values())
    for k in range(1, n + 1):
        run_dir = tmp_path / f"crash{k}"
        run_dir.mkdir()
        with monkeypatch.context() as m:
            crash_once(m, k, torn)
            with pytest.raises(OSError):
                build_engine(run_dir).generate(n)
        assert len((run_dir / "ds.jsonl").read_text().splitlines()) == k
        build_engine(run_dir).generate(n, resume=True)
        assert (run_dir / "ds.jsonl").read_bytes() == expected, k
        assert components_of(run_dir) == components, k


def outputs_of(run_dir):
    return [(run_dir / name).read_bytes() for name in ("ds.jsonl", "run.log")]


@pytest.mark.parametrize("tear", [None, "unrecorded-row", "recorded-row"])
def test_resume_after_a_crash_past_the_rows_store_append_matches_uninterrupted_run(
        tmp_path, monkeypatch, tear):
    # the crash leaves store records that the checkpoint does not count; the
    # store may also be torn in the middle of a row, past the recorded size
    # (resume cuts it off) or within it (the torn record is dropped, and its
    # text embedded again)
    n, config = 6, RunConfig(rng_seed=7)
    (tmp_path / "ref").mkdir()
    run_with_log(tmp_path / "ref", config, StubChat(), n)
    expected = outputs_of(tmp_path / "ref")
    for k in (2, 5):
        run_dir = tmp_path / f"crash{k}"
        run_dir.mkdir()
        with monkeypatch.context() as m:
            crash_once(m, k, torn=False, stored=True)
            with pytest.raises(OSError, match="killed"):
                run_with_log(run_dir, config, StubChat(), n)
        store = run_dir / "ds.jsonl.rows"
        recorded = json.loads((run_dir / "ds.jsonl.checkpoint").read_text())["rows_bytes"]
        size = store.stat().st_size
        assert size > recorded > 8 * 384, (size, recorded)
        if tear:
            os.truncate(store, (size if tear == "unrecorded-row" else recorded) - 8 * 100)
        run_with_log(run_dir, config, StubChat(), n, resume=True)
        assert outputs_of(run_dir) == expected, k


@pytest.mark.parametrize("mismatch", ["checkpoint-without-store", "store-size-not-a-size",
                                      "store-missing", "store-shorter",
                                      "rows-of-another-width"])
def test_a_rows_store_that_does_not_match_its_checkpoint_is_embedded_again(tmp_path,
                                                                          mismatch):
    # the store only spares embedder calls: a committed text whose row it
    # cannot give by that text and the run's width is embedded again, and the
    # resumed run has the bytes of the uninterrupted one
    config = RunConfig(rng_seed=7)
    (tmp_path / "ref").mkdir()
    run_with_log(tmp_path / "ref", config, StubChat(), 6)
    run_dir = tmp_path / "run"
    run_dir.mkdir()
    run_with_log(run_dir, config, StubChat(), 3)
    store, checkpoint = run_dir / "ds.jsonl.rows", run_dir / "ds.jsonl.checkpoint"
    doc = json.loads(checkpoint.read_text(encoding="utf-8"))
    if mismatch == "checkpoint-without-store":  # as a checkpoint from before the store
        del doc["rows_bytes"]
    elif mismatch == "store-size-not-a-size":
        doc["rows_bytes"] = str(doc["rows_bytes"])
    elif mismatch == "store-missing":
        store.unlink()
    elif mismatch == "store-shorter":
        os.truncate(store, doc["rows_bytes"] // 2)
    else:
        texts = list(RowStore(store, 384).offsets)
        store.unlink()
        other = RowStore(store, 8)
        other.append(zip(texts, HashEmbedder(8).embed(texts)))
        doc["rows_bytes"] = store.stat().st_size
    checkpoint.write_text(json.dumps(doc), encoding="utf-8")
    counting = CountingEmbedder()
    run_with_log(run_dir, config, StubChat(), 6, resume=True, embedder=counting)
    assert outputs_of(run_dir) == outputs_of(tmp_path / "ref")
    queries = [ex.query for ex in read_dataset(run_dir / "ds.jsonl")[:3]]
    if mismatch == "store-shorter":  # the first query's row is kept, the last one's is cut
        assert queries[0] not in counting.seen and queries[-1] in counting.seen
    else:
        assert all(q in counting.seen for q in queries)


def test_a_warm_resume_sends_the_embedder_no_committed_text(tmp_path):
    # the resumed run reads the rows of the accepted queries and of the
    # STRING tracker values from the store the checkpoint counts
    config = RunConfig(rng_seed=11, type_weights={
        "SINGLE": 1.0, "PARALLEL": 0.0, "SEQUENTIAL": 0.0, "MISSING_PARAMS": 0.0, "NONE": 0.0})
    engine = build_engine(tmp_path, config=config, chat=NarrowStub())
    engine.generate(4)
    rng = random.Random(5)
    strings = [g for g in engine.groups.groups if g.category is ParamCategory.STRING]
    for g in strings:
        g.tracker.extend(f"{g.members[0][1]} item {rng.randrange(150):03d}" for _ in range(100))
    engine._write_checkpoint()
    committed = {*engine.queries, *(str(v) for g in strings for v in g.tracker)}
    counting = CountingEmbedder()
    resumed = build_engine(tmp_path, config=config, chat=NarrowStub(), embedder=counting)
    resumed.generate(10, resume=True)
    assert counting.calls and not committed.intersection(counting.seen)
    assert len(resumed.queries) == 10


def edited_labels(record, edit):
    labels = np.frombuffer(base64.b64decode(record["labels"]), "<i4").copy()
    edit(labels)
    record["labels"] = base64.b64encode(labels.tobytes()).decode("ascii")


@pytest.mark.parametrize("mismatch", ["checkpoint-without-components", "other-count",
                                      "edited-value", "labels-not-base64",
                                      "labels-of-another-length", "label-negative",
                                      "label-past-its-value", "label-not-canonical"])
def test_a_component_record_that_does_not_match_its_tracker_is_rebuilt(tmp_path,
                                                                       monkeypatch, mismatch):
    # a record only spares the clustering: a group whose record does not match
    # its tracker is clustered again, the other groups are restored, and the
    # resumed run has the bytes of the uninterrupted one
    config = RunConfig(rng_seed=7)
    (tmp_path / "ref").mkdir()
    run_with_log(tmp_path / "ref", config, StubChat(), 10)
    run_dir = tmp_path / "run"
    run_dir.mkdir()
    run_with_log(run_dir, config, StubChat(), 6)
    checkpoint = run_dir / "ds.jsonl.checkpoint"
    doc = json.loads(checkpoint.read_text(encoding="utf-8"))
    target = "g000" if mismatch == "other-count" else "g003"  # NUMERICAL, STRING
    record = doc["components"][target]
    assert record["count"] == len(doc["trackers"][target]) >= (1 if target == "g000" else 3)
    if mismatch == "checkpoint-without-components":  # as a checkpoint from before them
        del doc["components"]
    elif mismatch == "other-count":
        record["count"] += 1
    elif mismatch == "edited-value":  # the record of the tracker with its first value edited
        edited = ValueIndex("STRING", HashEmbedder())
        edited.extend(doc["trackers"][target][1:2] + doc["trackers"][target][1:])
        doc["components"][target] = edited.record()
        assert edited.record()["labels"] != record["labels"]
    elif mismatch == "labels-not-base64":
        record["labels"] = record["labels"][:-4] + "*" * 4
    elif mismatch == "labels-of-another-length":
        record["labels"] = base64.b64encode(base64.b64decode(record["labels"])[:-4]).decode()
    elif mismatch == "label-negative":
        edited_labels(record, lambda labels: labels.__setitem__(-1, -1))
    elif mismatch == "label-past-its-value":  # a value labelled by a later one
        edited_labels(record, lambda labels: labels.__setitem__(0, 1))
    else:  # each value labelled by the one before it, which has another label
        edited_labels(record, lambda labels: labels.__setitem__(
            slice(1, None), np.arange(len(labels) - 1)))
    checkpoint.write_text(json.dumps(doc), encoding="utf-8")
    restores = []
    restore = ValueIndex.restore

    def recording(self, values, record):
        restores.append((values, restore(self, values, record)))
        return restores[-1][1]

    monkeypatch.setattr(ValueIndex, "restore", recording)
    resumed, _ = run_with_log(run_dir, config, StubChat(), 10, resume=True)
    assert outputs_of(run_dir) == outputs_of(tmp_path / "ref")
    ids = {id(g.tracker): g.id for g in resumed.groups.groups}
    first: dict[str, bool] = {}
    for values, matched in restores:
        first.setdefault(ids[id(values)], matched)
    assert {"g000", "g003"} <= set(first)
    rebuilt = set(first) if mismatch == "checkpoint-without-components" else {target}
    assert {gid for gid, matched in first.items() if not matched} == rebuilt
    assert all(matched for values, matched in restores if ids[id(values)] not in rebuilt)


SINGLE_ONLY = RunConfig(rng_seed=7, type_weights={
    "SINGLE": 1.0, "PARALLEL": 0.0, "SEQUENTIAL": 0.0, "MISSING_PARAMS": 0.0, "NONE": 0.0})


def write_warm_checkpoint(run_dir):
    """A checkpoint before the first acceptance whose two STRING groups hold 300
    values each, of words no stub candidate uses; returns those values."""
    engine = build_engine(run_dir, config=SINGLE_ONLY)
    engine.generate(0)
    strings = [g for g in engine.groups.groups if g.category is ParamCategory.STRING]
    assert len(strings) == 2
    rng = random.Random(5)
    for g in strings:
        g.tracker[:] = [f"{g.id} quartz{rng.randrange(150)}" for _ in range(300)]
    engine._write_checkpoint()
    return [v for g in strings for v in g.tracker]


def test_a_resumed_run_measures_no_distance_between_two_committed_values(tmp_path,
                                                                         monkeypatch):
    # each group's clusters come back from its record, so the resumed run
    # measures distances from its new values only
    committed = {row.tobytes() for row in unit_rows(HashEmbedder().embed(
        sorted(set(write_warm_checkpoint(tmp_path)))))}
    pairs = []
    distances = ValueIndex._distances

    def counting(self, a, b):
        if self.category == "STRING":
            pairs.append(sum(r.tobytes() in committed for r in a)
                         * sum(r.tobytes() in committed for r in b))
        return distances(self, a, b)

    monkeypatch.setattr(ValueIndex, "_distances", counting)
    engine = build_engine(tmp_path, config=SINGLE_ONLY)
    engine.generate(1, resume=True)
    assert pairs and sum(pairs) == 0
    # one group selected and committed a value
    indexes = engine.paramgen._value_indexes.values()
    assert sorted(len(i.values) for i in indexes if i.category == "STRING") == [301]


def test_resume_reads_no_stored_row_and_builds_no_index(tmp_path, monkeypatch):
    write_warm_checkpoint(tmp_path)
    engine = build_engine(tmp_path, config=SINGLE_ONLY)

    def refused(*args, **kwargs):
        raise AssertionError("called by resume")

    monkeypatch.setattr(RowStore, "read", refused)
    monkeypatch.setattr(ValueIndex, "__init__", refused)
    monkeypatch.setattr(cluster_entropy, "_recorded", refused)
    engine.resume()
    assert "offsets" not in vars(engine.embed_cache.store)  # the store was not scanned
    assert sorted(r["count"] for r in engine.paramgen.records.values()) == [0, 0, 0, 300, 300]


def test_a_checkpoint_written_next_to_another_runs_store_starts_it_afresh(tmp_path):
    build_engine(tmp_path).generate(3)
    store = tmp_path / "ds.jsonl.rows"
    assert RowStore(store, 384).offsets
    engine = build_engine(tmp_path)
    group = next(g for g in engine.groups.groups if g.category is ParamCategory.STRING)
    group.tracker[:] = ["amber birch grove", "cobalt river delta"]
    engine.queries = ["Where does the cobalt river delta begin?"]
    engine._write_checkpoint()
    assert set(RowStore(store, 384).offsets) == {*engine.queries, *group.tracker}


def test_resumed_run_log_matches_uninterrupted_run(tmp_path, monkeypatch):
    # the run log is cut back to the size the checkpoint records, so an
    # acceptance logged before a crash in its checkpoint write is logged once
    n = 5
    art = tmp_path / "art.json"
    assert cli.main(["preprocess", fixture_library_path(), "--seed", "7",
                     "--out", str(art)]) == 0

    def generate(run_dir, *extra):
        return cli.main(["generate", str(art), "--n", str(n), "--seed", "7",
                         "--out", str(run_dir / "ds.jsonl"),
                         "--log", str(run_dir / "run.log"), *extra])

    (tmp_path / "ref").mkdir()
    assert generate(tmp_path / "ref") == 0
    expected = (tmp_path / "ref" / "run.log").read_bytes()
    for k in range(1, n + 1):
        run_dir = tmp_path / f"crash{k}"
        run_dir.mkdir()
        with monkeypatch.context() as m:
            crash_once(m, k, torn=False)
            assert generate(run_dir) == 1
        assert generate(run_dir, "--resume") == 0
        assert (run_dir / "run.log").read_bytes() == expected, k


def test_resume_on_each_side_of_the_vendi_decomposition_matches_uninterrupted_run(
        tmp_path, monkeypatch):
    # at d = 16 an 80-example run ranks against its kernel's eigenpairs while
    # N < d, then against its Gram's, summed in 64-row blocks; a crash at an
    # acceptance below d, between d and 64, and past 64 resumes to the bytes
    # of the uninterrupted run
    n = 80
    art, config = tmp_path / "art.json", tmp_path / "config.json"
    config.write_text(json.dumps({"embedding_dimension": 16}), encoding="utf-8")
    assert cli.main(["preprocess", fixture_library_path(), "--seed", "7",
                     "--config", str(config), "--out", str(art)]) == 0

    def generate(run_dir, *extra):
        return cli.main(["generate", str(art), "--n", str(n), "--seed", "7",
                         "--out", str(run_dir / "ds.jsonl"),
                         "--log", str(run_dir / "run.log"), *extra])

    def outputs(run_dir):
        return [(run_dir / name).read_bytes() for name in ("ds.jsonl", "run.log")]

    (tmp_path / "ref").mkdir()
    assert generate(tmp_path / "ref") == 0
    expected = outputs(tmp_path / "ref")
    for k in (10, 40, 70):
        run_dir = tmp_path / f"crash{k}"
        run_dir.mkdir()
        with monkeypatch.context() as m:
            crash_once(m, k, torn=False)
            assert generate(run_dir) == 1
        assert len((run_dir / "ds.jsonl").read_text(encoding="utf-8").splitlines()) == k
        assert generate(run_dir, "--resume") == 0
        assert outputs(run_dir) == expected, k


def resume_after_a_crash_at_each_call(tmp_path, provider):
    """Run 4 examples on ``provider(chat)``; then, for each call k of that run,
    crash a run at call k and resume it on ``provider(StubChat())``, and
    require the dataset and run-log bytes of the uninterrupted run. Returns
    the uninterrupted run's call count and log events."""
    config = RunConfig(rng_seed=7, rounds=2, pattern_period=2)
    (tmp_path / "ref").mkdir()
    counter = OutageChat()
    _, events = run_with_log(tmp_path / "ref", config, provider(counter), 4)
    expected = [(tmp_path / "ref" / name).read_bytes() for name in ("ds.jsonl", "run.log")]
    for k in range(1, counter.calls + 1):
        run_dir = tmp_path / f"crash{k}"
        run_dir.mkdir()
        with pytest.raises(ProviderError, match="endpoint unreachable"):
            run_with_log(run_dir, config, provider(OutageChat(k - 1, ProviderError)), 4)
        run_with_log(run_dir, config, provider(StubChat()), 4, resume=True)
        got = [(run_dir / name).read_bytes() for name in ("ds.jsonl", "run.log")]
        assert got == expected, k
    return counter.calls, events


def test_resume_after_a_crash_at_any_call_matches_uninterrupted_run(tmp_path):
    calls, _ = resume_after_a_crash_at_each_call(tmp_path, lambda chat: chat)
    assert calls == 41


def test_resume_after_a_crash_at_any_call_under_faults_matches_uninterrupted_run(tmp_path):
    # the faults depend on the prompt alone, so the resumed run meets those of
    # the run it continues, abandoned attempts included
    calls, events = resume_after_a_crash_at_each_call(
        tmp_path, lambda chat: PromptFaultyChat(chat, 0.3, 0))
    assert [e["event"] for e in events].count("abandoned") >= 2 and calls > 41


def test_resume_keeps_a_log_the_interrupted_run_did_not_write(tmp_path, monkeypatch):
    art, out, log = tmp_path / "art.json", tmp_path / "ds.jsonl", tmp_path / "run.log"
    assert cli.main(["preprocess", fixture_library_path(), "--seed", "7",
                     "--out", str(art)]) == 0
    argv = ["generate", str(art), "--n", "3", "--seed", "7", "--out", str(out)]
    with monkeypatch.context() as m:
        crash_once(m, 2, torn=False)
        assert cli.main(argv) == 1
    log.write_text("kept\n", encoding="utf-8")
    assert cli.main(argv + ["--resume", "--log", str(log)]) == 0
    assert log.read_text(encoding="utf-8").startswith("kept\n{")
    # the checkpoint counts the kept line, so a second resume cuts the log
    # between events
    checkpoint = json.loads(out.with_name("ds.jsonl.checkpoint").read_text(encoding="utf-8"))
    assert checkpoint["log_bytes"] == log.stat().st_size
    assert cli.main([*argv[:3], "5", *argv[4:], "--resume", "--log", str(log)]) == 0
    kept, *events = log.read_text(encoding="utf-8").splitlines()
    assert kept == "kept" and [json.loads(line)["event"] for line in events]


def test_refused_resume_leaves_every_file_as_it_was(tmp_path, capsys):
    art, out, log = tmp_path / "art.json", tmp_path / "ds.jsonl", tmp_path / "run.log"
    assert cli.main(["preprocess", fixture_library_path(), "--seed", "7",
                     "--out", str(art)]) == 0
    argv = ["generate", str(art), "--n", "3", "--out", str(out), "--log", str(log)]
    assert cli.main(argv + ["--seed", "7"]) == 0
    with open(log, "a", encoding="utf-8") as fh:
        fh.write('{"event": "written after the checkpoint"}\n')
    files = (out, log, out.with_name("ds.jsonl.checkpoint"), out.with_name("ds.jsonl.rows"))

    def refused(*extra):
        before = [f.read_bytes() for f in files]
        assert cli.main(argv + ["--resume", *extra]) == 2
        assert [f.read_bytes() for f in files] == before

    # a configuration the checkpoint was not written under
    refused("--seed", "8")
    assert "different configuration" in capsys.readouterr().err
    # a dataset whose recorded prefix holds 2 of the 3 accepted examples, with
    # a line after it that resume would otherwise cut
    lines = out.read_text(encoding="utf-8").splitlines(keepends=True)
    out.write_text(lines[0] + lines[1] + " " * (len(lines[2].encode("utf-8")) - 1) + "\n"
                   + lines[2], encoding="utf-8")
    refused("--seed", "7")
    assert "hold 2 examples, the checkpoint records 3 accepted" in capsys.readouterr().err
    # a recorded query with no word token, which ranking could not score
    query = json.dumps(json.loads(lines[1])["query"], ensure_ascii=False)[1:-1]
    out.write_text(lines[0] + lines[1].replace(query, "?" * len(query.encode("utf-8")), 1)
                   + lines[2], encoding="utf-8")
    refused("--seed", "7")
    assert "ex-000002's query has no word token" in capsys.readouterr().err
    # a dataset shorter than the checkpoint records
    out.write_text(lines[0] + lines[1], encoding="utf-8")
    refused("--seed", "7")
    assert "shorter than the checkpoint records" in capsys.readouterr().err
    # a tracker that is not an array, which restore would read letter by letter
    out.write_text("".join(lines), encoding="utf-8")
    checkpoint = files[2]
    doc = json.loads(checkpoint.read_text(encoding="utf-8"))
    doc["trackers"]["g003"] = "Paris"
    checkpoint.write_text(json.dumps(doc), encoding="utf-8")
    refused("--seed", "7")
    assert "the checkpoint's trackers must be an object of arrays" in capsys.readouterr().err


@pytest.mark.parametrize("group, value, named", [
    ("g000", 10 ** 400, "non-finite value: 1000"),
    ("g003", "?!", "value '?!' has no word token"),
], ids=["numerical-int-past-any-float", "string-without-word-token"])
def test_a_checkpoint_value_its_group_cannot_place_is_a_usage_error(tmp_path, capsys,
                                                                    group, value, named):
    # a checkpoint from a run that admitted the value: resume exits 2 naming
    # the group and the value when the group's index first reads it
    art, out = tmp_path / "art.json", tmp_path / "ds.jsonl"
    assert cli.main(["preprocess", fixture_library_path(), "--seed", "7",
                     "--out", str(art)]) == 0
    argv = ["generate", str(art), "--n", "3", "--seed", "7", "--out", str(out)]
    assert cli.main(argv) == 0
    checkpoint = out.with_name("ds.jsonl.checkpoint")
    doc = json.loads(checkpoint.read_text(encoding="utf-8"))
    doc["trackers"][group].append(value)
    checkpoint.write_text(json.dumps(doc), encoding="utf-8")
    capsys.readouterr()
    assert cli.main([*argv[:3], "30", *argv[4:], "--resume"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: parameter group {group} holds a committed value"
                          " it cannot place: ") and named in err, err


def test_checkpoint_size_does_not_grow_with_the_dataset(tmp_path):
    # a NONE-only run commits no tracker value, so only the dataset grows
    config = RunConfig(rng_seed=7, type_weights={
        "SINGLE": 0.0, "PARALLEL": 0.0, "SEQUENTIAL": 0.0, "MISSING_PARAMS": 0.0, "NONE": 1.0})
    engine = build_engine(tmp_path, config=config)
    engine.generate(10)
    size = engine.checkpoint_path.stat().st_size
    resumed = build_engine(tmp_path, config=config)
    resumed.generate(40, resume=True)
    checkpoint = resumed.checkpoint_path.read_text(encoding="utf-8")
    assert not any(query in checkpoint for query in resumed.queries)
    # the RNG state's decimal digits vary between states
    assert abs(len(checkpoint.encode("utf-8")) - size) <= 64
    assert resumed.queries == [ex.query for ex in read_dataset(tmp_path / "ds.jsonl")]


def test_resume_before_first_acceptance(tmp_path, monkeypatch):
    (tmp_path / "ref").mkdir()
    build_engine(tmp_path / "ref").generate(2)
    with monkeypatch.context() as m:
        m.setattr(GenerationEngine, "_build_skeleton", lambda self, etype: 1 / 0)
        with pytest.raises(ZeroDivisionError):
            build_engine(tmp_path).generate(2)
    build_engine(tmp_path).generate(2, resume=True)
    assert (tmp_path / "ds.jsonl").read_bytes() == (tmp_path / "ref" / "ds.jsonl").read_bytes()


def test_resume_refuses_a_dataset_shorter_than_the_checkpoint(tmp_path):
    build_engine(tmp_path).generate(2)
    data = tmp_path / "ds.jsonl"
    data.write_bytes(data.read_bytes()[:-10])
    with pytest.raises(ValueError, match="shorter than the checkpoint"):
        build_engine(tmp_path).resume()


class ChainShrinkingChat(StubChat):
    """StubChat whose sequential-invocation construction answers the given
    steps in order, then an empty step that ends the chain."""

    def __init__(self, steps):
        self.steps = list(steps)

    def complete(self, prompt, params=None):
        if catalog.identify(prompt) == "ConstructSequentialInvocation":
            step = self.steps.pop(0) if self.steps else ""
            return format_output(catalog.get("ConstructSequentialInvocation"),
                                 {"reasoning": "next step", "next_api": step})
        return super().complete(prompt, params)


@pytest.mark.parametrize("kept, returns", [
    (("hotel_search", "flight_price"), ("from hotel_search",)),
    (("weather_forecast", "flight_price"), ("from weather_forecast",)),
])
def test_shrunk_sequential_chain_keeps_each_steps_return_value(tmp_path, kept, returns):
    by_name = {f.name: f for f in fixture_library()}
    chain = ("weather_forecast", "hotel_search", "flight_price")
    skeleton = ExampleSkeleton(
        execution_type=ExecutionType.SEQUENTIAL,
        schemas=tuple(by_name[name] for name in chain),
        arguments=({"city": "Oslo"}, {"city": "Oslo"}, {"year": 2024}),
        return_values=("from weather_forecast", "from hotel_search"))
    engine = build_engine(tmp_path, chat=ChainShrinkingChat(kept))
    example = engine._assemble(skeleton, {}, {}, "weather, then a hotel, then a flight")
    assert example.metadata["distractor_note"] == f"targets shrunk to {list(kept)}"
    assert [inv.function_name for inv in example.target_invocations] == list(kept)
    assert example.return_values == returns


class RecordingChat(StubChat):
    """StubChat that keeps every prompt it is sent, in call order."""

    def __init__(self):
        super().__init__()
        self.prompts = []

    def complete(self, prompt, params=None):
        self.prompts.append(prompt)
        return super().complete(prompt, params)


def _prompts_digest(prompts):
    digest = hashlib.sha256()
    for prompt in prompts:
        digest.update(prompt.encode("utf-8"))
        digest.update(b"\0")
    return digest.hexdigest()


def test_fixture_run_prompts_golden_digest(tmp_path):
    # Pins every rendered prompt of a fixture run, in call order: per
    # signature (count, first 16 hex digits of the sha256), so a change names
    # the signatures it moved, and in all. StubChat answers each validator and
    # judge YES whatever its prompt says, so the dataset digests alone cannot
    # see a changed validator or judge prompt.
    chat = RecordingChat()
    build_engine(tmp_path, chat=chat).generate(25)
    by_signature = {}
    for prompt in chat.prompts:
        by_signature.setdefault(catalog.identify(prompt), []).append(prompt)
    assert {name: (len(prompts), _prompts_digest(prompts)[:16])
            for name, prompts in by_signature.items()} == {
        "APIQueryJudge": (35, "eb290a8767802d35"),
        "BatchAPIRelevanceScorer": (15, "6819de21e08ac65c"),
        "ConstructParallelInvocation": (7, "815417d5e163d26b"),
        "ConstructSequentialInvocation": (3, "366596650dec6109"),
        "DiversityGuidanceGeneration": (112, "076f7d6e8cee9b4a"),
        "GenerateCohesiveNumericalParameter": (7, "50bb8d72d282ae51"),
        "GenerateCohesiveStringParameter": (7, "3dcb8524c864631f"),
        "GenerateMultipleNumericalParameters": (4, "93def206ed0a24bb"),
        "GenerateMultipleStringParameters": (12, "d7e1e8bc13bbfdac"),
        "GenerateOtherParameter": (1, "51344097e176e12b"),
        "GenerateReturnValue": (10, "a8fa0aa7f40a839a"),
        "GenerateSequentialCohesiveNumericalParameter": (6, "ac1933bae11a5a7a"),
        "GenerateSequentialCohesiveStringParameter": (4, "1c45326d132e9523"),
        "MissingParamsQueryGenerator": (25, "d4073c32e87527fb"),
        "MissingParamsQueryJudge": (25, "7144c5c2b36ea6d7"),
        "MultiQueryGenerator": (35, "8a6209de6424b409"),
        "NoAPIQueryGenerator": (15, "bf18edb505ddae02"),
        "ParallelAPIRelevanceScorer": (13, "cf875ad57b460256"),
        "ParallelQueryGenerator": (40, "b2eff9d283cd9d3b"),
        "ParallelQueryJudge": (40, "ad6859e350b8d3eb"),
        "ParameterSetValidator": (44, "27ed711a026cc426"),
        "PartialParameterSetValidator": (5, "0f1fc53224b2b23c"),
        "SequentialQueryGenerator": (25, "9ce18b4322074dcc"),
        "SequentialQueryJudge": (25, "993ba9d355764f89"),
        "ValidateReturnValue": (10, "f7ed3014c30aca0d"),
        "ValidateSequentialChain": (5, "b90023fd330b2a3e"),
        "ValidateSequentialSchemaCompatibility": (5, "cbaa280ce84a8767"),
    }
    assert (len(chat.prompts), _prompts_digest(chat.prompts)) == (
        535, "0f5e698110ec4313df07a06f91994c9d672dbc85982d174f8e31d1739b5c21e3")


def test_each_guidance_round_is_shown_its_diversity_order(tmp_path, monkeypatch):
    # StubChat's judge passes every candidate, so each round ranks a pool and
    # its guidance request follows that ranking
    events = []
    rank, feedback = querygen.rank_candidates_by_diversity, querygen.build_feedback

    def recording_rank(scorer, candidates):
        ranked = rank(scorer, candidates)
        events.append(("rank", ranked[0]))
        return ranked

    def recording_feedback(verdicts, ranked, client):
        events.append(("feedback", list(ranked)))
        return feedback(verdicts, ranked, client)

    monkeypatch.setattr(querygen, "rank_candidates_by_diversity", recording_rank)
    monkeypatch.setattr(querygen, "build_feedback", recording_feedback)
    build_engine(tmp_path).generate(10)
    shown = [(events[i - 1], order) for i, (kind, order) in enumerate(events)
             if kind == "feedback"]
    assert shown and all(previous == ("rank", order) for previous, order in shown)
