import hashlib
import json
import random
from pathlib import Path

import pytest

from conftest import templated_library
import divgen.cli as cli
from divgen.engine import GenerationEngine
from divgen.fixtures import fixture_library, fixture_library_path
from divgen.model import ExecutionType, ParamCategory, RunConfig, read_dataset
from divgen.preprocess import build_api_pools, build_similarity_graph, group_parameters
from divgen.providers.base import TransportError
from divgen.providers.hash_embed import HashEmbedder
from divgen.providers.mock import StubChat


def build_engine(tmp_path, config=None, chat=None, log_stream=None):
    library = fixture_library()
    embedder = HashEmbedder()
    config = config or RunConfig(rng_seed=7)
    groups = group_parameters(library, embedder, config.group_threshold)
    pools = build_api_pools(library, groups, random.Random(config.rng_seed))
    graph = build_similarity_graph(library, embedder, config.graph_threshold)
    return GenerationEngine(
        library, groups, pools, graph, config,
        chat or StubChat(), embedder, tmp_path / "ds.jsonl", log_stream)


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


class OutageChat:
    """Delegates to the stub, then fails permanently after a call budget."""

    def __init__(self, budget):
        self.stub = StubChat()
        self.remaining = budget

    def complete(self, prompt, params=None):
        if self.remaining <= 0:
            raise TransportError("endpoint unreachable")
        self.remaining -= 1
        return self.stub.complete(prompt, params)


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
        "33c5d074d2e014b5f198f123575d287c2788cefbbd03a6bfd75518f63f828e7e")


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
        "41126ddf8455be9ed720316b4464374142fa4f001ce79f324732ec7f5c4bc865")


def crash_once(monkeypatch, after_acceptance, torn):
    """Make the checkpoint write that follows acceptance ``after_acceptance``
    fail: before anything is written, or (``torn``) after writing the first
    half of the document."""
    original_write = GenerationEngine._write_checkpoint
    original_text = Path.write_text
    fired = []

    def torn_write_text(self, data, *args, **kwargs):
        original_text(self, data[: len(data) // 2], *args, **kwargs)
        raise OSError("disk full")

    def failing(self):
        if fired or self.state.accepted != after_acceptance:
            return original_write(self)
        fired.append(True)
        if not torn:
            raise OSError("killed")
        with monkeypatch.context() as m:
            m.setattr(Path, "write_text", torn_write_text)
            original_write(self)

    monkeypatch.setattr(GenerationEngine, "_write_checkpoint", failing)


@pytest.mark.parametrize("torn", [False, True])
def test_resume_after_checkpoint_crash_matches_uninterrupted_run(tmp_path, monkeypatch, torn):
    n = 5
    (tmp_path / "ref").mkdir()
    build_engine(tmp_path / "ref").generate(n)
    expected = (tmp_path / "ref" / "ds.jsonl").read_bytes()
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


def test_resume_before_first_acceptance(tmp_path, monkeypatch):
    (tmp_path / "ref").mkdir()
    build_engine(tmp_path / "ref").generate(2)
    with monkeypatch.context() as m:
        m.setattr(GenerationEngine, "_build_skeleton", lambda self, etype: 1 / 0)
        with pytest.raises(ZeroDivisionError):
            build_engine(tmp_path).generate(2)
    build_engine(tmp_path).generate(2, resume=True)
    assert (tmp_path / "ds.jsonl").read_bytes() == (tmp_path / "ref" / "ds.jsonl").read_bytes()


def test_resume_drops_tokenless_string_tracker_values(tmp_path):
    # a run from before token-less values were refused could commit one; its
    # checkpoint did not record the dataset size
    config = RunConfig(rng_seed=7, type_weights={
        "SINGLE": 1.0, "PARALLEL": 0.0, "SEQUENTIAL": 0.0, "MISSING_PARAMS": 0.0, "NONE": 0.0})
    engine = build_engine(tmp_path, config=config)
    engine.generate(1)
    doc = json.loads(engine.checkpoint_path.read_text())
    doc.pop("dataset_bytes", None)
    strings = [g.id for g in engine.groups.groups if g.category is ParamCategory.STRING]
    for gid in strings:
        doc["trackers"][gid] = ["Paris", "東京", "Rome", "", "Oslo"]
    engine.checkpoint_path.write_text(json.dumps(doc, ensure_ascii=False))
    resumed = build_engine(tmp_path, config=config)
    resumed.generate(6, resume=True)
    assert len(read_dataset(tmp_path / "ds.jsonl")) == 6
    for gid in strings:
        assert resumed.groups.tracker_snapshot(gid)[:3] == ("Paris", "Rome", "Oslo")


def test_resume_refuses_a_dataset_shorter_than_the_checkpoint(tmp_path):
    build_engine(tmp_path).generate(2)
    data = tmp_path / "ds.jsonl"
    data.write_bytes(data.read_bytes()[:-10])
    with pytest.raises(ValueError, match="shorter than the checkpoint"):
        build_engine(tmp_path).resume()
