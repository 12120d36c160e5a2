"""One benchmark repetition in a fresh interpreter.

Usage: python3 bench/worker.py '<task json>'

Prints one JSON object with the repetition's timings, counts, output checks
and (when the task asks for it) its span summary. A fresh process per
repetition keeps the process-wide memo caches (tokenize, fkgl_grade,
chunk_sentence, the tree-edit-distance memo) cold, as they are for a user who
runs one command.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import re
import resource
import sys
import time
import traceback
from collections import Counter
from pathlib import Path
from typing import Any

import inputs
import spans
from reference import reference_seconds
from divgen import evaluate, preprocess
from divgen.engine import GenerationEngine
from divgen.fixtures import fixture_library, fixture_library_path
from divgen.metrics.battery import REPORT_METRICS
from divgen.metrics.text import fkgl_grade, tokenize
from divgen.metrics.trees import _ted_between_sentences, chunk_sentence, sentences_of
from divgen.model import ParamCategory, RunConfig, load_function_library, read_dataset
from divgen.providers import catalog
from divgen.providers.hash_embed import HashEmbedder
from divgen.providers.mock import StubChat

MEMOS = {"tokenize": tokenize, "fkgl_grade": fkgl_grade,
         "chunk_sentence": chunk_sentence, "ted": _ted_between_sentences}


class WorkClock:
    """``perf_counter`` without the time spent in reference runs.

    Every timestamp of a repetition, its spans' included, comes from this
    clock, so the machine-speed readings taken between stretches of work stay
    out of every time measured, traced or not.
    """

    def __init__(self) -> None:
        self.excluded = 0.0

    def __call__(self) -> float:
        return time.perf_counter() - self.excluded

    def reference(self) -> float:
        """One reading of the reference mix (see reference.py)."""
        t0 = time.perf_counter()
        seconds = reference_seconds()
        self.excluded += time.perf_counter() - t0
        return seconds


CLOCK = WorkClock()


class CountingChat:
    """Counts completions and prompt/reply characters; spans them when traced."""

    def __init__(self, inner: Any, tracer: spans.Tracer | None):
        self.inner = inner
        self.tracer = tracer
        self.calls = self.prompt_chars = self.reply_chars = 0

    def complete(self, prompt: str, params: Any = None) -> str:
        self.calls += 1
        self.prompt_chars += len(prompt)
        if self.tracer is None:
            reply = self.inner.complete(prompt, params)
        else:
            self.tracer.counters[f"providers.chat.{catalog.identify(prompt)}"] += 1
            reply = self.tracer.span("providers.chat", self.inner.complete, prompt, params)
        self.reply_chars += len(reply)
        return reply


class CountingEmbedder:
    """Counts embed calls and texts before the wrapped embedder's own memo."""

    def __init__(self, inner: Any, tracer: spans.Tracer | None):
        self.inner = inner
        self.dimension = inner.dimension
        self.tracer = tracer
        self.calls = self.texts = 0

    def embed(self, texts: Any) -> Any:
        self.calls += 1
        self.texts += len(texts)
        if self.tracer is None:
            return self.inner.embed(texts)
        return self.tracer.span("providers.embed", self.inner.embed, texts)


class TimestampLog:
    """Run-log stream that timestamps each event and forwards the bytes as is.

    It also takes a machine-speed reading after each event, so every stretch
    of generation between two events has one at both ends (see _stretches).
    """

    def __init__(self, path: Path):
        self.fh = open(path, "w", encoding="utf-8")
        self.marks: list[tuple[float, float, str]] = []
        self.events: list[dict] = []

    def write(self, text: str) -> int:
        t = CLOCK()
        written = self.fh.write(text)
        self.events.append(json.loads(text))
        kind = "accepted" if self.events[-1]["event"] == "accepted" else "event"
        self.marks.append((t, CLOCK.reference(), kind))
        return written

    def flush(self) -> None:
        self.fh.flush()

    def close(self) -> None:
        self.fh.close()


def _stretches(marks: list[tuple[float, float, str]], start: float, end: float,
               ref_start: float, ref_end: float) -> tuple[list[tuple[float, float]], tuple]:
    """Split [start, end] at ``marks`` (work-clock time, reference seconds
    read there, kind) into stretches of work. Returns, per "accepted" mark and
    in total: (seconds, seconds over the mean reference time at the ends of
    each stretch)."""
    points = [(start, ref_start, "start"), *marks, (end, ref_end, "end")]
    per_accepted, pending, total = [], [0.0, 0.0], [0.0, 0.0]
    for (b, rb, _), (e, re_, kind) in zip(points, points[1:]):
        for acc in (pending, total):
            acc[0] += e - b
            acc[1] += (e - b) * 2 / (rb + re_)
        if kind == "accepted":
            per_accepted.append((pending[0], pending[1]))
            pending = [0.0, 0.0]
    return per_accepted, (total[0], total[1])


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _memo_counts() -> dict[str, list[int]]:
    return {k: [f.cache_info().hits, f.cache_info().misses] for k, f in MEMOS.items()}


def _reason_class(reason: str) -> str:
    # numbers and quoted function names vary per attempt; the cause does not
    return re.sub(r"\d+", "N", reason.split(": ", 1)[-1])[:80]


def _check_dataset(path: Path, total: int) -> list[str]:
    problems = []
    try:
        examples = read_dataset(path)
    except Exception as exc:  # a broken line is a failed check, not a crash
        return [f"read_dataset: {exc}"]
    for ex in examples:
        try:
            ex.validate()
        except Exception as exc:
            problems.append(f"validate: {exc}")
    if len(examples) != total:
        problems.append(f"expected {total} lines, found {len(examples)}")
    ids = [ex.id for ex in examples]
    if ids != [f"ex-{i:06d}" for i in range(1, len(ids) + 1)]:
        problems.append("ids are not contiguous from ex-000001")
    return problems


def _finite_rows(rows: list[dict], keys: tuple[str, ...]) -> list[str]:
    problems = []
    seen = {r["metric"] for r in rows}
    if seen != set(REPORT_METRICS):
        problems.append(f"report metrics differ: {sorted(set(REPORT_METRICS) ^ seen)}")
    for r in rows:
        for k in keys:
            if not math.isfinite(r[k]):
                problems.append(f"{r['metric']}.{k} is not finite")
    return problems


def generate_rep(task: dict, tracer: spans.Tracer | None, work: Path) -> dict:
    seed = task["seed"]
    config = RunConfig(rng_seed=seed)
    if task["execution_types"]:
        config = RunConfig(rng_seed=seed, type_weights={
            t: float(t in task["execution_types"]) for t in config.type_weights})
    warm = task["values_per_group"] > 0
    if task["library_size"]:
        library = inputs.wide_library(task["library_size"], task["library_seed"])
    else:
        library = inputs.string_library() if warm else fixture_library()
    out, log_path, artifact = work / "dataset.jsonl", work / "run.log", work / "artifact.json"
    prior = task["prior_examples"] if warm else 0
    if warm:
        groups = preprocess.group_parameters(library, HashEmbedder(), config.group_threshold)
        builder = GenerationEngine(library, groups, None, None, config, StubChat(),
                                   HashEmbedder(), out)
        inputs.warm_checkpoint(builder, groups, task["values_per_group"], prior, seed)
    CLOCK.reference()  # warm-up: the first run in a fresh process is slower
    undo = spans.install(tracer) if tracer else None
    chat = CountingChat(StubChat(), tracer)
    embedder = CountingEmbedder(HashEmbedder(config.embedding_dimension), tracer)
    log = TimestampLog(log_path)
    resume_at: list[float] = []
    setups = []
    reference = CLOCK.reference()
    rep_start = CLOCK()
    try:
        for _ in range(1 if tracer else task["setup_repeats"]):
            t0 = CLOCK()
            pre = HashEmbedder(config.embedding_dimension)
            groups = preprocess.group_parameters(library, pre, config.group_threshold)
            pools = preprocess.build_api_pools(library, groups, random.Random(config.rng_seed))
            graph = preprocess.build_similarity_graph(library, pre, config.graph_threshold)
            preprocess.write_artifact(artifact, library, groups, pools, graph, config.to_dict())
            lib, groups, pools, graph, _ = preprocess.read_artifact(artifact)
            engine = GenerationEngine(lib, groups, pools, graph, config, chat, embedder,
                                      out, log)
            if warm:
                engine.resume()
            seconds = CLOCK() - t0
            after = CLOCK.reference()
            setups.append((seconds, seconds * 2 / (reference + after)))
            reference = after
        # generate(resume=True) restores the checkpoint once more; that second
        # read is timed here and kept out of the generate window
        original_resume = GenerationEngine.resume

        def timed_resume(self: GenerationEngine) -> None:
            original_resume(self)
            resume_at.append(CLOCK())
        GenerationEngine.resume = timed_resume
        chat_before = (chat.calls, chat.prompt_chars, chat.reply_chars)
        embed_before = (embedder.calls, embedder.texts)
        total = prior + task["n"]
        error = None
        g0 = CLOCK()
        try:
            if tracer:
                tracer.span(spans.PHASE, engine.generate, total, resume=warm)
            else:
                engine.generate(total, resume=warm)
        except Exception as exc:  # recorded as a failed repetition, not a bench crash
            error = f"{type(exc).__name__}: {exc}"
        g1 = CLOCK()
        GenerationEngine.resume = original_resume
    finally:
        log.close()
        if undo:
            undo()
    wall = g1 - rep_start
    latencies, generate = _stretches(log.marks, resume_at[-1] if resume_at else g0, g1,
                                     reference, CLOCK.reference())
    abandoned: Counter[str] = Counter()
    for e in log.events:
        if e["event"] == "abandoned":
            abandoned[f"{e['execution_type']}|{_reason_class(e['reason'])}"] += 1
    problems = _check_dataset(out, total)
    if error:
        problems.insert(0, error)
    trackers = [len(g.tracker) for g in groups.groups
                if g.category in (ParamCategory.NUMERICAL, ParamCategory.STRING)]
    checkpoint = engine.checkpoint_path
    result = {
        "kind": "generate",
        "problems": problems,
        "digest": _sha256(out) if out.exists() else "",
        "log_digest": _sha256(log_path),
        "setup_s": setups,
        "generate_s": generate,
        "accepted": len(latencies),
        "attempts": engine.state.attempts - prior,
        "latencies_s": latencies,
        "abandoned": dict(abandoned),
        "chat_calls": chat.calls - chat_before[0],
        "prompt_chars": chat.prompt_chars - chat_before[1],
        "reply_chars": chat.reply_chars - chat_before[2],
        "embed_calls": embedder.calls - embed_before[0],
        "embed_texts": embedder.texts - embed_before[1],
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "working_set": {
            "library_size": len(library),
            "corpus_size": len(engine.queries),
            "tracker_values_mean": sum(trackers) / len(trackers) if trackers else 0,
            "tracker_values_max": max(trackers, default=0),
            "checkpoint_kb": checkpoint.stat().st_size / 1024 if checkpoint.exists() else 0,
            "graph_edges": len(graph.edges),
        },
        "memo": _memo_counts(),
    }
    if tracer:
        result["trace"] = tracer.summary(wall, tuple(task["focus"]))
    return result


def report_rep(task: dict, tracer: spans.Tracer | None, work: Path) -> dict:
    """``analyze`` of one seeded corpus, or ``compare`` of two."""
    seed = task["seed"]
    paths = [work / "corpus_a.jsonl", work / "corpus_b.jsonl"]
    paths = paths if task["kind"] == "compare" else paths[:1]
    for i, path in enumerate(paths):
        inputs.write_corpus(path, task["corpus_size"], seed + i, repetitive=i == 1)
    marks: list[tuple[float, float, str]] = []
    CLOCK.reference()  # warm-up: the first run in a fresh process is slower
    undo = spans.install(tracer) if tracer else None
    bootstrap = evaluate.bootstrap_std

    def bootstrap_then_reference(*args: Any, **kwargs: Any) -> float:
        # a machine-speed reading after each of the report's bootstrap loops
        out = bootstrap(*args, **kwargs)
        marks.append((CLOCK(), CLOCK.reference(), "bootstrap"))
        return out

    evaluate.bootstrap_std = bootstrap_then_reference
    embedder = HashEmbedder()
    problems: list[str] = []
    t0 = CLOCK()
    try:
        datasets = [read_dataset(p) for p in paths]
        libraries = ([load_function_library(fixture_library_path()) for _ in paths]
                     if task["kind"] == "compare" else [])
        reference = CLOCK.reference()
        t1 = CLOCK()
        corpora = [[ex.query for ex in d] for d in datasets]
        try:
            if task["kind"] == "compare":
                report = evaluate.compare_linguistic_diversity(
                    corpora[0], corpora[1], embedder, seed)
                problems += _finite_rows([r.to_dict() for r in report.rows],
                                         ("score_a", "std_a", "score_b", "std_b"))
                arguments = evaluate.compare_argument_diversity(
                    datasets[0], datasets[1], libraries[0], libraries[1], embedder, seed=seed)
                if not arguments.get("groups"):
                    problems.append("argument comparison matched no parameter group")
                for row in arguments.get("groups", []):
                    for k in ("ncd_a", "ncd_b", "ce_a", "ce_b"):
                        if not math.isfinite(row[k]):
                            problems.append(f"{row['group']}.{k} is not finite")
            else:
                report = evaluate.analyze_corpus(corpora[0], embedder, seed)
                problems += _finite_rows([r.to_dict() for r in report.rows],
                                         ("score_a", "std_a"))
        except Exception as exc:  # recorded as a failed repetition, not a bench crash
            problems.append(f"{type(exc).__name__}: {exc}\n{traceback.format_exc(limit=3)}")
        t2 = CLOCK()
    finally:
        evaluate.bootstrap_std = bootstrap
        if undo:
            undo()
    memo = _memo_counts()
    _, analyze = _stretches(marks, t1, t2, reference, CLOCK.reference())
    sentences = [sum(1 for q in c for _ in sentences_of(q)) for c in corpora]
    result = {
        "kind": task["kind"],
        "problems": problems,
        "analyze_s": analyze,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "working_set": {
            "corpus_sizes": [len(c) for c in corpora],
            "sentence_pairs": [s * (s - 1) // 2 for s in sentences],
            "ted_memo_cap": _ted_between_sentences.cache_info().maxsize,
        },
        "memo": memo,
    }
    if tracer:
        result["trace"] = tracer.summary(t2 - t0, tuple(task["focus"]))
    return result


def main(argv: list[str]) -> int:
    task = json.loads(argv[1])
    work = Path(task["work"])
    work.mkdir(parents=True, exist_ok=True)
    tracer = spans.Tracer(clock=CLOCK) if task["trace"] else None
    run = generate_rep if task["kind"] == "generate" else report_rep
    print(json.dumps(run(task, tracer, work)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
